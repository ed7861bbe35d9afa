from __future__ import annotations

import math

import numpy as np
import pytest

from ridgelab import (
    DomainError,
    JointSpectrum,
    ModelSpec,
    RegimeError,
    SolverError,
    discretize,
    find_edge,
    lambda_of_m,
    point_mass,
    solve_m,
    solve_m_theta,
    truncate_top,
    Uniform,
)
from ridgelab.stieltjes import solve_m_grid

from oracles import second_derivative, solve_companion


def isotropic_root(gamma: float, lam: float) -> float:
    """Principal root of lam*m^2 + (lam+gamma-1)*m - 1 = 0 for h == 1.

    The (-b + sqrt(disc)) / (2*lam) root is the right branch on both sides:
    positive for lam > 0 and diverging to -inf as lam -> 0- when gamma < 1.
    """
    if lam == 0.0:
        return 1.0 / (gamma - 1.0)
    b = lam + gamma - 1.0
    disc = math.sqrt(b * b + 4.0 * lam)
    return (-b + disc) / (2.0 * lam)


class TestSolveM:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 5.0])
    def test_isotropic_quadratic(self, gamma: float, lam: float) -> None:
        model = ModelSpec(gamma, 0.0, point_mass(1.0))
        sol = solve_m(model, lam)
        assert sol.m == pytest.approx(isotropic_root(gamma, lam), abs=1e-10)
        assert sol.residual < 1e-10

    def test_known_values(self) -> None:
        model = ModelSpec(2.0, 0.0, point_mass(1.0))
        assert solve_m(model, 0.0).m == pytest.approx(1.0, abs=1e-10)
        assert solve_m(model, 0.0).m_prime == pytest.approx(2.0, abs=1e-9)
        sol = solve_m(model, 1.0)
        assert sol.m == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)

    @pytest.mark.parametrize("gamma,lam", [(1.5, 0.3), (2.0, 1.0), (4.0, 0.05), (2.0, -0.1)])
    def test_m_prime_matches_finite_differences(self, gamma: float, lam: float) -> None:
        model = ModelSpec(gamma, 0.0, point_mass(1.0))
        sol = solve_m(model, lam)
        eps = 1e-6
        fd = (solve_m(model, lam + eps).m - solve_m(model, lam - eps).m) / (2.0 * eps)
        # m(-lambda) falls as lambda grows, so m' = -d m/d lambda
        assert sol.m_prime == pytest.approx(-fd, rel=1e-6)

    def test_anisotropic_fixed_point_residual(self) -> None:
        spec = JointSpectrum([(0.5, 1.0, 0.3), (2.0, 1.0, 0.5), (7.0, 1.0, 0.2)])
        model = ModelSpec(3.0, 0.0, spec)
        for lam in (0.0, 0.2, 2.0):
            sol = solve_m(model, lam)
            assert sol.residual < 1e-10
            assert lambda_of_m(model, sol.m) == pytest.approx(lam, abs=1e-9)

    def test_below_edge_rejected_with_payload(self) -> None:
        model = ModelSpec(2.0, 0.0, point_mass(1.0))
        edge = find_edge(model)
        with pytest.raises(DomainError) as err:
            solve_m(model, -edge.c0_effective - 1e-6)
        assert err.value.c0_effective == pytest.approx(edge.c0_effective)

    def test_underparameterized_negative_lambda_matches_quadratic(self) -> None:
        for gamma, lam in ((0.3, -0.05), (0.7, -0.01), (0.5, -0.08)):
            model = ModelSpec(gamma, 0.0, point_mass(1.0))
            sol = solve_m(model, lam)
            assert sol.m == pytest.approx(isotropic_root(gamma, lam), rel=1e-9)
            assert sol.m < 0.0

    def test_underparameterized_ridgeless_diverges(self) -> None:
        model = ModelSpec(0.5, 0.0, point_mass(1.0))
        with pytest.raises(DomainError):
            solve_m(model, 0.0)

    def test_underparameterized_below_spectrum_edge(self) -> None:
        model = ModelSpec(0.5, 0.0, point_mass(1.0))
        bound = (1.0 - math.sqrt(0.5)) ** 2
        with pytest.raises(DomainError):
            solve_m(model, -bound - 1e-6)

    def test_nonfinite_lambda_rejected(self) -> None:
        model = ModelSpec(2.0, 0.0, point_mass(1.0))
        for lam in (math.inf, 1e300):  # 1e300: 1/m^2 in the identity for m' overflows
            with pytest.raises(DomainError):
                solve_m(model, lam)


class TestSolveMGrid:
    def test_isotropic_quadratic_on_both_branches(self) -> None:
        lams = [-0.05, 0.0, 0.5, 5.0]
        m = solve_m_grid(ModelSpec(2.0, 0.0, point_mass(1.0)), lams)
        assert m == pytest.approx([isotropic_root(2.0, lam) for lam in lams], rel=1e-13)
        m = solve_m_grid(ModelSpec(0.5, 0.0, point_mass(1.0)), [0.5, 5.0])
        assert m == pytest.approx([isotropic_root(0.5, lam) for lam in (0.5, 5.0)], rel=1e-13)

    @pytest.mark.parametrize("gamma", [2.0, 0.6])
    def test_scalar_solve_is_its_one_row_grid_solve(self, gamma: float) -> None:
        model = ModelSpec(gamma, 0.0, JointSpectrum([(1.0, 1.0, 0.5), (3.0, 1.0, 0.5)]))
        for lam in (-0.02, 0.0, 1e-9, 0.3, 7.0, 1e150):
            if lam <= 0.0 and gamma < 1.0:
                continue  # the companion route's domain
            assert solve_m(model, lam).m == solve_m_grid(model, [lam])[0]

    @pytest.mark.parametrize("gamma, lam", [(2.0, -0.5), (0.5, 0.0), (0.5, -0.01)])
    def test_outside_the_domain(self, gamma: float, lam: float) -> None:
        with pytest.raises(DomainError):
            solve_m_grid(ModelSpec(gamma, 0.0, point_mass(1.0)), [1.0, lam])


class TestFindEdge:
    def test_isotropic_edge_values(self) -> None:
        model = ModelSpec(2.0, 0.0, point_mass(1.0))
        edge = find_edge(model)
        # 1/m^2 = gamma/(1+m)^2 has root m = 1/(sqrt(gamma)-1)
        assert edge.m_edge == pytest.approx(1.0 / (math.sqrt(2.0) - 1.0), rel=1e-9)
        assert edge.c0_effective == pytest.approx((math.sqrt(2.0) - 1.0) ** 2, rel=1e-9)
        assert edge.c0_bound == pytest.approx((math.sqrt(2.0) - 1.0) ** 2)

    def test_gamma_four_unit_edge(self) -> None:
        edge = find_edge(ModelSpec(4.0, 0.0, point_mass(1.0)))
        assert edge.c0_effective == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("gamma", [1.3, 2.0, 5.0])
    def test_bound_holds_for_full_mass_spectra(self, gamma: float) -> None:
        spec = JointSpectrum([(0.5, 1.0, 0.25), (1.5, 1.0, 0.5), (4.0, 1.0, 0.25)])
        edge = find_edge(ModelSpec(gamma, 0.0, spec))
        assert edge.c0_effective >= edge.c0_bound - 1e-12

    def test_requires_overparameterized_mass(self) -> None:
        with pytest.raises(RegimeError):
            find_edge(ModelSpec(0.8, 0.0, point_mass(1.0)))


class TestSolveMTheta:
    def test_single_atom_closed_form(self) -> None:
        # keeping mass theta of a point mass at h1: m = 1/(h1*(gamma*theta - 1))
        for h1, gamma, theta in ((1.0, 4.0, 0.5), (3.0, 2.0, 0.9), (0.7, 5.0, 0.4)):
            model = ModelSpec(gamma, 0.0, point_mass(h1))
            sol = solve_m_theta(model, theta)
            assert sol.m == pytest.approx(1.0 / (h1 * (gamma * theta - 1.0)), rel=1e-9)

    def test_theta_one_equals_plain_solve(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.5), (3.0, 1.0, 0.5)])
        model = ModelSpec(2.0, 0.0, spec)
        assert solve_m_theta(model, 1.0).m == pytest.approx(solve_m(model, 0.0).m, rel=1e-10)

    def test_interpolation_threshold_rejected(self) -> None:
        model = ModelSpec(2.0, 0.0, JointSpectrum([(1.0, 1.0, 0.5), (3.0, 1.0, 0.5)]))
        with pytest.raises(RegimeError):
            solve_m_theta(model, 0.5)
        with pytest.raises(RegimeError):
            solve_m_theta(model, 0.3)

    def test_matches_truncated_direct_solve(self) -> None:
        spec = discretize(Uniform(1.0, 8.0), 32)
        model = ModelSpec(2.0, 0.0, spec)
        theta = 0.8
        direct = solve_m(ModelSpec(2.0, 0.0, truncate_top(spec, theta)), 0.0)
        assert solve_m_theta(model, theta).m == pytest.approx(direct.m, rel=1e-12)


class TestCompanion:
    def test_relation_to_m(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.5), (3.0, 1.0, 0.5)])
        for gamma, lam in ((2.0, 0.7), (0.6, 0.3), (0.6, -0.02)):
            model = ModelSpec(gamma, 0.0, spec)
            comp = solve_companion(model, lam)
            assert comp.residual < 1e-9
            assert comp.m_from_s == pytest.approx(solve_m(model, lam).m, rel=1e-8)

    def test_underparameterized_ridgeless_closed_form(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.5), (4.0, 1.0, 0.5)])
        model = ModelSpec(0.5, 0.0, spec)
        comp = solve_companion(model, 0.0)
        expected = spec.expect(lambda h, g: 1.0 / h) / (1.0 - 0.5)
        assert comp.s == pytest.approx(expected, rel=1e-12)
        assert math.isinf(comp.m_from_s)

    def test_overparameterized_needs_positive_lambda(self) -> None:
        model = ModelSpec(2.0, 0.0, point_mass(1.0))
        with pytest.raises(DomainError):
            solve_companion(model, -0.05)


class TestSecondDerivative:
    def test_matches_exact_root_differences(self) -> None:
        # Exact quadratic roots keep the second difference free of solver noise.
        gamma, lam, eps = 2.0, 0.4, 1e-4
        model = ModelSpec(gamma, 0.0, point_mass(1.0))
        sol = solve_m(model, lam)
        fd = (
            isotropic_root(gamma, lam + eps)
            - 2.0 * isotropic_root(gamma, lam)
            + isotropic_root(gamma, lam - eps)
        ) / eps**2
        assert second_derivative(model, sol) == pytest.approx(fd, rel=1e-5)

    def test_matches_m_prime_differences(self) -> None:
        # m_prime is algebraic in m, so first differences of it stay clean.
        spec = JointSpectrum([(1.0, 1.0, 0.6), (2.5, 1.0, 0.4)])
        model = ModelSpec(2.0, 0.0, spec)
        sol = solve_m(model, 0.4)
        eps = 1e-6
        fd = (solve_m(model, 0.4 + eps).m_prime - solve_m(model, 0.4 - eps).m_prime) / (
            2.0 * eps
        )
        # m_prime is -dm/dlambda, so its lambda-derivative is minus the curvature
        assert second_derivative(model, sol) == pytest.approx(-fd, rel=1e-5)
