from __future__ import annotations

import math

import numpy as np
import pytest

from ridgelab import (
    DomainError,
    JointSpectrum,
    ModelSpec,
    RegimeError,
    RiskEvaluation,
    SolverError,
    WeightedSpectrum,
    alpha_path_risk,
    asymptotic_risk,
    interpolate_penalty,
    pcr_curve,
    pcr_risk,
    point_mass,
    recipe_spectrum,
    risk_curve,
    risk_derivative,
    solve_m,
    weighted_model,
    weighted_risk,
)
import ridgelab.stieltjes as stieltjes

from oracles import alpha_path_state, alternative_total_risk, assert_pcr_forms_agree

ISO_QUARTER_NOISE = ModelSpec(2.0, 0.25, point_mass(1.0))
ALIGNED_TWO_POINT = JointSpectrum([(1.0, 1.0, 0.75), (5.0, 5.0, 0.25)])
MISALIGNED_TWO_POINT = JointSpectrum([(1.0, 5.0, 0.75), (5.0, 1.0, 0.25)])


class TestAsymptoticRisk:
    def test_isotropic_ridgeless_split(self) -> None:
        # gamma=2, h=g=1, sigma2=0.25: m=1, m'=2, so bias 1.0 and variance 0.5
        out = asymptotic_risk(ISO_QUARTER_NOISE, 0.0)
        assert out.bias == pytest.approx(1.0, abs=1e-12)
        assert out.variance == pytest.approx(0.5, abs=1e-12)
        assert out.total == pytest.approx(1.5, abs=1e-12)
        assert ISO_QUARTER_NOISE.spectrum.h * solve_m(ISO_QUARTER_NOISE, 0.0).m == pytest.approx([1.0])

    def test_risk_at_tuned_lambda(self) -> None:
        assert asymptotic_risk(ISO_QUARTER_NOISE, 0.25).total == pytest.approx(
            1.4253905296791065, abs=1e-12
        )

    def test_null_model_limit(self) -> None:
        spec = JointSpectrum([(1.0, 2.0, 0.5), (4.0, 0.5, 0.5)])
        model = ModelSpec(2.0, 0.3, spec)
        null = model.gamma * spec.e_gh() + model.sigma2
        assert asymptotic_risk(model, 1e6).total == pytest.approx(null, rel=1e-3)

    def test_underparameterized_ridgeless_closed_form(self) -> None:
        model = ModelSpec(0.5, 0.3, point_mass(2.0))
        out = asymptotic_risk(model, 0.0)
        assert out.total == pytest.approx(0.6, abs=1e-14)
        assert out.bias == 0.0

    def test_underparameterized_positive_lambda_continuity(self) -> None:
        model = ModelSpec(0.5, 0.3, point_mass(2.0))
        assert asymptotic_risk(model, 1e-7).total == pytest.approx(0.6, rel=1e-5)

    def test_negative_lambda_beats_ridgeless_when_aligned(self) -> None:
        model = ModelSpec(2.0, 0.0, ALIGNED_TWO_POINT)
        assert asymptotic_risk(model, -0.05).total < asymptotic_risk(model, 0.0).total

    def test_curve_matches_pointwise(self) -> None:
        lams = [0.0, 0.3, 1.2]
        curve = risk_curve(ISO_QUARTER_NOISE, lams)
        for lam, row in zip(lams, curve):
            assert row.total == asymptotic_risk(ISO_QUARTER_NOISE, lam).total

    def test_negative_component_rejected(self) -> None:
        with pytest.raises(SolverError):
            RiskEvaluation(lam=0.0, total=0.0, bias=-0.1, variance=0.1)


class TestAlternativeForm:
    @pytest.mark.parametrize("gamma,sigma2", [(1.5, 0.0), (2.0, 0.4), (4.0, 1.0), (0.6, 0.2)])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 3.0])
    def test_margin_identity_agrees(self, gamma: float, sigma2: float, lam: float) -> None:
        spec = JointSpectrum([(0.5, 2.0, 0.3), (2.0, 1.0, 0.5), (6.0, 0.2, 0.2)])
        model = ModelSpec(gamma, sigma2, spec)
        direct = asymptotic_risk(model, lam).total
        alt = alternative_total_risk(model, lam)
        assert abs(direct - alt) <= 1e-10 * max(1.0, abs(direct))

    def test_agrees_at_negative_lambda(self) -> None:
        model = ModelSpec(2.0, 0.1, ALIGNED_TWO_POINT)
        direct = asymptotic_risk(model, -0.08).total
        assert abs(direct - alternative_total_risk(model, -0.08)) <= 1e-10 * direct


class TestDerivative:
    @pytest.mark.parametrize(
        "gamma,sigma2,lam",
        [(2.0, 0.25, 0.3), (1.5, 0.1, 1.0), (4.0, 0.8, 0.05), (2.0, 0.0, -0.05), (0.6, 0.3, 0.4)],
    )
    def test_matches_centered_differences(self, gamma: float, sigma2: float, lam: float) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.75), (5.0, 5.0, 0.25)])
        model = ModelSpec(gamma, sigma2, spec)
        eps = 1e-5
        fd = (
            asymptotic_risk(model, lam + eps).total - asymptotic_risk(model, lam - eps).total
        ) / (2.0 * eps)
        parts = risk_derivative(model, lam)
        assert parts.value == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_aligned_noiseless_pushes_negative(self) -> None:
        parts = risk_derivative(ModelSpec(2.0, 0.0, ALIGNED_TWO_POINT), 0.0)
        assert parts.part3 == 0.0
        assert parts.part4 > 0.0
        assert parts.value > 0.0
        assert parts.prefactor > 0.0

    def test_misaligned_noiseless_pushes_positive(self) -> None:
        parts = risk_derivative(ModelSpec(2.0, 0.0, MISALIGNED_TWO_POINT), 0.0)
        assert parts.part4 < 0.0
        assert parts.value < 0.0

    def test_flat_relation_is_stationary_at_zero(self) -> None:
        spec = JointSpectrum([(1.0, 2.75, 0.75), (5.0, 2.75, 0.25)])
        parts = risk_derivative(ModelSpec(2.0, 0.0, spec), 0.0)
        assert abs(parts.value) < 1e-9

    def test_noise_part_always_nonpositive(self) -> None:
        spec = JointSpectrum([(0.5, 1.0, 0.5), (3.0, 2.0, 0.5)])
        for lam in (0.0, 0.2, 1.0):
            assert risk_derivative(ModelSpec(2.0, 0.7, spec), lam).part3 <= 0.0


class TestPcr:
    def test_lower_branch_hand_value(self) -> None:
        # gamma=1 formally, theta=0.5, h in {1, 3} equal mass, g=1, no noise:
        # dropping the h=1 half gives 0.5 / (1 - 0.5) = 1.0 exactly
        model = ModelSpec(1.0, 0.0, JointSpectrum([(1.0, 1.0, 0.5), (3.0, 1.0, 0.5)]))
        out = pcr_risk(model, 0.5)
        assert out.total == pytest.approx(1.0, abs=1e-12)
        assert out.variance == 0.0

    def test_lower_branch_hand_split(self) -> None:
        # gamma=2, theta=0.3: keeps 0.25 mass at h=5 plus 0.05 at h=1
        model = ModelSpec(2.0, 0.2, ALIGNED_TWO_POINT)
        out = pcr_risk(model, 0.3)
        dropped_gh = 0.70 * 1.0 * 1.0
        assert out.bias == pytest.approx(2.0 * dropped_gh / (1.0 - 0.6), abs=1e-12)
        assert out.variance == pytest.approx(0.2 / (1.0 - 0.6), abs=1e-12)

    def test_full_mass_equals_ridgeless(self) -> None:
        model = ModelSpec(2.0, 0.1, ALIGNED_TWO_POINT)
        assert pcr_risk(model, 1.0).total == pytest.approx(
            asymptotic_risk(model, 0.0).total, rel=1e-12
        )

    def test_upper_branch_frozen_value(self) -> None:
        model = ModelSpec(2.0, 0.1, ALIGNED_TWO_POINT)
        assert pcr_risk(model, 0.75).total == pytest.approx(3.3262296845144785, rel=1e-12)

    def test_boundary_spike(self) -> None:
        model = ModelSpec(2.0, 0.1, ALIGNED_TWO_POINT)
        near = pcr_risk(model, 0.505).total
        assert near > 10.0 * pcr_risk(model, 0.75).total
        assert near > 10.0 * pcr_risk(model, 0.3).total

    def test_divergent_band_rejected(self) -> None:
        model = ModelSpec(2.0, 0.1, ALIGNED_TWO_POINT)
        with pytest.raises(RegimeError):
            pcr_risk(model, 0.5)

    @pytest.mark.parametrize("theta", [0.0, -0.2, 1.0001])
    def test_theta_validation(self, theta: float) -> None:
        with pytest.raises(DomainError):
            pcr_risk(ModelSpec(2.0, 0.1, ALIGNED_TWO_POINT), theta)

    def test_tied_levels_are_listing_order_invariant(self) -> None:
        atoms = [(2.0, 2.0 / 3.0, 0.2), (0.2, 11.0 / 30.0, 0.6), (0.2, 1.0 / 15.0, 0.2)]
        base = ModelSpec(2.0, 0.05, JointSpectrum(atoms))
        flipped = ModelSpec(2.0, 0.05, JointSpectrum([atoms[0], atoms[2], atoms[1]]))
        for theta in (0.3, 0.55, 0.8, 1.0):
            if abs(theta * 2.0 - 1.0) < 1e-6:
                continue
            assert pcr_risk(base, theta).total == pytest.approx(
                pcr_risk(flipped, theta).total, rel=1e-12
            )

    @pytest.mark.parametrize("model, thetas", [
        *((ModelSpec.with_snr(5.0, 50.0, recipe_spectrum(key)), (0.21, 0.3, 0.5, 0.75, 1.0))
          for key in ("fig7-aligned", "fig7-misaligned", "fig7-other")),
        (ModelSpec(2.0, 0.05, JointSpectrum([(2.0, 2.0 / 3.0, 0.2), (0.2, 1.0 / 15.0, 0.2), (0.2, 11.0 / 30.0, 0.6)])),
         (0.55, 0.8, 1.0)),
    ], ids=["fig7-aligned", "fig7-misaligned", "fig7-other", "tied-levels"])
    def test_grouped_form_matches_the_display_form(self, model: ModelSpec, thetas: tuple) -> None:
        for theta in thetas:
            assert_pcr_forms_agree(model, theta)

    def test_curve_matches_pointwise(self) -> None:
        model = ModelSpec(2.0, 0.1, ALIGNED_TWO_POINT)
        thetas = [0.3, 0.75, 1.0]
        for theta, row in zip(thetas, pcr_curve(model, thetas)):
            assert row.total == pcr_risk(model, theta).total
            assert row == pcr_risk(model, theta)  # bias and variance too, bit for bit

    def test_one_kernel_call_and_no_edge_search_per_curve(self, monkeypatch) -> None:
        calls = {"kernel": [], "edge": 0}
        kernel = stieltjes._newton_block

        def counting_kernel(gamma, h, w, target, *args):
            calls["kernel"].append(w.shape)
            return kernel(gamma, h, w, target, *args)

        def counting_edge(model):
            calls["edge"] += 1
            return stieltjes._edge(ModelSpec(model.gamma, 0.0, model.spectrum))

        monkeypatch.setattr(stieltjes, "_newton_block", counting_kernel)
        monkeypatch.setattr(stieltjes, "find_edge", counting_edge)
        model = ModelSpec.with_snr(5.0, 50.0, recipe_spectrum("fig7-other"))  # tied levels
        thetas = [0.05, 0.19, 0.2, 0.21, 0.3, 0.5, 0.6, 0.75, 1.0, 1.3]
        rows = pcr_curve(model, thetas)
        assert [type(row) for row in rows] == [RiskEvaluation] * 2 + [RegimeError] + [RiskEvaluation] * 6 + [DomainError]
        assert calls == {"kernel": [(6, 3)], "edge": 0}  # one row of kept weights per theta * gamma > 1

    def test_curve_keeps_each_points_error(self) -> None:
        rows = pcr_curve(ModelSpec(2.0, 0.1, ALIGNED_TWO_POINT), [0.5, 1.2, 0.75])
        assert [type(row) for row in rows] == [RegimeError, DomainError, RiskEvaluation]


class TestWeighted:
    def test_identity_penalty_reduces_to_plain(self) -> None:
        wspec = WeightedSpectrum([(1.0, 2.0, 1.0, 0.5), (4.0, 0.5, 4.0, 0.5)])
        plain = ModelSpec(2.0, 0.3, JointSpectrum([(1.0, 2.0, 0.5), (4.0, 0.5, 0.5)]))
        for lam in (0.1, 0.7):
            assert weighted_risk(wspec, 2.0, 0.3, lam).total == pytest.approx(
                asymptotic_risk(plain, lam).total, rel=1e-13
            )

    def test_penalty_scale_invariance(self) -> None:
        # scaling the penalty profile by c while scaling lambda by c is a no-op
        wspec = WeightedSpectrum([(1.0, 1.0, 0.5, 0.5), (4.0, 2.0, 3.0, 0.5)])
        c = 2.5
        scaled = wspec.with_r(wspec.r * c)
        a = weighted_risk(wspec, 2.0, 0.3, 0.7).total
        b = weighted_risk(scaled, 2.0, 0.3, 0.7 * c).total
        assert a == pytest.approx(b, rel=1e-12)

    def test_weighted_model_projection(self) -> None:
        wspec = WeightedSpectrum([(2.0, 3.0, 4.0, 1.0)])
        model = weighted_model(wspec, 2.0, 0.1)
        assert model.spectrum.h == pytest.approx([4.0])
        assert model.spectrum.g == pytest.approx([1.5])
        assert model.sigma2 == 0.1

    def test_interpolation_endpoints(self) -> None:
        wspec = WeightedSpectrum([(1.0, 2.0, 5.0, 0.5), (3.0, 1.0, 0.5, 0.5)])
        assert interpolate_penalty(wspec, 0.0).r == pytest.approx(wspec.r)
        assert interpolate_penalty(wspec, 1.0).r == pytest.approx(wspec.s * wspec.v)

    def test_interpolation_rejects_outside_unit_interval(self) -> None:
        wspec = WeightedSpectrum([(1.0, 2.0, 5.0, 1.0)])
        for alpha in (-0.1, 1.1):
            with pytest.raises(DomainError):
                interpolate_penalty(wspec, alpha)

    def test_alpha_path_consistency(self) -> None:
        wspec = WeightedSpectrum([(1.0, 1.0, 1.0, 0.75), (5.0, 25.0, 5.0, 0.25)])
        direct = weighted_risk(interpolate_penalty(wspec, 0.5), 2.0, 0.5, 0.3).total
        assert alpha_path_risk(wspec, 2.0, 0.5, 0.5, 0.3).total == pytest.approx(direct)

    def test_alpha_path_state_coordinates(self) -> None:
        wspec = WeightedSpectrum([(1.0, 1.0, 1.0, 0.75), (5.0, 25.0, 5.0, 0.25)])
        state = alpha_path_state(wspec, 2.0, 0.5, 1.0, 0.3)
        blended = interpolate_penalty(wspec, 1.0)
        sol = solve_m(weighted_model(blended, 2.0, 0.5), 0.3)
        assert state.r_alpha_atoms == pytest.approx(tuple(wspec.s * wspec.v))
        assert state.psi_atoms == pytest.approx(tuple(wspec.s * wspec.v * sol.m))
