from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from ridgelab import optimize, risk, stieltjes
from ridgelab import (
    DomainError,
    JointSpectrum,
    ModelSpec,
    RegimeError,
    SolverError,
    TwoPointSpec,
    WeightedSpectrum,
    classify_sign,
    conditional_means,
    find_edge,
    lambda_opt_closed_form,
    lambda_opt_search,
    monotonicity_sweep,
    negative_ridge_threshold,
    point_mass,
    recipe_spectrum,
    regime_guard,
    risk_curve,
    select_weighting,
    weighted_lambda_opt,
)

from oracles import loop_conditional_means

ALIGNED = JointSpectrum([(1.0, 1.0, 0.75), (5.0, 5.0, 0.25)])
MISALIGNED = JointSpectrum([(1.0, 5.0, 0.75), (5.0, 1.0, 0.25)])
FLAT = JointSpectrum([(1.0, 2.75, 0.75), (5.0, 2.75, 0.25)])


class TestConditionalMeans:
    def test_groups_tied_levels(self) -> None:
        spec = JointSpectrum([(1.0, 0.0, 0.25), (2.0, 1.0, 0.5), (1.0, 2.0, 0.25)])
        levels, means, masses = conditional_means(spec)
        assert levels == pytest.approx([1.0, 2.0])
        assert means == pytest.approx([1.0, 1.0])
        assert masses == pytest.approx([0.5, 0.5])

    def test_levels_ascend(self) -> None:
        spec = JointSpectrum([(5.0, 1.0, 0.3), (0.5, 2.0, 0.4), (2.0, 3.0, 0.3)])
        levels, _, _ = conditional_means(spec)
        assert list(levels) == sorted(levels)

    # near ties: a chain 1, 1 + 6e-13, 1 + 1.2e-12 longer than one level;
    # absolute ties below 1; relative ties at 1e6; exact repeats
    NEAR_TIED = [1.0, 1.0 + 6e-13, 1.0 + 1.2e-12, 1.0 + 1.8e-12, 1.0 + 3e-12, 1e-13, 5e-13, 1.2e-12,
                 1e6, 1e6 * (1.0 + 9e-13), 1e6 * (1.0 + 1.1e-12), 2.0, 2.0, 2.0 + 4e-12, 3.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_loop_on_near_tied_levels(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        h = rng.permutation(self.NEAR_TIED)
        w = rng.uniform(0.1, 1.0, h.size)
        spec = JointSpectrum(np.column_stack([h, rng.uniform(0.0, 3.0, h.size), w / w.sum()]))
        for got, want in zip(conditional_means(spec), loop_conditional_means(spec)):
            np.testing.assert_array_equal(got, want)

    def test_matches_the_loop_on_a_recipe(self) -> None:
        spec = recipe_spectrum("ct-ct", relation="random", n_atoms=2048)
        for got, want in zip(conditional_means(spec), loop_conditional_means(spec)):
            np.testing.assert_array_equal(got, want)


class TestClassifySign:
    def test_table(self) -> None:
        cases = [
            (ALIGNED, 0.0, "negative"),
            (ALIGNED, 0.5, "indeterminate"),
            (MISALIGNED, 0.0, "positive"),
            (MISALIGNED, 0.5, "positive"),
            (FLAT, 0.0, "zero"),
            (FLAT, 0.5, "positive"),
        ]
        for spec, sigma2, expected in cases:
            assert classify_sign(ModelSpec(2.0, sigma2, spec)) == expected

    def test_non_monotone_profile(self) -> None:
        spec = JointSpectrum([(1.0, 1.0, 0.3), (2.0, 5.0, 0.4), (3.0, 2.0, 0.3)])
        assert classify_sign(ModelSpec(2.0, 0.0, spec)) == "indeterminate"

    def test_tied_levels_average_before_classifying(self) -> None:
        spec = JointSpectrum([(1.0, 0.0, 0.25), (1.0, 2.0, 0.25), (2.0, 1.0, 0.5)])
        assert classify_sign(ModelSpec(2.0, 0.0, spec)) == "zero"


class TestClosedForm:
    def test_flat_profile_value(self) -> None:
        model = ModelSpec(2.0, 0.5, FLAT)
        out = lambda_opt_closed_form(model)
        assert out is not None
        assert out.lambda_opt == pytest.approx(0.5 / 2.75, abs=1e-15)
        assert out.method == "closed_form"
        assert out.sign_class == "positive"

    def test_flat_profile_with_mixed_g_atoms(self) -> None:
        # distinct g values whose conditional means agree level by level
        spec = JointSpectrum(
            [(1.0, 0.5, 0.25), (1.0, 1.5, 0.25), (2.0, 0.5, 0.25), (2.0, 1.5, 0.25)]
        )
        out = lambda_opt_closed_form(ModelSpec(2.0, 0.3, spec))
        assert out is not None
        assert out.lambda_opt == pytest.approx(0.3, abs=1e-15)

    def test_structured_profile_returns_none(self) -> None:
        assert lambda_opt_closed_form(ModelSpec(2.0, 0.5, ALIGNED)) is None

    def test_noiseless_flat_is_zero(self) -> None:
        out = lambda_opt_closed_form(ModelSpec(0.5, 0.0, FLAT))
        assert out is not None
        assert out.lambda_opt == 0.0
        assert out.risk_at_opt == 0.0
        assert out.sign_class == "zero"

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 3.0])
    def test_search_agrees_with_closed_form(self, gamma: float) -> None:
        model = ModelSpec(gamma, 0.4, FLAT)
        closed = lambda_opt_closed_form(model)
        search = lambda_opt_search(model)
        assert closed is not None
        assert search.lambda_opt == pytest.approx(closed.lambda_opt, abs=1e-6)
        assert search.risk_at_opt <= closed.risk_at_opt + 1e-10


class TestSearch:
    def test_aligned_noiseless_goes_negative(self) -> None:
        out = lambda_opt_search(ModelSpec(2.0, 0.0, ALIGNED))
        assert out.lambda_opt == pytest.approx(-0.1015509043604016, abs=1e-8)
        assert out.lambda_opt < -1e-3
        assert out.sign_class == "negative"
        assert out.method == "derivative_root"

    def test_misaligned_noiseless_goes_positive(self) -> None:
        out = lambda_opt_search(ModelSpec(2.0, 0.0, MISALIGNED))
        assert out.lambda_opt == pytest.approx(0.11646834953725388, abs=1e-8)
        assert out.lambda_opt > 1e-3
        assert out.sign_class == "positive"

    def test_flat_noiseless_sits_at_zero(self) -> None:
        out = lambda_opt_search(ModelSpec(2.0, 0.0, FLAT))
        assert abs(out.lambda_opt) <= 1e-6
        assert out.sign_class == "zero"

    def test_isotropic_quarter_noise(self) -> None:
        out = lambda_opt_search(ModelSpec(2.0, 0.25, point_mass(1.0)))
        assert out.lambda_opt == pytest.approx(0.25, abs=1e-6)
        assert out.risk_at_opt == pytest.approx(1.4253905296791065, rel=1e-10)

    def test_underparameterized_search(self) -> None:
        out = lambda_opt_search(ModelSpec(0.5, 0.4, FLAT))
        assert out.lambda_opt == pytest.approx(0.4 / 2.75, abs=1e-6)
        assert out.domain[0] == 0.0

    def test_domain_respects_edge(self) -> None:
        model = ModelSpec(2.0, 0.0, ALIGNED)
        out = lambda_opt_search(model)
        edge = find_edge(model)
        assert out.domain[0] == pytest.approx(-edge.c0_effective * (1.0 - 1e-3))
        assert out.lambda_opt > out.domain[0]

    def test_flat_signal_above_the_cap_returns_the_closed_form(self) -> None:
        # sigma2 / E[g] = 1000 lies far above the scale sigma2 + gamma E[gh] = 1.002
        out = lambda_opt_search(ModelSpec(2.0, 1.0, point_mass(1.0, 0.001)))
        assert out.domain[1] == math.inf
        assert out.lambda_opt == pytest.approx(1000.0, rel=1e-12)
        assert (out.method, out.sign_class) == ("closed_form", "positive")

    def test_flat_optimum_far_below_gamma_e_h_returns_the_closed_form(self, monkeypatch) -> None:
        # lambda(m) cancels terms of size gamma E[h] = 1.5e9, so the search fixes
        # lambda_opt = 1.0573e-3 to about 1.5e-5, not to the 1e-6 of the check alone
        model = ModelSpec(20.0, 1.0, point_mass(74108375.84, 945.81))
        out = lambda_opt_search(model)
        assert (out.method, out.sign_class) == ("closed_form", "positive")
        assert out.lambda_opt == pytest.approx(1.0 / 945.81, rel=1e-12)
        # a closed form off by 1e-4 still fails the check
        wrong = dataclasses.replace(lambda_opt_closed_form(model), lambda_opt=out.lambda_opt + 1e-4)
        monkeypatch.setattr(optimize, "lambda_opt_closed_form", lambda model: wrong)
        with pytest.raises(SolverError, match="disagrees with the applicable closed form"):
            lambda_opt_search(model)

    def test_closed_form_inside_the_domain_is_cross_checked(self, monkeypatch) -> None:
        model = ModelSpec(2.0, 0.4, FLAT)
        wrong = dataclasses.replace(lambda_opt_closed_form(model), lambda_opt=1.0)
        monkeypatch.setattr(optimize, "lambda_opt_closed_form", lambda model: wrong)
        with pytest.raises(SolverError, match="disagrees with the applicable closed form"):
            lambda_opt_search(model)

    @pytest.mark.parametrize("sigma2", [0.0, 1.0])
    def test_zero_signal_has_no_finite_optimum(self, sigma2: float) -> None:
        model = ModelSpec(2.0, sigma2, point_mass(1.0, 0.0))
        for search in (lambda_opt_search, lambda_opt_closed_form,
                       lambda model: monotonicity_sweep(model.spectrum, model.sigma2, [0.5])):
            with pytest.raises(DomainError, match="not finite without signal"):
                search(model)

    def test_clipped_optimum_far_above_the_scale(self) -> None:
        # the optimum lam = 1e8 lies 7 decades above sigma2 + gamma E[gh] = 2;
        # its risk is the golden ratio
        spec = JointSpectrum([(1e-8, 1e8, 0.5), (1e8, 1e-8, 0.5)])
        out = lambda_opt_search(ModelSpec(2.0, 0.0, spec))
        assert out.lambda_opt == pytest.approx(1e8, rel=1e-8)
        assert out.risk_at_opt == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-10)
        assert (out.method, out.sign_class, out.domain[1]) == ("derivative_root", "positive", math.inf)

    @pytest.mark.parametrize("atoms, gamma, window", [
        # E[g h] ~ 2.5e5 puts 1e-8 (sigma2 + gamma E[g h]) far above the optimum
        ([(4.65e-6, 1792.0, 0.325), (5.67e5, 5.3, 0.084), (7.4e-7, 0.0455, 0.144),
          (1.49e-8, 3075.0, 0.21), (6.6e-4, 0.0, 0.061), (3.59e-4, 0.0, 0.176)], 1.1, (1e-7, 1e-6)),
        ([(1e-8, 0.0, 0.5), (1e6, 1e3, 0.5)], 0.5, (1e-5, 1e-3)),
    ])
    def test_optimum_far_below_the_scale(self, atoms, gamma: float, window) -> None:
        model = ModelSpec(gamma, 1e-3, JointSpectrum(atoms))
        out = lambda_opt_search(model)
        lams = np.geomspace(1e-10, 1e-1, 3000)
        assert out.risk_at_opt <= min(ev.total for ev in risk_curve(model, lams)) * (1.0 + 1e-12)
        assert window[0] < out.lambda_opt < window[1]
        assert (out.method, out.sign_class) == ("derivative_root", "positive")

    def test_ridgeless_endpoint_has_its_own_method(self) -> None:
        # noiseless below gamma = 1: interpolation reaches risk 0 at lam = 0
        out = lambda_opt_search(ModelSpec(0.5, 0.0, ALIGNED))
        assert (out.lambda_opt, out.risk_at_opt) == (0.0, 0.0)
        assert (out.method, out.sign_class, out.domain) == ("endpoint", "zero", (0.0, math.inf))

    def test_optimum_beyond_the_scan_is_a_domain_error(self) -> None:
        # the optimum is near sigma2 / E[g] ~ 1e160, past lam = 1e150
        with pytest.raises(DomainError, match="beyond lam = 1e150"):
            lambda_opt_search(ModelSpec(2.0, 1e160, ALIGNED))

    @pytest.mark.parametrize("model", [
        ModelSpec(2.0, 0.0, recipe_spectrum("fig4-twopoint", alpha=1.0)),
        ModelSpec(4.0, 0.5, recipe_spectrum("ct-dc", relation="aligned", n_atoms=256)),
        ModelSpec(0.5, 0.3, ALIGNED),
        ModelSpec(0.5, 0.0, ALIGNED),
    ])
    def test_one_grid_solve_of_at_most_two_rows(self, monkeypatch, model) -> None:
        # the scan runs in m: the fixed point is solved at lam = lo and 0 at
        # most, in one call, and nowhere else
        calls = {"solve_m_grid": [], "solve_m": [], "solve_m_rows": []}

        def counted(name, original):
            def wrapper(model, lams):
                calls[name].append(len(lams) if name != "solve_m" else 1)
                return original(model, lams)
            return wrapper

        wrappers = {name: counted(name, getattr(stieltjes, name)) for name in calls}
        for module in (stieltjes, risk, optimize):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrappers[name])
        out = lambda_opt_search(model)
        assert out.method in ("derivative_root", "endpoint")
        assert calls["solve_m_grid"] == ([2] if model.gamma > 1.0 else [])
        assert calls["solve_m"] == calls["solve_m_rows"] == []


class TestRegimeGuard:
    def test_critical_ratio_rejected(self) -> None:
        with pytest.raises(RegimeError):
            regime_guard(ModelSpec(1.0, 0.1, FLAT))

    def test_underparameterized_interval(self) -> None:
        lo, hi = regime_guard(ModelSpec(0.5, 0.1, FLAT))
        assert lo == 0.0
        assert hi > 0.0

    def test_overparameterized_interval(self) -> None:
        model = ModelSpec(2.0, 0.1, point_mass(1.0))
        lo, _ = regime_guard(model)
        edge = find_edge(model)
        assert lo == pytest.approx(-edge.c0_effective * (1.0 - 1e-3))


class TestNegativeRidgeThreshold:
    def test_reference_value(self) -> None:
        spec = TwoPointSpec(q=0.5, h1=2.0, g1=2.0, gamma=4.0)
        assert negative_ridge_threshold(spec) == pytest.approx(0.313953488372093, rel=1e-12)

    def test_small_spike_uses_single_branch(self) -> None:
        # gamma * q < 1 keeps only the second branch of the inner maximum
        spec = TwoPointSpec(q=0.2, h1=2.0, g1=2.0, gamma=4.0)
        q, h1, g1, gamma = 0.2, 2.0, 2.0, 4.0
        gbar = gamma - 1.0
        b2 = (
            gamma * q * (1.0 - q) * gbar**3
            / ((1.0 - q) * (h1 + gbar) ** 3 + q * h1**2 * gamma**3)
        )
        assert negative_ridge_threshold(spec) == pytest.approx((h1 - 1.0) * (g1 - 1.0) * h1 * b2)

    def test_below_threshold_prefers_negative(self) -> None:
        spec = TwoPointSpec(q=0.5, h1=2.0, g1=2.0, gamma=4.0)
        thr = negative_ridge_threshold(spec)
        out = lambda_opt_search(spec.model(0.5 * thr))
        assert out.lambda_opt < 0.0

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            TwoPointSpec(q=0.0, h1=2.0, g1=2.0, gamma=4.0)
        with pytest.raises(ValueError):
            TwoPointSpec(q=0.5, h1=1.0, g1=2.0, gamma=4.0)
        with pytest.raises(ValueError):
            TwoPointSpec(q=0.5, h1=2.0, g1=2.0, gamma=0.9)


class TestMonotonicitySweep:
    def test_rows_and_monotonicity(self) -> None:
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        rows = monotonicity_sweep(point_mass(1.0), 0.5, grid)
        assert [r[0] for r in rows] == grid
        assert rows[1][1] == pytest.approx(0.5 * 0.5 / 1.0)
        risks = [r[2] for r in rows]
        assert all(b >= a - 1e-10 for a, b in zip(risks[:-1], risks[1:]))

    def test_requires_flat_profile(self) -> None:
        with pytest.raises(DomainError):
            monotonicity_sweep(ALIGNED, 0.5, [0.5, 1.0])

    def test_noiseless_rows(self) -> None:
        rows = monotonicity_sweep(point_mass(1.0), 0.0, [0.25, 0.75])
        assert rows == [(0.25, 0.0, 0.0), (0.75, 0.0, 0.0)]

    def test_noiseless_overparameterized_rejected(self) -> None:
        with pytest.raises(DomainError):
            monotonicity_sweep(point_mass(1.0), 0.0, [0.5, 2.0])


class TestSelectWeighting:
    WSPEC = WeightedSpectrum(
        [(1.0, 1.0, 1.0, 0.25), (2.0, 1.0, 2.0, 0.25), (3.0, 1.0, 3.0, 0.25), (4.0, 5.0, 4.0, 0.25)]
    )

    def test_product_profiles(self) -> None:
        for mode in ("ridgeless_bias", "optimal_lambda"):
            assert select_weighting(self.WSPEC, mode) == pytest.approx(
                self.WSPEC.s * self.WSPEC.v
            )

    def test_variance_profile_is_flat(self) -> None:
        assert select_weighting(self.WSPEC, "ridgeless_variance") == pytest.approx(
            np.ones(4)
        )

    def test_design_measurable_profile_groups_levels(self) -> None:
        wspec = WeightedSpectrum(
            [(1.0, 1.0, 9.0, 0.25), (1.0, 3.0, 9.0, 0.25), (2.0, 5.0, 9.0, 0.5)]
        )
        r = select_weighting(wspec, "s_only_optimal")
        assert r == pytest.approx([2.0, 2.0, 10.0])

    def test_design_measurable_profile_uses_the_levels_of_conditional_means(self) -> None:
        rng = np.random.default_rng(7)
        s = rng.permutation(TestConditionalMeans.NEAR_TIED)
        w = rng.uniform(0.1, 1.0, s.size)
        wspec = WeightedSpectrum(np.column_stack([s, rng.uniform(0.5, 3.0, s.size), np.ones(s.size), w / w.sum()]))
        levels, means, _ = loop_conditional_means(JointSpectrum(np.column_stack([wspec.s, wspec.v, wspec.w])))
        level = np.searchsorted(levels, wspec.s, side="right") - 1
        np.testing.assert_array_equal(select_weighting(wspec, "s_only_optimal"), wspec.s * means[level])

    def test_unknown_mode(self) -> None:
        with pytest.raises(DomainError):
            select_weighting(self.WSPEC, "banana")


class TestWeightedLambdaOpt:
    def test_product_penalty_flattens_the_problem(self) -> None:
        wspec = TestSelectWeighting.WSPEC
        out = weighted_lambda_opt(wspec.with_r(wspec.s * wspec.v), 2.0, 1.0)
        # projected signal profile is flat at 1, so the optimum is sigma2
        assert out.lambda_opt == pytest.approx(1.0, abs=1e-6)
        assert out.risk_at_opt == pytest.approx(5.122546196704397, rel=1e-9)

    def test_product_penalty_beats_plain(self) -> None:
        wspec = TestSelectWeighting.WSPEC
        best = weighted_lambda_opt(wspec.with_r(wspec.s * wspec.v), 2.0, 1.0)
        plain = weighted_lambda_opt(wspec, 2.0, 1.0)
        assert best.risk_at_opt <= plain.risk_at_opt + 1e-9
