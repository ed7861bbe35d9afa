from __future__ import annotations

import math

import numpy as np
import pytest

from ridgelab import (
    IllConditionedDraw,
    JointSpectrum,
    MatrixEnsemble,
    ModelSpec,
    MonteCarloConfig,
    WeightedSpectrum,
    asymptotic_risk,
    conditional_risk,
    conditional_risk_curve,
    estimator_risk_empirical,
    find_edge,
    pcr_estimator_risk,
    pcr_risk,
    replicate_rng,
    sample_design,
    simulate,
)
from ridgelab.montecarlo import proportional_counts

TWO_POINT = JointSpectrum([(1.0, 1.0, 0.75), (5.0, 5.0, 0.25)])


class TestProportionalCounts:
    def test_exact_division(self) -> None:
        assert list(proportional_counts(np.array([0.5, 0.5]), 4)) == [2, 2]

    def test_largest_remainder(self) -> None:
        assert list(proportional_counts(np.array([0.7, 0.3]), 11)) == [8, 3]

    def test_remainder_tie_goes_to_the_last_atom(self) -> None:
        assert list(proportional_counts(np.array([0.75, 0.25]), 10)) == [7, 3]

    def test_total_is_preserved(self) -> None:
        counts = proportional_counts(np.array([0.4, 0.35, 0.25]), 7)
        assert counts.sum() == 7


class TestMatrixEnsemble:
    def test_from_joint_expansion(self) -> None:
        ens = MatrixEnsemble.from_joint(TWO_POINT, 4, 8)
        assert list(ens.d_x) == [1.0] * 6 + [5.0] * 2
        assert list(ens.d_beta) == [1.0] * 6 + [5.0] * 2
        assert list(ens.d_w) == [1.0] * 8
        assert ens.gamma == 2.0

    def test_from_weighted_penalty_weights(self) -> None:
        wspec = WeightedSpectrum([(2.0, 3.0, 4.0, 1.0)])
        ens = MatrixEnsemble.from_weighted(wspec, 2, 3)
        assert list(ens.d_x) == [2.0] * 3
        assert list(ens.d_beta) == [3.0] * 3
        assert list(ens.d_w) == [0.5] * 3

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            MatrixEnsemble(n=2, p=3, d_x=np.ones(2), d_beta=np.ones(3), d_w=np.ones(3))
        with pytest.raises(ValueError):
            MatrixEnsemble(n=2, p=2, d_x=np.array([1.0, 0.0]), d_beta=np.ones(2), d_w=np.ones(2))
        with pytest.raises(ValueError):
            MatrixEnsemble(n=2, p=2, d_x=np.ones(2), d_beta=np.array([1.0, -1.0]), d_w=np.ones(2))
        with pytest.raises(ValueError):
            MatrixEnsemble(n=0, p=2, d_x=np.ones(2), d_beta=np.ones(2), d_w=np.ones(2))


class TestRngAndDeterminism:
    def test_replicate_rng_is_stream_keyed(self) -> None:
        a = replicate_rng(123, 0).standard_normal(4)
        b = replicate_rng(123, 0).standard_normal(4)
        c = replicate_rng(123, 1).standard_normal(4)
        assert a == pytest.approx(b)
        assert np.any(a != c)

    def test_sample_design_scale(self) -> None:
        ens = MatrixEnsemble.from_joint(TWO_POINT, 2000, 4000)
        x = sample_design(ens, replicate_rng(5, 0))
        col_ss = (x**2).sum(axis=0)
        assert float(col_ss[:3000].mean()) == pytest.approx(1.0, rel=0.05)
        assert float(col_ss[3000:].mean()) == pytest.approx(5.0, rel=0.05)

    def test_simulate_is_deterministic(self) -> None:
        ens = MatrixEnsemble.from_joint(TWO_POINT, 30, 60)
        config = MonteCarloConfig(replicates=3, master_seed=42)
        a = simulate(ens, [0.2, 1.0], 0.25, config)
        b = simulate(ens, [0.2, 1.0], 0.25, config)
        assert a == b


class TestConditionalRisk:
    def test_matches_direct_formula(self) -> None:
        # independent evaluation straight from the resolvent, no eigenbasis
        ens = MatrixEnsemble.from_joint(TWO_POINT, 20, 40)
        x = sample_design(ens, replicate_rng(3, 0))
        lam, sigma2 = 0.4, 0.3
        variance, bias = conditional_risk(ens, lam, sigma2, x)
        inv = np.linalg.inv(x.T @ x + lam * np.eye(ens.p))
        shrink = np.eye(ens.p) - inv @ (x.T @ x)
        sx = np.diag(ens.d_x / ens.n)
        bias_direct = float(np.trace(shrink.T @ sx @ shrink @ np.diag(ens.d_beta)))
        var_direct = sigma2 * (1.0 + float(np.trace(inv @ (x.T @ x) @ inv @ sx)))
        assert bias == pytest.approx(bias_direct, rel=1e-9)
        assert variance == pytest.approx(var_direct, rel=1e-9)

    def test_guard_band_rejection(self) -> None:
        ens = MatrixEnsemble(n=2, p=2, d_x=np.ones(2), d_beta=np.ones(2), d_w=np.ones(2))
        x = np.diag([math.sqrt(0.5), math.sqrt(0.7)])
        with pytest.raises(IllConditionedDraw):
            conditional_risk(ens, -0.5, 0.1, x)

    def test_curve_marks_rejections_as_none(self) -> None:
        ens = MatrixEnsemble(n=2, p=2, d_x=np.ones(2), d_beta=np.ones(2), d_w=np.ones(2))
        x = np.diag([math.sqrt(0.5), math.sqrt(0.7)])
        out = conditional_risk_curve(ens, [-0.5, 0.3], 0.1, x)
        assert out[0] is None
        assert out[1] is not None


class TestSimulateAgainstTheory:
    def test_two_point_grid(self) -> None:
        model = ModelSpec(2.0, 0.25, TWO_POINT)
        ens = MatrixEnsemble.from_joint(TWO_POINT, 200, 400)
        rows = simulate(ens, [0.0, 0.3], 0.25, MonteCarloConfig(replicates=20, master_seed=7))
        for row in rows:
            theory = asymptotic_risk(model, row["lam"]).total
            assert row["dropped"] == 0
            assert abs(row["mc_mean"] - theory) / theory < 0.02

    def test_moderate_negative_lambda(self) -> None:
        model = ModelSpec(2.0, 0.25, TWO_POINT)
        ens = MatrixEnsemble.from_joint(TWO_POINT, 200, 400)
        lam = -0.5 * find_edge(model).c0_effective
        rows = simulate(ens, [lam], 0.25, MonteCarloConfig(replicates=20, master_seed=7))
        theory = asymptotic_risk(model, lam).total
        assert rows[0]["dropped"] == 0
        assert abs(rows[0]["mc_mean"] - theory) / theory < 0.05

    def test_deep_negative_lambda_rarely_drops(self) -> None:
        # accuracy degrades near the branch edge at finite n, but the guard
        # band should almost never trigger
        model = ModelSpec(2.0, 0.25, TWO_POINT)
        ens = MatrixEnsemble.from_joint(TWO_POINT, 200, 400)
        lam = -0.9 * find_edge(model).c0_effective
        rows = simulate(ens, [lam], 0.25, MonteCarloConfig(replicates=20, master_seed=7))
        assert rows[0]["dropped"] <= 1

    def test_underparameterized_ridgeless(self) -> None:
        iso = JointSpectrum([(1.0, 1.0, 1.0)])
        ens = MatrixEnsemble.from_joint(iso, 400, 200)
        rows = simulate(ens, [0.0], 0.25, MonteCarloConfig(replicates=20, master_seed=7))
        theory = asymptotic_risk(ModelSpec(0.5, 0.25, iso), 0.0).total
        assert abs(rows[0]["mc_mean"] - theory) / theory < 0.02


class TestEstimatorOracle:
    def test_single_replicate_matches_hand_fit(self) -> None:
        # regenerate the replicate's design and redo the fit with plain solves
        ens = MatrixEnsemble.from_joint(TWO_POINT, 24, 48)
        lam, seed = 0.35, 99
        config = MonteCarloConfig(replicates=1, master_seed=seed, prior="fixed_beta")
        mean, _, dropped = estimator_risk_empirical(ens, lam, 0.0, config)
        assert dropped == 0
        x = sample_design(ens, replicate_rng(seed, 0))
        beta = np.sqrt(ens.d_beta)
        betahat = np.linalg.solve(x.T @ x + lam * np.diag(ens.d_w), x.T @ (x @ beta))
        delta = beta - betahat
        expected = float(np.dot(delta * ens.d_x, delta)) / ens.n
        assert mean == pytest.approx(expected, rel=1e-9)

    def test_ridgeless_uses_min_norm_interpolator(self) -> None:
        ens = MatrixEnsemble.from_joint(TWO_POINT, 24, 48)
        seed = 99
        config = MonteCarloConfig(replicates=1, master_seed=seed, prior="fixed_beta")
        mean, _, _ = estimator_risk_empirical(ens, 0.0, 0.0, config)
        x = sample_design(ens, replicate_rng(seed, 0))
        beta = np.sqrt(ens.d_beta)
        betahat = np.linalg.pinv(x) @ (x @ beta)
        delta = beta - betahat
        expected = float(np.dot(delta * ens.d_x, delta)) / ens.n
        assert mean == pytest.approx(expected, rel=1e-8)

    def test_agrees_with_conditional_average(self) -> None:
        ens = MatrixEnsemble.from_joint(TWO_POINT, 100, 200)
        config = MonteCarloConfig(replicates=30, master_seed=17)
        mean, se, dropped = estimator_risk_empirical(ens, 0.5, 0.25, config)
        rows = simulate(ens, [0.5], 0.25, config)
        assert dropped == 0
        # the fitted oracle resamples coefficients and noise, so compare loosely
        assert mean == pytest.approx(rows[0]["mc_mean"], rel=0.1)

    def test_config_validation(self) -> None:
        with pytest.raises(ValueError):
            MonteCarloConfig(replicates=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(prior="lasso")


class TestPcrEstimator:
    def test_matches_theory_away_from_boundary(self) -> None:
        model = ModelSpec(2.0, 0.25, TWO_POINT)
        ens = MatrixEnsemble.from_joint(TWO_POINT, 200, 400)
        config = MonteCarloConfig(replicates=12, master_seed=11)
        for theta in (0.75, 0.9):
            mean, _ = pcr_estimator_risk(ens, theta, 0.25, config)
            theory = pcr_risk(model, theta).total
            assert abs(mean - theory) / theory < 0.05

    def test_boundary_spike(self) -> None:
        ens = MatrixEnsemble.from_joint(TWO_POINT, 200, 400)
        config = MonteCarloConfig(replicates=12, master_seed=11)
        mid, _ = pcr_estimator_risk(ens, 0.5, 0.25, config)
        lo, _ = pcr_estimator_risk(ens, 0.4, 0.25, config)
        hi, _ = pcr_estimator_risk(ens, 0.6, 0.25, config)
        assert mid > 2.0 * lo
        assert mid > 2.0 * hi

    def test_theta_validation(self) -> None:
        ens = MatrixEnsemble.from_joint(TWO_POINT, 10, 20)
        with pytest.raises(ValueError):
            pcr_estimator_risk(ens, 0.0, 0.1, MonteCarloConfig(replicates=1))
