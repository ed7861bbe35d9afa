"""Tests of the benchmark itself: generator, references and trace counts.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import ops  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7, count=200)
    assert first == workloads.generate(workload, 7, count=200)
    assert first != workloads.generate(workload, 8, count=200)
    json.dumps(first)  # ops are plain data, listable in the output


def test_generator_stays_inside_the_closed_form_bounds():
    for op in workloads.generate("curves", 3, count=500):
        if op["kind"] == "pcr-curve":
            assert all(0.0 < t <= 1.0 and abs(t * op["gamma"] - 1.0) >= 0.04 for t in op["grid"])
            continue
        bound = workloads.edge_bound(op["gamma"], workloads.GENERIC_C_LOWER[op["recipe"]])
        lams = op["grid"] if op["kind"] == "risk-curve" else [op["lam"]]
        assert min(lams) > -bound
        if op["kind"] == "solve-m" and op["gamma"] < 1.0:
            assert op["lam"] != 0.0
    for op in workloads.generate("mc-tall", 3, count=200):
        assert min(op.get("lams", [op.get("lam", 0.0)])) >= 0.0


def test_a_cli_usage_error_is_a_failed_op_not_an_exit():
    code, _ = ops.run_cli(["solve-m", "--recipe", "dc-dc", "--gamma", "abc", "--lambda", "1"])
    assert code != 0


def test_op_mixes_follow_their_stated_counts():
    for counts, pattern in ((workloads.OPTIMUM_COUNTS, workloads._OPTIMUM_PATTERN),
                            (workloads.CURVES_COUNTS, workloads._CURVES_PATTERN),
                            (workloads.MC_COUNTS, workloads._MC_PATTERN)):
        assert {kind: pattern.count(kind) for kind in counts} == counts
        assert len(pattern) == sum(counts.values())


def _isotropic_root(lam, gamma):
    """Principal root of ``lam m^2 + (lam + gamma - 1) m - 1 = 0``."""
    b = lam + gamma - 1.0
    if lam == 0.0:
        return 1.0 / b
    disc = math.sqrt(b * b + 4.0 * lam)
    roots = ((-b + disc) / (2.0 * lam), (-b - disc) / (2.0 * lam))
    if lam > 0.0:
        return max(roots)
    # negative lam: the smaller positive root above gamma = 1, the more
    # negative root below it (the branch on which m -> -inf as lam -> 0)
    return min(roots) if gamma < 1.0 else min(r for r in roots if r > 0.0)


@pytest.mark.parametrize("gamma, lams", [
    (2.0, [-0.15, -0.05, 0.0, 0.3, 1.0, 25.0]),
    (4.0, [-0.9, 0.0, 2.0]),
    (0.5, [-0.08, -0.01, 0.01, 1.0, 40.0]),
])
def test_reference_solver_matches_the_isotropic_root(gamma, lams):
    m = ref.solve_m(np.array([1.0]), np.array([1.0]), gamma, lams)
    expected = [_isotropic_root(lam, gamma) for lam in lams]
    np.testing.assert_allclose(m, expected, rtol=1e-13)


def test_reference_rejects_points_beyond_the_edge():
    with pytest.raises(ref.ReferenceDomainError):
        ref.solve_m(np.array([1.0]), np.array([1.0]), 2.0, [-0.2])  # edge at -(sqrt2-1)^2
    with pytest.raises(ref.ReferenceDomainError):
        ref.solve_m(np.array([1.0]), np.array([1.0]), 0.5, [0.0])


def test_reference_risk_matches_ridgelab_on_a_two_atom_law():
    from ridgelab import JointSpectrum, ModelSpec, asymptotic_risk, pcr_risk

    spec = JointSpectrum([(1.0, 1.0, 0.75), (5.0, 5.0, 0.25)])
    for gamma, lams in ((2.0, [-0.1, 0.0, 0.7]), (0.5, [-0.05, 0.0, 0.7])):
        total, bias, var = ref.risk(spec.h, spec.g, spec.w, gamma, 0.3, lams)
        for lam, t, b, v in zip(lams, total, bias, var):
            ev = asymptotic_risk(ModelSpec(gamma, 0.3, spec), lam)
            assert (ev.total, ev.bias, ev.variance) == pytest.approx((t, b, v), rel=1e-10, abs=1e-14)
    for theta in (0.2, 0.8):
        expected = pcr_risk(ModelSpec(2.0, 0.3, spec), theta)
        got = ref.pcr_risk(spec.h, spec.g, spec.w, 2.0, 0.3, theta)
        assert got == pytest.approx((expected.total, expected.bias, expected.variance), rel=1e-10)


@dataclass
class _FakeOpt:
    lambda_opt: float
    risk_at_opt: float
    domain: tuple


def test_checks_reject_a_wrong_answer():
    h, g, w = np.array([1.0, 5.0]), np.array([1.0, 5.0]), np.array([0.75, 0.25])
    op = {"gamma": 2.0, "sigma2": 0.0}
    lam = -0.2
    risk = float(ref.risk(h, g, w, 2.0, 0.0, [lam])[0][0])
    assert ops._check_optimum(op, (h, g, w), _FakeOpt(lam, risk * (1 + 1e-8), (-0.3, 10.0)))
    # the true risk at a non-optimal penalty fails the neighbour check
    lam_off = 0.5
    risk_off = float(ref.risk(h, g, w, 2.0, 0.0, [lam_off])[0][0])
    assert ops._check_optimum(op, (h, g, w), _FakeOpt(lam_off, risk_off, (-0.3, 10.0)))


def test_dense_monte_carlo_reference_matches_ridgelab():
    from ridgelab import MatrixEnsemble, MonteCarloConfig, pcr_estimator_risk, simulate

    rng = np.random.default_rng(0)
    for n, p in ((40, 80), (80, 40)):
        ens = MatrixEnsemble(n=n, p=p, d_x=rng.uniform(1, 5, p), d_beta=rng.uniform(1, 3, p),
                             d_w=np.ones(p))
        config = MonteCarloConfig(replicates=1, master_seed=11)
        lams = [0.0, 0.3] if p < n else [-0.05, 0.0, 0.3]
        rows = simulate(ens, lams, 0.5, config)
        x, _ = ref.design(ens.d_x, n, 11)
        for row, lam in zip(rows, lams):
            var, bias = ref.conditional_risk(x, ens.d_x, ens.d_beta, ens.d_w, lam, 0.5)
            assert row["mc_mean"] == pytest.approx(var + bias, rel=ops.MC_RTOL)
        mean, _ = pcr_estimator_risk(ens, 0.3, 0.5, config)
        assert mean == pytest.approx(ref.pcr_conditional_risk(ens.d_x, ens.d_beta, n, 11, 0.3, 0.5),
                                     rel=ops.MC_RTOL)


_COUNT_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import ops, tracing, workloads
op_list = {op_list!r}
for i, op in enumerate(op_list):
    op["id"] = i
prepared = ops.Prepared({workload!r}, 5)
tracer = tracing.Tracer()
tracer.install()
for op in op_list:
    call, _ = prepared.build(op)
    tracer.op = op["id"]
    call()
tracer.op = None
tracer.uninstall()
metrics = tracing.layer_metrics(tracer, len(op_list), [], 1.0)
print(json.dumps({{k: v[0] for k, v in metrics.items()}}))
"""


def _trace_counts(workload, op_list):
    """Per-layer metrics of ``op_list`` traced in a fresh interpreter, so
    that no cache of an earlier call changes the counts."""
    code = _COUNT_SCRIPT.format(src=str(SRC), bench=str(BENCH), workload=workload, op_list=op_list)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


DETERMINISTIC = ("stieltjes.lambda_of_m.calls", "optimize.solves_per_search", "linalg.eigh.order_mean")


@pytest.mark.parametrize("workload", ["optimum", "mc-wide"])
def test_deterministic_counts_repeat_for_a_fixed_seed(workload):
    op_list = workloads.generate(workload, 21, count=3)
    first, second = _trace_counts(workload, op_list), _trace_counts(workload, op_list)
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
