"""Turning generated ops into ridgelab calls, and checking their outputs.

``Prepared`` builds the program inputs every op of a workload draws on
(spectra, ensembles) during set-up.  ``Prepared.build`` turns one op into a
zero-argument call, which makes the one timed ridgelab call through the
module attribute a user would call, plus the inputs its check needs.
``check`` compares the op's output with the independent references in
:mod:`reference`, outside the timed region, and returns a failure message
or None.
"""

import contextlib
import csv
import io
import math

import numpy as np

import reference as ref
import workloads
from ridgelab import cli, montecarlo, optimize, recipes, spectra

THEORY_RTOL = 1e-10  # theory values against the reference fixed point
MC_RTOL = 1e-9  # eigendecomposition vs dense solve, per replicate

PROFILES = {
    "design": lambda s, v: np.ones_like(s),
    "signal": lambda s, v: s / v,
    "identity": lambda s, v: s,
    "inverse-design": lambda s, v: s**2,
    "inverse-signal": lambda s, v: s * v,
    "signal-product": lambda s, v: s * v,
}


class Prepared:
    """Spectra and ensembles of one workload, built once during set-up."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self._spectra = {}
        self._ensembles = {}
        self.build = {"optimum": self._optimum, "curves": self._curves}.get(workload, self._mc)
        for recipe, relation, n_atoms, alpha in workloads.recipe_inputs(workload):
            if workload == "optimum":
                self.spectrum(recipe, relation, n_atoms, alpha)
            else:
                n, p = workloads.MC_SHAPES[workload]
                self._ensembles[(recipe, relation)] = recipes.recipe_ensemble(
                    recipe, n, p, master_seed=seed, relation=relation)

    def spectrum(self, recipe, relation=None, n_atoms=2048, alpha=None):
        key = (recipe, relation, n_atoms, alpha)
        if key not in self._spectra:
            self._spectra[key] = recipes.recipe_spectrum(recipe, relation=relation, n_atoms=n_atoms,
                                                         alpha=alpha)
        return self._spectra[key]

    def _optimum(self, op):
        spec = self.spectrum(op["recipe"], op.get("relation"), op.get("n_atoms", 2048), op.get("alpha"))
        gamma, sigma2 = op["gamma"], op["sigma2"]
        if op["kind"] == "weighted_lambda_opt":
            if "profile" in op:
                spec = spec.with_r(PROFILES[op["profile"]])
            atoms = (spec.r, spec.s * spec.v / spec.r, spec.w)
            return (lambda: optimize.weighted_lambda_opt(spec, gamma, sigma2)), atoms
        model = spectra.ModelSpec(gamma, sigma2, spec)
        return (lambda: optimize.lambda_opt_search(model)), (spec.h, spec.g, spec.w)

    def _curves(self, op):
        argv = op["argv"]
        return (lambda: run_cli(argv)), None

    def _mc(self, op):
        ens = self._ensembles[(op["recipe"], op["relation"])]
        config = montecarlo.MonteCarloConfig(replicates=1, master_seed=op["seed"])
        sigma2 = op["sigma2"]
        if op["kind"] == "simulate":
            lams = op["lams"]
            return (lambda: montecarlo.simulate(ens, lams, sigma2, config)), ens
        if op["kind"] == "empirical":
            lam = op["lam"]
            return (lambda: montecarlo.estimator_risk_empirical(ens, lam, sigma2, config)), ens
        theta = op["theta"]
        return (lambda: montecarlo.pcr_estimator_risk(ens, theta, sigma2, config)), ens


def run_cli(argv):
    """One in-process CLI invocation: ``(exit code, stdout text)``.

    Usage errors leave ``cli.main`` through ``SystemExit``; they are an
    exit code like any other, not the end of the benchmark.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _close(value, expected, rtol, scale=None) -> bool:
    scale = abs(expected) if scale is None else scale
    return math.isfinite(value) and abs(value - expected) <= rtol * max(scale, 1e-300)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check(prepared: Prepared, op: dict, context, result):
    """Failure message for ``result`` of ``op``, or None when it is correct.

    ``context`` is the second item :meth:`Prepared.build` returned."""
    if prepared.workload == "optimum":
        return _check_optimum(op, context, result)
    if prepared.workload == "curves":
        return _check_curves(op, prepared, result)
    return _check_mc(op, context, result)


def _check_optimum(op, atoms, res):
    h, g, w = atoms
    gamma, sigma2 = op["gamma"], op["sigma2"]
    lam = res.lambda_opt
    expected = float(ref.risk(h, g, w, gamma, sigma2, [lam])[0][0])
    if not _close(res.risk_at_opt, expected, THEORY_RTOL):
        return f"risk_at_opt {res.risk_at_opt!r} != reference {expected!r} at lambda {lam!r}"
    slack = 1.0 + THEORY_RTOL
    null = ref.null_risk(h, g, w, gamma, sigma2)
    if res.risk_at_opt > null * slack:
        return f"risk_at_opt {res.risk_at_opt!r} exceeds the null risk {null!r}"
    lo, hi = res.domain
    step = 1e-3 * max(abs(lam), 1e-2)
    for nb in (lam - step, lam + step):
        if lo <= nb <= hi:
            r_nb = float(ref.risk(h, g, w, gamma, sigma2, [nb])[0][0])
            if res.risk_at_opt > r_nb * slack:
                return f"risk {r_nb!r} at neighbouring lambda {nb!r} is below risk_at_opt {res.risk_at_opt!r}"
    return None


def _rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]


def _check_curves(op, prepared, result):
    code, text = result
    if code != 0:
        return f"exit code {code}"
    rows = _rows(text)
    if op["kind"] == "pcr-curve":
        spec = prepared.spectrum(op["recipe"])
        sigma2 = float(np.dot(spec.w, spec.g * spec.h)) / op["snr"]
        expected = [ref.pcr_risk(spec.h, spec.g, spec.w, op["gamma"], sigma2, t) for t in op["grid"]]
        return _compare_rows(rows, "theta", op["grid"], expected)
    spec = prepared.spectrum(op["recipe"], op["relation"])
    if op["kind"] == "solve-m":
        m = float(ref.solve_m(spec.h, spec.w, op["gamma"], [op["lam"]])[0])
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        got_lam, got_m = float(rows[0]["lambda"]), float(rows[0]["m"])
        if not (_close(got_lam, op["lam"], THEORY_RTOL) and _close(got_m, m, THEORY_RTOL)):
            return f"solve-m printed (lambda={got_lam!r}, m={got_m!r}), reference m={m!r}"
        return None
    total, bias, var = ref.risk(spec.h, spec.g, spec.w, op["gamma"], op["sigma2"], op["grid"])
    return _compare_rows(rows, "lambda", op["grid"], list(zip(total, bias, var)))


def _compare_rows(rows, axis, grid, expected):
    if len(rows) != len(grid):
        return f"expected {len(grid)} rows, got {len(rows)}"
    for row, x, (total, bias, var) in zip(rows, grid, expected):
        if row["note"]:
            return f"{axis}={x!r}: note {row['note']!r}"
        if not _close(float(row[axis]), x, THEORY_RTOL):
            return f"printed {axis} {row[axis]} for {x!r}"
        got = (float(row["total"]), float(row["bias"]), float(row["variance"]))
        if not all(_close(a, b, THEORY_RTOL, abs(total)) for a, b in zip(got, (total, bias, var))):
            return f"{axis}={x!r}: (total, bias, variance) {got} != reference {(total, bias, var)}"
    return None


def mc_pairs(op, result) -> tuple:
    """``(dropped, attempted)`` replicate-penalty pairs of an MC op."""
    if op["kind"] == "simulate":
        return sum(row["dropped"] for row in result), len(result)
    if op["kind"] == "empirical":
        return result[2], 1
    return 0, 1


def _check_mc(op, ens, result):
    n, seed, sigma2 = op["n"], op["seed"], op["sigma2"]
    args = (ens.d_x, ens.d_beta, ens.d_w)
    if op["kind"] == "simulate":
        # One grid point per op, rotating with the op id: a dense direct
        # evaluation costs about as much as the op itself.
        lams = op["lams"]
        i = op["id"] % len(lams)
        row = result[i]
        if row["n_used"] == 0:
            return None  # a dropped pair, counted in montecarlo.dropped_share
        x, _ = ref.design(ens.d_x, n, seed)
        var, bias = ref.conditional_risk(x, *args, lams[i], sigma2)
        if not _close(row["mc_mean"], var + bias, MC_RTOL):
            return f"lambda={lams[i]!r}: conditional risk {row['mc_mean']!r} != direct {var + bias!r}"
        return None
    if op["kind"] == "empirical":
        mean, _, dropped = result
        if dropped:
            return None
        direct = ref.empirical_risk(*args, n, seed, op["lam"], sigma2)
        if not _close(mean, direct, MC_RTOL):
            return f"fitted risk {mean!r} != direct {direct!r}"
        return None
    mean, _ = result
    direct = ref.pcr_conditional_risk(ens.d_x, ens.d_beta, n, seed, op["theta"], sigma2)
    if not _close(mean, direct, MC_RTOL):
        return f"PCR conditional risk {mean!r} != direct {direct!r}"
    return None
