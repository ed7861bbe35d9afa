"""Command-line front end.

Subcommands cover the solver (``solve-m``), risk sweeps (``risk-curve``,
``pcr-curve``), penalty tuning (``lambda-opt``, ``weight-compare``),
Monte Carlo validation (``simulate``), the named benchmark tables
(``reproduce``), and an internal invariant battery (``selftest``).

Output is a table on stdout (or ``--out``) in CSV or JSON with floats
fixed at 12 significant digits, so identical invocations are
byte-identical.  Exit codes: 0 success, 1 usage error, 2 domain error
(parameters outside the admissible regime), 3 solver failure.
"""

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .errors import DomainError, RegimeError, SolverError
from .montecarlo import MonteCarloConfig, MatrixEnsemble, simulate
from .optimize import lambda_opt_search, select_weighting
from .recipes import (
    PENALTY_CANDIDATES,
    RECIPE_NAMES,
    REPRODUCE_KEYS,
    recipe_ensemble,
    penalty_rows,
    recipe_spectrum,
    reproduce_table,
)
from .risk import asymptotic_risk, pcr_curve, pcr_risk, risk_curve, weighted_model
from .spectra import JointSpectrum, ModelSpec, WeightedSpectrum, point_mass, spectrum_from_json
from .stieltjes import solve_m

_DEFAULT_SEED = 20260816


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves
    2 for domain errors, so remap usage problems to exit 1.

    Arguments such as ``-5e-05`` or ``-0.15:3:25`` are values, not
    options: this is the negative-number pattern of Python 3.13's argparse,
    where older versions only accept plain decimals.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float("%.12g" % value)
    return value


def emit(columns, rows, fmt: str = "csv", out: str | None = None) -> None:
    """Write the table with fixed formatting and '\\n' line endings."""
    if fmt == "json":
        payload = {"columns": list(columns), "rows": [[_json_value(v) for v in row] for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse(convert, value, what: str):
    """``convert(value)``, with malformed input raised as a DomainError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad {what}: {exc}") from exc


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:count' (inclusive linspace) or 'a,b,c'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"bad grid {text!r}; expected start:stop:count")
        start, stop = (_parse(float, v, "grid") for v in parts[:2])
        count = _parse(int, parts[2], "grid count")
        if count < 1:
            raise DomainError("grid count must be at least 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [_parse(float, v, "grid") for v in text.split(",")]


def _load_spectrum(text: str, relation: str | None, n_atoms: int, alpha):
    """Resolve a --recipe or --spectrum value: recipe name, then
    pointmass:h[,g], then inline JSON, then a JSON file path."""
    if text in RECIPE_NAMES:
        return recipe_spectrum(text, relation=relation, n_atoms=n_atoms, alpha=alpha)
    if text.startswith("pointmass:"):
        parts = text.removeprefix("pointmass:").split(",")
        if len(parts) not in (1, 2):
            raise DomainError(f"bad point mass {text!r}; expected pointmass:h[,g]")
        return _parse(lambda hg: point_mass(*(float(v) for v in hg)), parts, "point mass")
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return _parse(spectrum_from_json, text, "spectrum")
    if not os.path.exists(text):
        raise DomainError(f"spectrum {text!r} is not a recipe, pointmass, JSON, or file")
    with open(text) as fh:
        return _parse(spectrum_from_json, fh.read(), f"spectrum file {text!r}")


def _resolve_spectrum(args):
    if args.recipe is not None and args.spectrum is not None:
        raise DomainError("pass either --recipe or --spectrum, not both")
    if args.recipe is None and args.spectrum is None:
        raise DomainError("one of --recipe or --spectrum is required")
    return _load_spectrum(args.recipe or args.spectrum, args.relation, args.n_atoms, args.alpha)


def _sigma2(args, spec) -> float:
    if args.snr is not None and args.sigma2 is not None:
        raise DomainError("pass either --sigma2 or --snr, not both")
    if args.snr is not None:
        e_gh = spec.e_gh() if isinstance(spec, JointSpectrum) else float(np.dot(spec.w, spec.s * spec.v))
        if not args.snr > 0:
            raise DomainError("--snr must be positive")
        return e_gh / args.snr
    return args.sigma2 if args.sigma2 is not None else 0.0


def _model(args, spec) -> ModelSpec:
    sigma2 = _sigma2(args, spec)
    if isinstance(spec, WeightedSpectrum):
        return _parse(lambda s: weighted_model(s, args.gamma, sigma2), spec, "model")
    return _parse(lambda s: ModelSpec(args.gamma, sigma2, s), spec, "model")


def _norm_scale(model: ModelSpec) -> float:
    return model.gamma * model.spectrum.e_gh()


def _curve_rows(axis: str, curve, model: ModelSpec, grid) -> tuple:
    """Risk table of ``curve(model, grid)``.  A point outside the admissible
    domain gets a note instead of numbers: ``regime-boundary`` for a
    RegimeError, ``outside-domain`` for any other DomainError."""
    scale = _norm_scale(model)
    rows = []
    for x, ev in zip(grid, curve(model, grid)):
        if isinstance(ev, DomainError):
            note = "regime-boundary" if isinstance(ev, RegimeError) else "outside-domain"
            rows.append((x, "", "", "", "", note))
        else:
            rows.append((x, ev.total, ev.bias, ev.variance, ev.total / scale, ""))
    return [axis, "total", "bias", "variance", "normalized_risk", "note"], rows


def _add_model_flags(sub) -> None:
    sub.add_argument("--gamma", type=float, required=True, help="aspect ratio p/n limit")
    sub.add_argument("--spectrum", help="recipe name, pointmass:h[,g], inline JSON, or JSON file")
    sub.add_argument("--recipe", choices=RECIPE_NAMES, help="named recipe (alternative to --spectrum)")
    sub.add_argument("--relation", choices=["aligned", "misaligned", "random"], help="pairing for generic recipes")
    sub.add_argument("--alpha", type=float, help="exponent for recipes parameterized by alpha")
    sub.add_argument("--n-atoms", dest="n_atoms", type=int, default=2048, help="atoms for continuous laws")
    sub.add_argument("--sigma2", type=float, help="noise level (default 0)")
    sub.add_argument("--snr", type=float, help="signal-to-noise ratio; sets sigma2 = E[gh]/snr")


def _cmd_solve_m(args):
    spec = _resolve_spectrum(args)
    model = _model(args, spec)
    sol = solve_m(model, args.lam)
    return ["lambda", "m", "m_prime", "residual"], [(sol.lam, sol.m, sol.m_prime, sol.residual)]


def _cmd_risk_curve(args):
    model = _model(args, _resolve_spectrum(args))
    return _curve_rows("lambda", risk_curve, model, _parse_grid(args.lambda_grid))


def _cmd_lambda_opt(args):
    spec = _resolve_spectrum(args)
    model = _model(args, spec)
    res = lambda_opt_search(model)
    columns = ["lambda_opt", "risk_at_opt", "normalized_risk", "method", "sign_class", "domain_lo", "domain_hi"]
    row = (
        res.lambda_opt,
        res.risk_at_opt,
        res.risk_at_opt / _norm_scale(model),
        res.method,
        res.sign_class,
        res.domain[0],
        res.domain[1],
    )
    return columns, [row]


def _cmd_pcr_curve(args):
    model = _model(args, _resolve_spectrum(args))
    return _curve_rows("theta", pcr_curve, model, _parse_grid(args.theta_grid))


def _cmd_weight_compare(args):
    spec = _resolve_spectrum(args)
    if not isinstance(spec, WeightedSpectrum):
        raise DomainError("weight-compare needs a weighted (s, v, r) spectrum")
    candidates = PENALTY_CANDIDATES + (("s-measurable", select_weighting(spec, "s_only_optimal")),)
    rows = penalty_rows(spec, args.gamma, _model(args, spec).sigma2, candidates)
    return ["penalty", "lambda_opt", "risk_at_opt", "normalized_risk"], rows


def _cmd_simulate(args):
    spec = _resolve_spectrum(args)
    if isinstance(spec, WeightedSpectrum):
        raise DomainError("simulate expects a joint (h, g) spectrum or generic recipe")
    model = _model(args, spec)
    p = int(round(args.gamma * args.n))
    if args.recipe is not None:
        ens = _parse(lambda n: recipe_ensemble(
            args.recipe, n=n, p=p, master_seed=args.seed, relation=args.relation, alpha=args.alpha
        ), args.n, "ensemble")
    else:
        ens = _parse(lambda n: MatrixEnsemble.from_joint(spec, n, p), args.n, "ensemble")
    lams = _parse_grid(args.lambda_grid)
    config = _parse(lambda r: MonteCarloConfig(replicates=r, master_seed=args.seed), args.replicates, "replicates")
    mc_rows = simulate(ens, lams, model.sigma2, config)
    columns = ["lambda", "mc_mean", "mc_se", "theory", "rel_err", "dropped_replicates"]
    rows = []
    for rec, ev in zip(mc_rows, risk_curve(model, lams)):
        if isinstance(ev, DomainError):
            raise ev
        rel = abs(rec["mc_mean"] - ev.total) / max(abs(ev.total), 1e-300)
        rows.append((rec["lam"], rec["mc_mean"], rec["mc_se"], ev.total, rel, float(rec["dropped"])))
    return columns, rows


def _run_scenario(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"scenario {path!r} must be a JSON object")
    for key in ("gamma", "grid"):
        if key not in doc:
            raise DomainError(f"scenario {path!r} is missing required entry {key!r}")

    def entry(key, convert=float, default=None, block=doc):
        return _parse(convert, block[key], f"scenario entry {key!r}") if key in block else default

    if "recipe" in doc:
        spec = recipe_spectrum(
            doc["recipe"],
            relation=doc.get("relation"),
            n_atoms=entry("n_atoms", int, 2048),
            alpha=entry("alpha"),
        )
    elif "spectrum" in doc:
        spec = _parse(spectrum_from_json, doc["spectrum"], "scenario spectrum")
    else:
        raise DomainError(f"scenario {path!r} needs a 'recipe' or 'spectrum' entry")
    model = _model(argparse.Namespace(gamma=entry("gamma"), sigma2=entry("sigma2"), snr=entry("snr")), spec)
    sweep = doc.get("sweep", "lambda")
    if sweep not in ("lambda", "theta"):
        raise DomainError(f"scenario sweep must be 'lambda' or 'theta', got {sweep!r}")
    grid = entry("grid", lambda values: [float(v) for v in values])
    mc = doc.get("mc")
    if mc and (sweep != "lambda" or not isinstance(spec, JointSpectrum)):
        raise DomainError(f"scenario {path!r}: an mc block needs a lambda sweep on a joint (h, g) spectrum")
    columns, rows = _curve_rows(sweep, risk_curve if sweep == "lambda" else pcr_curve, model, grid)
    if mc:
        if "n" not in mc:
            raise DomainError(f"scenario {path!r} mc block is missing required entry 'n'")
        ens = _parse(lambda n: MatrixEnsemble.from_joint(spec, n, int(round(model.gamma * n))),
                     entry("n", int, block=mc), "scenario mc entry 'n'")
        seed = entry("seed", int, _DEFAULT_SEED, mc)
        config = _parse(lambda r: MonteCarloConfig(replicates=r, master_seed=seed),
                        entry("replicates", int, 50, mc), "scenario mc entry 'replicates'")
        mc_rows = simulate(ens, grid, model.sigma2, config)
        columns += ["mc_mean", "mc_se", "dropped_replicates"]
        rows = [
            row + (rec["mc_mean"], rec["mc_se"], float(rec["dropped"]))
            for row, rec in zip(rows, mc_rows)
        ]
    return columns, rows


def _cmd_reproduce(args):
    if args.key not in REPRODUCE_KEYS and os.path.exists(args.key):
        return _run_scenario(args.key)
    return reproduce_table(
        args.key,
        with_mc=args.with_mc,
        n=args.n,
        replicates=args.replicates,
        master_seed=args.seed,
    )


def _selftest_checks():
    from .optimize import lambda_opt_closed_form
    from .risk import weighted_risk
    from .stieltjes import StieltjesSolution

    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))

    iso = ModelSpec(2.0, 0.0, point_mass(1.0))
    sol = solve_m(iso, 1.0)
    check("isotropic-root", abs(sol.m - (np.sqrt(2.0) - 1.0)) < 1e-10)
    check("isotropic-ridgeless", abs(solve_m(iso, 0.0).m - 1.0) < 1e-10)

    noisy = ModelSpec(2.0, 0.25, point_mass(1.0))
    closed = lambda_opt_closed_form(noisy)
    searched = lambda_opt_search(noisy)
    check("closed-form-exists", closed is not None)
    check("closed-vs-search", closed is not None and abs(closed.lambda_opt - searched.lambda_opt) < 1e-6)

    pcr_model = ModelSpec(1.0, 0.0, JointSpectrum([(1.0, 1.0, 0.5), (3.0, 1.0, 0.5)]))
    check("pcr-lower-branch", abs(pcr_risk(pcr_model, 0.5).total - 1.0) < 1e-12)

    base = recipe_spectrum("fig5-left")
    flat = base.with_r(lambda s, v: np.ones_like(s))
    ev = asymptotic_risk(weighted_model(flat, 2.0, 1.0), 0.0)
    check("ridgeless-variance", abs(ev.variance - 2.0) < 1e-10)

    ok_roundtrip = True
    for name in RECIPE_NAMES:
        alpha = 1.0 if name in ("fig4-twopoint", "fig5-right") else None
        spec = recipe_spectrum(name, n_atoms=64, alpha=alpha)
        ok_roundtrip = ok_roundtrip and spectrum_from_json(spec.to_json()) == spec
    check("recipe-roundtrip", ok_roundtrip)

    risky = asymptotic_risk(ModelSpec(2.0, 0.25, point_mass(1.0)), 0.0)
    check("null-decomposition", abs(risky.total - (risky.bias + risky.variance)) < 1e-12)
    check("solution-type", isinstance(sol, StieltjesSolution))
    check("weighted-projection", abs(
        weighted_risk(base, 2.0, 0.0, 0.5).total
        - asymptotic_risk(weighted_model(base, 2.0, 0.0), 0.5).total
    ) < 1e-15)
    return checks


def _cmd_selftest(args):
    checks = _selftest_checks()
    for name, ok in checks:
        sys.stdout.write(f"{'ok' if ok else 'FAIL'} - {name}\n")
    failed = sum(1 for _, ok in checks if not ok)
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    if failed:
        raise SolverError(f"selftest: {failed} check(s) failed")
    return None


def build_parser() -> _Parser:
    parser = _Parser(prog="ridgelab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output_flags(p):
        p.add_argument("--out", help="write the table to this path instead of stdout")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("solve-m", help="fixed-point transform at one penalty")
    _add_model_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_solve_m)

    p = sub.add_parser("risk-curve", help="asymptotic risk over a penalty grid")
    _add_model_flags(p)
    p.add_argument("--lambda-grid", required=True, help="'start:stop:count' or comma list")
    add_output_flags(p)
    p.set_defaults(func=_cmd_risk_curve)

    p = sub.add_parser("lambda-opt", help="optimal penalty by bracketed search")
    _add_model_flags(p)
    add_output_flags(p)
    p.set_defaults(func=_cmd_lambda_opt)

    p = sub.add_parser("pcr-curve", help="principal component regression risk over a kept-fraction grid")
    _add_model_flags(p)
    p.add_argument("--theta-grid", required=True, help="'start:stop:count' or comma list")
    add_output_flags(p)
    p.set_defaults(func=_cmd_pcr_curve)

    p = sub.add_parser("weight-compare", help="optimal risk across candidate penalty profiles")
    _add_model_flags(p)
    add_output_flags(p)
    p.set_defaults(func=_cmd_weight_compare)

    p = sub.add_parser("simulate", help="Monte Carlo risk vs theory over a penalty grid")
    _add_model_flags(p)
    p.add_argument("--lambda-grid", required=True)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    add_output_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", help="emit a named benchmark table (or run a scenario JSON)")
    p.add_argument("key", help=f"one of {', '.join(REPRODUCE_KEYS)} or a scenario file")
    p.add_argument("--with-mc", action="store_true", help="attach Monte Carlo columns (fig2 keys)")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    add_output_flags(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("selftest", help="run the internal invariant battery")
    p.set_defaults(func=_cmd_selftest)
    return parser


# built at the first call of main and reused after it: parsing leaves a parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = args.func(args)
        if result is not None:
            columns, rows = result
            emit(columns, rows, getattr(args, "format", "csv"), getattr(args, "out", None))
    except DomainError as exc:
        sys.stderr.write(f"ridgelab: domain error: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"ridgelab: solver error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
