"""Seeded op generators for the four benchmark workloads.

The generator never imports ridgelab: an op is a plain, JSON-serializable
dict that names public inputs (recipe, relation, aspect ratio, noise level,
penalty grid, seeds).  The same seed always yields the same op list.

Every penalty and retained-mass value stays inside a closed-form
admissible bound, so an op that fails points at the program, not at the
generator.  Nothing is filtered after the fact.

Mixes are stratified rather than drawn independently: each workload walks
a fixed cycle of op kinds (and a fixed rotation of aspect ratios or
recipes), and the seed draws the remaining parameters.  Every run
therefore measures the same proportions of cheap and expensive ops, which
keeps the latency percentiles comparable between seeds.  Each cycle's
shares come from the ``reproduce`` tables where those run the op, and are
a stated choice where nothing records how often the op is run.
"""

import itertools
import math

import numpy as np

WORKLOADS = ("optimum", "curves", "mc-wide", "mc-tall")

GENERIC_RECIPES = ("dc-dc", "dc-ct", "ct-ct", "ct-dc")
RELATIONS = ("aligned", "misaligned", "random")
FIG7_RECIPES = ("fig7-aligned", "fig7-misaligned", "fig7-other")

# Smallest design eigenvalue of each generic recipe's marginal (both the
# discrete levels and the uniform laws start at 1), the ``c_lower`` of the
# closed-form negative-ridge bound ``(sqrt(gamma) - 1)^2 * c_lower``.
GENERIC_C_LOWER = {"dc-dc": 1.0, "dc-ct": 1.0, "ct-ct": 1.0, "ct-dc": 1.0}

# The aspect ratios of the reproduction tables, plus two underparameterized
# values that send the fixed point through the companion route.
TABLE_GAMMAS = (1.2, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
GAMMAS = (1.2, 8.0, 0.5, 3.0, 1.5, 6.0, 0.8, 2.0, 4.0)  # interleaved low/high

# Penalty profiles r(s, v) of the reproduction tables, by name.
FIG5_PROFILES = ("design", "signal", "identity", "inverse-design", "inverse-signal")
FIG6_PROFILES = ("design", "identity", "signal-product")

FIG4_ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)
FIG5_RIGHT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)

MC_SHAPES = {"mc-wide": (300, 600), "mc-tall": (600, 300)}


def edge_bound(gamma: float, c_lower: float) -> float:
    """Closed-form lower bound on the admissible negative penalty."""
    return (math.sqrt(gamma) - 1.0) ** 2 * c_lower


def stream(workload: str, seed: int):
    """Endless op stream for ``workload``, deterministic in ``seed``.

    Op ``i`` carries ``"id": i``.  The runner draws ops as it needs them,
    so a faster program never sees an input twice.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"optimum": _optimum_op, "curves": _curves_op}.get(workload, _mc_op)
    state = _Rotation(rng)
    for i in itertools.count():
        op = make(workload, i, rng, state)
        op["id"] = i
        yield op


def generate(workload: str, seed: int, count: int) -> list:
    """The first ``count`` ops of :func:`stream`."""
    return list(itertools.islice(stream(workload, seed), count))


def recipe_inputs(workload: str) -> list:
    """Every ``(recipe, relation, n_atoms, alpha)`` the workload's ops build
    from, so that set-up can build them all before the first op."""
    if workload == "optimum":
        return ([("fig4-twopoint", None, 2048, a) for a in FIG4_ALPHAS]
                + [("fig5-right", None, 2048, a) for a in FIG5_RIGHT_ALPHAS]
                + [("fig5-left", None, 2048, None), ("fig6-left", None, 512, None),
                   ("fig6-right", None, 512, None)]
                + [(r, rel, 2048, None) for r, rel in _RECIPE_RELATIONS])
    if workload in MC_SHAPES:
        return [(r, rel, None, None) for r, rel in _RECIPE_RELATIONS]
    return []  # curves: the CLI builds its own spectra inside each op


class _Rotation:
    """Per-key cycling counters with a seeded starting phase."""

    def __init__(self, rng):
        self._rng = rng
        self._next = {}

    def take(self, key, values):
        if key not in self._next:
            self._next[key] = int(self._rng.integers(len(values)))
        i = self._next[key]
        self._next[key] = i + 1
        return values[i % len(values)]


def _uniform(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def interleave(counts: dict) -> tuple:
    """One cycle holding each kind ``counts[kind]`` times, every kind spread
    evenly over the cycle."""
    slots = sorted(((j + 0.5) / c, k, kind) for k, (kind, c) in enumerate(counts.items())
                   for j in range(c))
    return tuple(kind for _, _, kind in slots)


# ---------------------------------------------------------------------------
# optimum: one optimal-penalty search per op
# ---------------------------------------------------------------------------

# The reproduce tables run 35 fig4-left, 35 fig5-right (2 atoms), 35
# fig5-left (4 atoms) and 21 + 21 fig6-left/right (512 atoms) searches,
# 5:5:5:6.  Generic recipes with up to 2048 atoms are in no table; their
# share, 2 in 23, is chosen.  It stays below a tenth because their cost is
# bimodal (discrete recipes ~0.3 s, continuous ones ~0.6 s): at 3 in 24
# the p90 fell on the boundary between the two, and its ratio to the p50
# spread 0.14 across seeds against 0.06-0.08 at 2 in 23.
OPTIMUM_COUNTS = {"fig4": 5, "fig5-right": 5, "fig5-left": 5, "fig6": 6, "generic": 2}
_OPTIMUM_PATTERN = interleave(OPTIMUM_COUNTS)


def _optimum_op(workload, i, rng, state):
    family = _OPTIMUM_PATTERN[i % len(_OPTIMUM_PATTERN)]
    gamma = state.take(family, GAMMAS)
    op = {"kind": "lambda_opt", "family": family, "gamma": gamma}
    if family == "fig4":
        # Noiseless above gamma = 1 as in the fig4 table; the search needs
        # noise below it to have a nontrivial optimum.
        sigma2 = 0.0 if gamma > 1.0 else _uniform(rng, 0.05, 1.0)
        op.update(recipe="fig4-twopoint", alpha=float(rng.choice(FIG4_ALPHAS)), sigma2=sigma2)
    elif family == "fig5-right":
        op.update(kind="weighted_lambda_opt", recipe="fig5-right",
                  alpha=float(rng.choice(FIG5_RIGHT_ALPHAS)), sigma2=1.0)
    elif family == "fig5-left":
        op.update(kind="weighted_lambda_opt", recipe="fig5-left",
                  profile=str(rng.choice(FIG5_PROFILES)), sigma2=1.0)
    elif family == "fig6":
        op.update(kind="weighted_lambda_opt", recipe=str(rng.choice(["fig6-left", "fig6-right"])),
                  profile=str(rng.choice(FIG6_PROFILES)), n_atoms=512, sigma2=1.0)
    else:
        op.update(recipe=state.take("recipe", GENERIC_RECIPES), relation=str(rng.choice(RELATIONS)),
                  n_atoms=2048, sigma2=_uniform(rng, 0.1, 2.0))
    return op


# ---------------------------------------------------------------------------
# curves: one in-process CLI call per op
# ---------------------------------------------------------------------------

# The fig2a-c reproduce tables run 12 risk curves (4 generic recipes x 3
# relations) and fig7-pcr runs 3 PCR curves, 4:1.  Single-point solve-m is
# in no table; its share, 2 in 12, is chosen.
CURVES_COUNTS = {"risk-curve": 8, "pcr-curve": 2, "solve-m": 2}
_CURVES_PATTERN = interleave(CURVES_COUNTS)
_RECIPE_RELATIONS = tuple((r, rel) for r in GENERIC_RECIPES for rel in RELATIONS)


def _floats_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _lambda_low(rng, gamma: float, recipe: str, share: float) -> float:
    """A negative penalty inside ``share`` of the closed-form edge bound."""
    return -_uniform(rng, 0.0, share) * edge_bound(gamma, GENERIC_C_LOWER[recipe])


def _curves_op(workload, i, rng, state):
    kind = _CURVES_PATTERN[i % len(_CURVES_PATTERN)]
    if kind == "pcr-curve":
        recipe = state.take("fig7", FIG7_RECIPES)
        gamma = state.take("pcr-gamma", TABLE_GAMMAS)
        snr = float(rng.choice([5.0, 20.0, 50.0]))
        # Retained mass on both sides of theta * gamma = 1, kept 5% clear
        # of the divergent boundary.
        split = 1.0 / gamma
        below = np.sort(rng.uniform(0.05, 0.95 * split, 10))
        above = np.sort(rng.uniform(1.05 * split, 1.0, 10))
        thetas = [float(t) for t in np.concatenate([below, above])]
        argv = ["pcr-curve", "--recipe", recipe, "--gamma", repr(gamma), "--snr", repr(snr),
                "--theta-grid", _floats_arg(thetas)]
        return {"kind": kind, "recipe": recipe, "gamma": gamma, "snr": snr, "grid": thetas,
                "argv": argv}
    recipe, relation = state.take(kind, _RECIPE_RELATIONS)
    gamma = state.take(kind + "-gamma", GAMMAS)
    sigma2 = _uniform(rng, 0.0, 1.0)
    common = ["--recipe", recipe, "--relation", relation, "--gamma", repr(gamma),
              "--sigma2", repr(sigma2)]
    op = {"kind": kind, "recipe": recipe, "relation": relation, "gamma": gamma, "sigma2": sigma2}
    if kind == "solve-m":
        lam = _lambda_low(rng, gamma, recipe, 0.9) if rng.random() < 0.3 else _uniform(rng, 0.01, 5.0)
        # "--lambda=-5e-05", not "--lambda -5e-05": argparse reads a
        # negative number in exponent form as an option.
        op.update(lam=lam, argv=["solve-m", *common, "--lambda=" + repr(lam)])
        return op
    lams = [float(v) for v in np.linspace(_lambda_low(rng, gamma, recipe, 0.9), _uniform(rng, 1.0, 5.0), 25)]
    op.update(grid=lams, argv=["risk-curve", *common, "--lambda-grid=" + _floats_arg(lams)])
    return op


# ---------------------------------------------------------------------------
# mc-wide / mc-tall: one Monte Carlo replicate per op
# ---------------------------------------------------------------------------

# The fig2 reproduce tables with Monte Carlo columns call simulate only;
# nothing records how often the two oracles run, so the 6:2:2 mix is chosen.
MC_COUNTS = {"simulate": 6, "empirical": 2, "pcr": 2}
_MC_PATTERN = interleave(MC_COUNTS)
_THETAS_WIDE = (0.15, 0.65, 0.3, 0.8, 0.4, 0.95, 0.2, 0.7)  # theta*gamma clear of 1
# On mc-tall a PCR op with theta >= 0.7 costs 1.3-2.5x a simulate op.
# Six of the eight thetas are there, so that 15% of ops form that slow
# group and the p90 falls inside it.  With 10% or less the p90 sat on the
# upper tail of the simulate ops, which moves with the machine's noise,
# and the ratio p90/p50 spread up to 0.24 across seeds, against 0.05.
_THETAS_TALL = (0.15, 0.8, 0.7, 0.9, 0.3, 0.85, 0.75, 0.95)


def _mc_op(workload, i, rng, state):
    n, p = MC_SHAPES[workload]
    gamma = p / n
    wide = p > n
    kind = _MC_PATTERN[i % len(_MC_PATTERN)]
    recipe, relation = state.take("ensemble", _RECIPE_RELATIONS)
    op = {"kind": kind, "recipe": recipe, "relation": relation, "n": n, "p": p,
          "sigma2": _uniform(rng, 0.1, 1.0), "seed": int(rng.integers(1, 2**31 - 1))}
    # Negative penalties only where the population is overparameterized,
    # and only down to half the closed-form bound: a finite design's
    # smallest nonzero eigenvalue fluctuates around the limiting edge.
    lam_lo = _lambda_low(rng, gamma, recipe, 0.5) if wide else 0.0
    if kind == "simulate":
        op["lams"] = [float(v) for v in np.linspace(lam_lo, _uniform(rng, 1.0, 3.0), 25)]
    elif kind == "empirical":
        op["lam"] = lam_lo if rng.random() < 0.25 else _uniform(rng, 0.0, 2.0)
    else:
        jitter = _uniform(rng, -0.04, 0.04)
        op["theta"] = state.take("theta", _THETAS_WIDE if wide else _THETAS_TALL) + jitter
    return op
