"""Named spectrum constructions used by the benchmark figures and CLI.

Four generic recipes pair a design-eigenvalue marginal with a
signal-energy marginal under a declared relation:

* ``dc-dc``: four-level design (1, 3, 5, 7 in equal quarters), signal 8 on
  one quarter of directions and 1 elsewhere.
* ``dc-ct``: two-level design (1 and 8, half each), signal uniform on
  [1, 8].
* ``ct-ct``: design uniform on [1, 5], signal ``min(Z^2 + 1, 5)``.
* ``ct-dc``: design uniform on [1, 8], signal 1 or 7 (half each).

Relations: ``aligned`` couples the sorted marginals, ``misaligned``
reverses one, ``random`` pairs independently.  For the random relation the
limiting law is the exact product measure; since every risk functional is
linear in the signal energy, it is represented exactly by attaching the
mean signal energy to each design atom.

The ``fig*`` recipes are fixed constructions (some weighted) used by the
reproduction tables; see each branch for the exact atoms.
"""

import numpy as np

from .errors import DomainError
from .optimize import lambda_opt_search
from .risk import pcr_curve, risk_curve, weighted_model
from .spectra import (
    ClippedSquareNormal,
    JointSpectrum,
    ModelSpec,
    ShiftedAbsNormal,
    ShiftedInvAbsNormal,
    Uniform,
    WeightedSpectrum,
    relate,
)
from .montecarlo import (
    D_VECTOR_STREAM,
    MatrixEnsemble,
    MonteCarloConfig,
    proportional_counts,
    replicate_rng,
    simulate,
)

GENERIC_RECIPES = ("dc-dc", "dc-ct", "ct-ct", "ct-dc")
RECIPE_NAMES = GENERIC_RECIPES + (
    "fig4-twopoint",
    "fig5-left",
    "fig5-right",
    "fig6-left",
    "fig6-right",
    "fig7-aligned",
    "fig7-misaligned",
    "fig7-other",
)

_ALPHA_RECIPES = ("fig4-twopoint", "fig5-right")
_RELATIONS = ("aligned", "misaligned", "random")

# (kind, payload) marginals: ("dc", values, weights) or ("ct", law)
_GENERIC_MARGINALS = {
    "dc-dc": (("dc", [1.0, 3.0, 5.0, 7.0], [0.25, 0.25, 0.25, 0.25]),
              ("dc", [1.0, 8.0], [0.75, 0.25])),
    "dc-ct": (("dc", [1.0, 8.0], [0.5, 0.5]), ("ct", Uniform(1.0, 8.0))),
    "ct-ct": (("ct", Uniform(1.0, 5.0)), ("ct", ClippedSquareNormal(5.0))),
    "ct-dc": (("ct", Uniform(1.0, 8.0)), ("dc", [1.0, 7.0], [0.5, 0.5])),
}

_FIG7_ATOMS = {
    "fig7-aligned": [(1.0, 3.6, 4 / 11), (0.02, 0.072, 4 / 11), (4e-4, 1.44e-3, 3 / 11)],
    "fig7-misaligned": [(1.0, 4 / 9, 4 / 11), (0.02, (4 / 9) / 0.02, 4 / 11),
                        (4e-4, (4 / 9) / 4e-4, 3 / 11)],
    "fig7-other": [(2.0, 2 / 3, 0.2), (0.2, 11 / 30, 0.6), (0.2, 1 / 15, 0.2)],
}


def _marginal_samples(marginal, n_atoms: int) -> np.ndarray:
    if marginal[0] == "dc":
        _, values, weights = marginal
        return np.repeat(np.asarray(values, dtype=float), proportional_counts(np.asarray(weights), n_atoms))
    q = (np.arange(n_atoms) + 0.5) / n_atoms
    return np.asarray(marginal[1].quantile(q), dtype=float)


def _marginal_mean(marginal, n_atoms: int) -> float:
    if marginal[0] == "dc":
        _, values, weights = marginal
        return float(np.dot(values, weights))
    return float(np.mean(_marginal_samples(marginal, n_atoms)))


def _marginal_draw(marginal, rng: np.random.Generator, p: int) -> np.ndarray:
    """Finite population: exact proportions for discrete marginals,
    independent draws for continuous ones."""
    if marginal[0] == "dc":
        return _marginal_samples(marginal, p)
    return np.asarray(marginal[1].quantile(rng.random(p)), dtype=float)


def _recipe_args(name: str, relation, alpha) -> tuple:
    """Check a recipe request; returns ``(relation, alpha)`` with the
    generic recipes' relation defaulted and alpha as a float."""
    if name not in RECIPE_NAMES:
        raise DomainError(f"unknown recipe {name!r}; known: {', '.join(RECIPE_NAMES)}")
    if name in GENERIC_RECIPES:
        relation = relation or "aligned"
        if relation not in _RELATIONS:
            raise DomainError(f"unknown relation: {relation!r}")
    elif relation is not None:
        raise DomainError(f"recipe {name!r} has a fixed pairing; relation does not apply")
    if name not in _ALPHA_RECIPES:
        if alpha is not None:
            raise DomainError(f"recipe {name!r} takes no alpha")
        return relation, None
    if alpha is None:
        raise DomainError(f"recipe {name!r} requires an alpha parameter")
    return relation, float(alpha)


def recipe_spectrum(name: str, relation: str | None = None, n_atoms: int = 2048, alpha=None):
    """Build the limiting spectrum for a named recipe.

    ``relation`` applies only to the four generic recipes (default
    ``aligned``); ``alpha`` only to the recipes that declare it.  Returns
    a JointSpectrum or, for the generalized-penalty figures, a
    WeightedSpectrum.
    """
    relation, alpha = _recipe_args(name, relation, alpha)
    if name in GENERIC_RECIPES:
        mx, mb = _GENERIC_MARGINALS[name]
        if relation == "random":
            h = _marginal_samples(mx, n_atoms)
            g_mean = _marginal_mean(mb, n_atoms)
            w = np.full(h.size, 1.0 / h.size)
            return JointSpectrum(np.column_stack([h, np.full(h.size, g_mean), w])).merged()
        return relate(_marginal_samples(mx, n_atoms), _marginal_samples(mb, n_atoms), relation).merged()
    if name == "fig4-twopoint":
        return JointSpectrum([(1.0, 1.0, 0.75), (5.0, 5.0**alpha, 0.25)])
    if name == "fig5-right":
        return WeightedSpectrum([(1.0, 1.0, 1.0, 0.75), (5.0, 25.0, 5.0 ** (1.0 - 2.0 * alpha), 0.25)])
    if name == "fig5-left":
        return WeightedSpectrum(
            [(1.0, 1.0, 1.0, 0.25), (2.0, 1.0, 2.0, 0.25), (3.0, 1.0, 3.0, 0.25), (4.0, 5.0, 4.0, 0.25)]
        )
    if name in ("fig6-left", "fig6-right"):
        q = (np.arange(n_atoms) + 0.5) / n_atoms
        if name == "fig6-left":
            s = np.asarray(ShiftedAbsNormal(5.0).quantile(q), dtype=float)
            v = (s - 5.0) ** 2 + 1.25
        else:
            s = np.asarray(ShiftedInvAbsNormal(2.0).quantile(q), dtype=float)
            v = (s - 2.0) ** (-2) + 1.25
        w = np.full(n_atoms, 1.0 / n_atoms)
        return WeightedSpectrum(np.column_stack([s, v, s, w]))
    return JointSpectrum(_FIG7_ATOMS[name])


def recipe_ensemble(
    name: str,
    n: int,
    p: int,
    master_seed: int,
    relation: str | None = None,
    alpha=None,
) -> MatrixEnsemble:
    """Finite population matching a recipe, for Monte Carlo runs.

    Discrete parts get exact proportional coordinate counts (a fixed-atom
    recipe expands its spectrum's atoms); the continuous parts of the
    generic and ``fig6-*`` recipes are drawn independently from the
    dedicated d-vector stream of ``master_seed`` (design values first,
    then signal values, so results are reproducible bit for bit).
    """
    relation, alpha = _recipe_args(name, relation, alpha)
    rng = replicate_rng(master_seed, D_VECTOR_STREAM)
    if name in GENERIC_RECIPES:
        mx, mb = _GENERIC_MARGINALS[name]
        d_x = np.sort(_marginal_draw(mx, rng, p))
        d_b = np.sort(_marginal_draw(mb, rng, p))
        if relation == "misaligned":
            d_b = d_b[::-1]
        elif relation == "random":
            d_b = rng.permutation(d_b)
        return MatrixEnsemble(n=n, p=p, d_x=d_x, d_beta=d_b, d_w=np.ones(p))
    if name in ("fig6-left", "fig6-right"):
        a = rng.standard_normal(p)
        b = rng.standard_normal(p)
        s = np.abs(a) + 5.0 if name == "fig6-left" else 1.0 / np.abs(a) + 2.0
        v = (np.abs(a) + 0.5 * b) ** 2 + 1.0
        return MatrixEnsemble(n=n, p=p, d_x=s, d_beta=v, d_w=np.ones(p))
    spec = recipe_spectrum(name, alpha=alpha)
    if isinstance(spec, WeightedSpectrum):
        return MatrixEnsemble.from_weighted(spec, n, p)
    return MatrixEnsemble.from_joint(spec, n, p)


# ---------------------------------------------------------------------------
# reproduction tables
# ---------------------------------------------------------------------------

REPRODUCE_KEYS = (
    "fig2a",
    "fig2b",
    "fig2c",
    "fig4-left",
    "fig5-left",
    "fig5-right",
    "fig6-left",
    "fig6-right",
    "fig7-pcr",
)

_FIG2_RELATION = {"fig2a": "aligned", "fig2b": "misaligned", "fig2c": "random"}
_GAMMA_GRID = (1.2, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

# candidate penalty profiles r(s, v) of the fig5-left table and of the
# weight-compare command
PENALTY_CANDIDATES = (
    ("design", lambda s, v: np.ones_like(s)),
    ("signal", lambda s, v: s / v),
    ("identity", lambda s, v: s),
    ("inverse-design", lambda s, v: s**2),
    ("inverse-signal", lambda s, v: s * v),
)


def _fig2_table(key: str, with_mc: bool, n: int, replicates: int, master_seed: int):
    relation = _FIG2_RELATION[key]
    lams = np.linspace(-0.15, 3.0, 25)
    columns = ["recipe", "lambda", "theory_total", "theory_bias", "theory_variance"]
    if with_mc:
        columns += ["mc_mean", "mc_se", "dropped"]
    rows = []
    for recipe in GENERIC_RECIPES:
        spec = recipe_spectrum(recipe, relation=relation)
        model = ModelSpec(2.0, 0.0, spec)
        mc_rows = None
        if with_mc:
            ens = recipe_ensemble(recipe, n=n, p=2 * n, master_seed=master_seed, relation=relation)
            mc_rows = simulate(ens, lams, 0.0, MonteCarloConfig(replicates=replicates, master_seed=master_seed))
        for i, (lam, ev) in enumerate(zip(lams, risk_curve(model, lams))):
            row = [recipe, float(lam), ev.total, ev.bias, ev.variance]
            if with_mc:
                row += [mc_rows[i]["mc_mean"], mc_rows[i]["mc_se"], float(mc_rows[i]["dropped"])]
            rows.append(tuple(row))
    return columns, rows


def _fig4_left_table():
    columns = ["gamma", "alpha", "lambda_opt", "risk_at_opt", "sign_class"]
    rows = []
    for gamma in _GAMMA_GRID:
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
            spec = recipe_spectrum("fig4-twopoint", alpha=alpha)
            res = lambda_opt_search(ModelSpec(gamma, 0.0, spec))
            rows.append((gamma, alpha, res.lambda_opt, res.risk_at_opt, res.sign_class))
    return columns, rows


def _weighted_optimum(wspec: WeightedSpectrum, gamma: float, sigma2: float) -> tuple:
    res = lambda_opt_search(weighted_model(wspec, gamma, sigma2))
    scale = gamma * float(np.dot(wspec.w, wspec.s * wspec.v))
    return res.lambda_opt, res.risk_at_opt, res.risk_at_opt / scale


def penalty_rows(wspec: WeightedSpectrum, gamma: float, sigma2: float, candidates=PENALTY_CANDIDATES) -> list:
    """One ``(label, lambda_opt, risk_at_opt, normalized_risk)`` row per
    ``(label, r)`` candidate, ``r`` a profile ``r(s, v)`` or per-atom array;
    the risk is normalized by ``gamma * E[s v]``."""
    return [(label,) + _weighted_optimum(wspec.with_r(r), gamma, sigma2) for label, r in candidates]


def _fig5_left_table():
    columns = ["gamma", "penalty", "lambda_opt", "risk_at_opt", "normalized_risk"]
    base = recipe_spectrum("fig5-left")
    return columns, [(gamma,) + row for gamma in _GAMMA_GRID for row in penalty_rows(base, gamma, 1.0)]


def _fig5_right_table():
    columns = ["gamma", "alpha", "lambda_opt", "risk_at_opt", "normalized_risk"]
    rows = []
    for gamma in _GAMMA_GRID:
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            rows.append((gamma, alpha) + _weighted_optimum(recipe_spectrum("fig5-right", alpha=alpha), gamma, 1.0))
    return columns, rows


def _fig6_table(key: str):
    columns = ["gamma", "penalty", "lambda_opt", "risk_at_opt", "normalized_risk"]
    base = recipe_spectrum(key, n_atoms=512)
    candidates = (
        ("design", lambda s, v: np.ones_like(s)),
        ("identity", lambda s, v: s),
        ("signal-product", lambda s, v: s * v),
    )
    return columns, [(gamma,) + row for gamma in _GAMMA_GRID for row in penalty_rows(base, gamma, 1.0, candidates)]


def _fig7_pcr_table():
    columns = ["variant", "theta", "theory_total", "theory_bias", "theory_variance"]
    thetas = [t for t in np.linspace(0.05, 1.0, 20) if abs(5.0 * t - 1.0) > 1e-9]
    thetas = sorted(set(thetas) | {0.18, 0.19, 0.21, 0.22})
    rows = []
    for key in ("fig7-aligned", "fig7-misaligned", "fig7-other"):
        spec = recipe_spectrum(key)
        curve = pcr_curve(ModelSpec.with_snr(5.0, 50.0, spec), thetas)
        rows += [(key.removeprefix("fig7-"), float(t), ev.total, ev.bias, ev.variance) for t, ev in zip(thetas, curve)]
    return columns, rows


def reproduce_table(
    key: str,
    with_mc: bool = False,
    n: int = 300,
    replicates: int = 50,
    master_seed: int = 20260816,
):
    """Deterministic data table behind one benchmark figure.

    Returns ``(columns, rows)``; Monte Carlo columns are only attached
    for the figure-2 panels (pass ``with_mc=True``).
    """
    if key not in REPRODUCE_KEYS:
        raise DomainError(f"unknown reproduction key {key!r}; known: {', '.join(REPRODUCE_KEYS)}")
    if key.startswith("fig2"):
        return _fig2_table(key, with_mc, n, replicates, master_seed)
    if with_mc:
        raise DomainError(f"reproduction {key!r} is theory-only; with_mc is not supported")
    if key == "fig4-left":
        return _fig4_left_table()
    if key == "fig5-left":
        return _fig5_left_table()
    if key == "fig5-right":
        return _fig5_right_table()
    if key in ("fig6-left", "fig6-right"):
        return _fig6_table(key)
    return _fig7_pcr_table()
