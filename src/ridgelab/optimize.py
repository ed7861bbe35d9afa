"""Optimal regularization: sign analysis, closed forms, and search.

The headline quantity is the risk-minimizing regularization value, which
can be negative when strong eigendirections carry disproportionately
strong signal and noise is small.  The search machinery is derivative
based: the risk derivative factors into a positive prefactor times a sum
of two signed parts, so locating sign changes of that sum is both cheaper
and better conditioned than minimizing the risk directly.  Both parts
are closed form in the fixed-point solution ``m``, so the scan is one
array solve of the fixed point over the whole regularization grid plus
one array evaluation of the parts, and each sign change is refined by
bisection in ``m`` with no further fixed-point solve.  A golden section
pass over the risk itself remains as the fallback when no sign change is
bracketed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegimeError, SolverError
from .risk import asymptotic_risk, derivative_parts, risk_at_m, weighted_model
from .spectra import JointSpectrum, ModelSpec, WeightedSpectrum
from .stieltjes import bisect, find_edge, golden_min, solve_m, solve_m_grid

_GRID_POINTS = 512
_ZERO_ATOL = 1e-7
_TIE_RTOL = 1e-9
# golden section on the risk stops at width <= 2e-11 * max(b, -a, 0.5): 1e-11
# relative to |a| + |b| on a narrow interval, never below 1e-11 absolute
_GOLDEN_RTOL, _GOLDEN_FLOOR = 2e-11, 0.5
# derivative roots are refined in m to 1e-14 relative: lam moves by at most
# about 1e-14 * (|lam| + gamma E[h]), far inside the 1e-12 of a scalar solve
_M_RTOL = 1e-14
# step caps of the root bisection and of the golden section
_BISECT_MAX_ITER, _GOLDEN_MAX_ITER = 200, 600


@dataclass(frozen=True)
class LambdaOptResult:
    """Outcome of an optimal-regularization computation.

    ``method`` records how the value was obtained (``closed_form``,
    ``derivative_root``, or ``golden_section``); ``sign_class`` is one of
    ``negative``, ``zero``, ``positive``, ``indeterminate``; ``domain`` is
    the half-open search interval that was considered admissible.
    """

    lambda_opt: float
    risk_at_opt: float
    method: str
    sign_class: str
    domain: tuple


@dataclass(frozen=True)
class TwoPointSpec:
    """Two-atom benchmark family: a unit base atom plus a spiked atom.

    Mass ``q`` sits on the spike ``(h1, g1)`` with ``h1, g1 > 1`` and the
    rest on ``(1, 1)``.  Used by the negative-regularization threshold
    analysis, which is sharp exactly for this family.
    """

    q: float
    h1: float
    g1: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q!r}")
        if not (self.h1 > 1.0 and self.g1 > 1.0):
            raise ValueError("spike coordinates must exceed 1")
        if not self.gamma > 1.0:
            raise ValueError("threshold analysis needs gamma > 1")

    def spectrum(self) -> JointSpectrum:
        return JointSpectrum([(1.0, 1.0, 1.0 - self.q), (self.h1, self.g1, self.q)])

    def model(self, sigma2: float) -> ModelSpec:
        return ModelSpec(self.gamma, sigma2, self.spectrum())


# ---------------------------------------------------------------------------
# structure detection
# ---------------------------------------------------------------------------


def conditional_means(spectrum: JointSpectrum):
    """Group atoms by eigenvalue and average the signal energy per level.

    Returns ``(levels, means, masses)`` with levels ascending; eigenvalues
    within a relative 1e-12 of each other share a level.
    """
    order = np.argsort(spectrum.h, kind="stable")
    levels, means, masses = [], [], []
    for i in order:
        h, g, w = float(spectrum.h[i]), float(spectrum.g[i]), float(spectrum.w[i])
        if levels and abs(h - levels[-1]) <= 1e-12 * max(1.0, abs(h)):
            means[-1] += w * g
            masses[-1] += w
        else:
            levels.append(h)
            means.append(w * g)
            masses.append(w)
    means = [m / w for m, w in zip(means, masses)]
    return np.array(levels), np.array(means), np.array(masses)


def _monotonicity(means: np.ndarray) -> str:
    if means.size == 1:
        return "constant"
    scale = max(1.0, float(np.max(np.abs(means))))
    tol = 1e-12 * scale
    diffs = np.diff(means)
    if np.all(np.abs(diffs) <= tol):
        return "constant"
    if np.all(diffs >= -tol):
        return "increasing"
    if np.all(diffs <= tol):
        return "decreasing"
    return "non-monotone"


def classify_sign(model: ModelSpec) -> str:
    """Predict the sign of the optimal regularization from structure alone.

    The prediction covers the overparameterized regime, where negative
    values are admissible: increasing conditional signal profiles pull the
    optimum negative (strictly so when noiseless), decreasing ones push it
    positive, flat ones put it exactly at the noise-to-signal ratio.
    Mixed cases cannot be signed without solving and return
    ``indeterminate``.
    """
    _, means, _ = conditional_means(model.spectrum)
    shape = _monotonicity(means)
    noiseless = model.sigma2 == 0.0
    if shape == "constant":
        return "zero" if noiseless else "positive"
    if shape == "increasing":
        return "negative" if noiseless else "indeterminate"
    if shape == "decreasing":
        return "positive"
    return "indeterminate"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def lambda_opt_closed_form(model: ModelSpec):
    """Exact optimum when the conditional signal profile is flat.

    Whenever ``E[g | h]`` does not depend on ``h`` (point-mass designs,
    point-mass signals, or any flat profile), the optimum is
    ``sigma2 / E[g]`` exactly.  Returns None when the profile is not flat;
    the noiseless flat case returns the boundary value 0.  A flat profile
    without signal (``g = 0``) raises DomainError.
    """
    _, means, masses = conditional_means(model.spectrum)
    if _monotonicity(means) != "constant":
        return None
    _require_signal(model.spectrum)
    e_g = float(np.dot(masses, means))
    lam_opt = model.sigma2 / e_g
    try:
        domain = regime_guard(model)
    except RegimeError:
        domain = (lam_opt, lam_opt)
    if lam_opt == 0.0 and model.gamma == 1.0:
        # Noiseless interpolation at the critical ratio: risk vanishes in
        # the limit but the fixed point itself degenerates.
        risk_val = 0.0
    else:
        risk_val = asymptotic_risk(model, lam_opt).total
    sign = "zero" if lam_opt == 0.0 else "positive"
    return LambdaOptResult(
        lambda_opt=lam_opt,
        risk_at_opt=risk_val,
        method="closed_form",
        sign_class=sign,
        domain=domain,
    )


def _require_signal(spectrum: JointSpectrum) -> None:
    if spectrum.e_gh() == 0.0:
        raise DomainError(
            "the optimal regularization is not finite without signal (E[g h] = 0): "
            "the risk falls toward lam = +inf, or is flat when sigma2 = 0"
        )


def regime_guard(model: ModelSpec) -> tuple:
    """Admissible search interval for the optimal regularization.

    Overparameterized problems may search a margin above the effective
    negative limit; underparameterized ones are restricted to
    nonnegative values (their optimum is never negative).  The critical
    ratio ``gamma = 1`` is rejected: the ridgeless endpoint degenerates
    and no finite search interval is trustworthy there.  Without signal
    (``E[g h] = 0``) there is no finite optimum, a DomainError.
    """
    if model.gamma == 1.0:
        raise RegimeError("aspect ratio exactly 1 is excluded from optimum searches")
    _require_signal(model.spectrum)
    lam_max = 100.0 * (model.sigma2 + model.gamma * model.spectrum.e_gh())
    if model.gamma < 1.0:
        return (0.0, lam_max)
    edge = find_edge(model)
    lo = -edge.c0_effective * (1.0 - 1e-3)
    return (lo, lam_max)


# ---------------------------------------------------------------------------
# derivative-based search
# ---------------------------------------------------------------------------


def _search_grid(lo: float, hi: float) -> np.ndarray:
    """Sign-scan grid: geometric resolution toward 0 from both sides."""
    if lo < 0.0:
        neg = -np.geomspace(-lo, -lo * 1e-8, _GRID_POINTS - 342)
        pos = np.geomspace(hi * 1e-10, hi, 341)
        return np.concatenate([neg, [0.0], pos])
    return np.concatenate([[0.0], np.geomspace(hi * 1e-10, hi, _GRID_POINTS - 1)])


def _deriv_sum(model: ModelSpec, m: float) -> float:
    parts = derivative_parts(model, np.array([m]))
    return float(parts.part3[0] + parts.part4[0])


def lambda_opt_search(model: ModelSpec) -> LambdaOptResult:
    """Locate the risk-minimizing regularization by derivative sign scan.

    Solves the fixed point on a 512-point grid with geometric resolution
    near zero in one array solve, and evaluates the closed-form derivative
    parts at all grid solutions at once.  Every sign change is refined by
    bisection in ``m`` between the solutions at its two grid points, where
    the derivative is closed form, so no further fixed-point solve is
    needed; a root ``m*`` maps back to ``lam = lambda_of_m(m*)`` and its
    risk is read off ``m*`` directly.  The result is the global risk
    argmin over the roots (plus the exact ridgeless endpoint in the
    underparameterized regime).  Falls back to golden section on the risk
    when no sign change is bracketed.  When a closed form applies it is
    returned as is if it lies outside the search domain; inside, the
    search result is cross-checked against it and a disagreement beyond
    1e-6 raises SolverError.
    """
    lo, hi = regime_guard(model)
    closed = lambda_opt_closed_form(model)
    if closed is not None and not lo <= closed.lambda_opt <= hi:
        return closed
    grid = _search_grid(lo, hi)
    underparam = model.gamma < 1.0
    # the fixed point degenerates at the ridgeless endpoint, grid[0] = 0
    m = solve_m_grid(model, grid[1:] if underparam else grid)
    parts = derivative_parts(model, m)
    derivs = parts.part3 + parts.part4

    roots = []  # fixed-point solutions m at the derivative roots, in grid order
    for k in np.flatnonzero((derivs[:-1] == 0.0) | (derivs[:-1] * derivs[1:] < 0.0)):
        if derivs[k] == 0.0:
            roots.append(float(m[k]))
        else:
            # m falls as lam rises; bisect wants f > 0 at the left (smaller) end
            sign = math.copysign(1.0, derivs[k + 1])
            roots.append(bisect(lambda t: sign * _deriv_sum(model, t), float(m[k + 1]), float(m[k]),
                                _M_RTOL, _BISECT_MAX_ITER))
    if derivs[-1] == 0.0:
        roots.append(float(m[-1]))

    candidates = [(ev.lam, ev.total, "derivative_root") for ev in (risk_at_m(model, r) for r in roots)]
    if underparam:
        candidates.append((0.0, asymptotic_risk(model, 0.0).total, "golden_section"))
    if not roots:
        a = float(grid[1]) if underparam else lo
        lam_g = golden_min(lambda t: asymptotic_risk(model, t).total, a, hi,
                           _GOLDEN_RTOL, _GOLDEN_MAX_ITER, _GOLDEN_FLOOR)
        candidates.append((lam_g, asymptotic_risk(model, lam_g).total, "golden_section"))

    candidates.sort(key=lambda c: c[1])
    lam_opt, risk_opt, method = candidates[0]

    tie = any(
        abs(c[1] - risk_opt) <= _TIE_RTOL * max(1.0, abs(risk_opt))
        and abs(c[0] - lam_opt) > max(_ZERO_ATOL, 1e-6 * abs(lam_opt))
        for c in candidates[1:]
    )
    if tie:
        sign = "indeterminate"
    elif abs(lam_opt) <= _ZERO_ATOL:
        sign = "zero"
    else:
        sign = "negative" if lam_opt < 0.0 else "positive"

    if closed is not None and abs(closed.lambda_opt - lam_opt) > 1e-6 * max(1.0, abs(closed.lambda_opt)):
        raise SolverError(
            "search disagrees with the applicable closed form",
            {"search": lam_opt, "closed_form": closed.lambda_opt},
        )
    return LambdaOptResult(
        lambda_opt=lam_opt,
        risk_at_opt=risk_opt,
        method=method,
        sign_class=sign,
        domain=(lo, hi),
    )


# ---------------------------------------------------------------------------
# negative-regularization threshold for the two-point family
# ---------------------------------------------------------------------------


def negative_ridge_threshold(spec: TwoPointSpec) -> float:
    """Noise level below which the optimum goes negative.

    Closed-form sufficient threshold for the two-point family: for noise
    variances strictly below it the optimal regularization is negative,
    at or above it nonnegative.  The first branch of the inner maximum
    only exists when the spike alone keeps the problem overparameterized
    (``gamma q > 1``); otherwise only the second branch applies.
    """
    q, h1, g1, gamma = spec.q, spec.h1, spec.g1, spec.gamma
    gbar = gamma - 1.0
    pref = (h1 - 1.0) * (g1 - 1.0) * h1
    b2 = (
        gamma * q * (1.0 - q) * gbar**3
        / ((1.0 - q) * (h1 + gbar) ** 3 + q * h1**2 * gamma**3)
    )
    if gamma * q > 1.0:
        gq = gamma * q - 1.0
        b1 = (
            gq**3 * gbar**3 * (1.0 - q)
            / ((1.0 - q) * gamma**2 * (gbar**3 * q**2 + gq**3 * h1**2))
        )
        return pref * max(b1, b2)
    return pref * b2


# ---------------------------------------------------------------------------
# isotropic-signal sweep over the aspect ratio
# ---------------------------------------------------------------------------


def monotonicity_sweep(
    spectrum: JointSpectrum,
    sigma2: float,
    gamma_grid,
) -> list:
    """Optimally tuned risk as dimensions proliferate at fixed signal.

    The signal energy is held at the flat total ``c`` (the common value of
    ``g`` in the input spectrum) while the aspect ratio grows, so the
    per-direction energy scales like ``c / gamma`` and the optimum is
    ``gamma * sigma2 / c`` exactly.  Returns ``(gamma, lambda_opt, risk)``
    rows and checks the risk sequence is non-decreasing within 1e-10; a
    violation raises SolverError since it would falsify the closed form.
    A spectrum without signal (``c = 0``) has no finite optimum, a
    DomainError.
    """
    _, means, _ = conditional_means(spectrum)
    if _monotonicity(means) != "constant":
        raise DomainError("sweep requires a flat signal profile (g constant)")
    _require_signal(spectrum)
    c = float(means[0])
    rows = []
    for gamma in gamma_grid:
        gamma = float(gamma)
        if sigma2 == 0.0:
            if gamma >= 1.0:
                raise DomainError(
                    "noiseless sweep is only defined for gamma < 1 (interpolation succeeds)"
                )
            rows.append((gamma, 0.0, 0.0))
            continue
        lam_opt = gamma * sigma2 / c
        m = solve_m(ModelSpec(gamma, sigma2, spectrum), lam_opt).m
        rows.append((gamma, lam_opt, sigma2 / (lam_opt * m)))
    risks = [r[2] for r in rows]
    for a, b in zip(risks[:-1], risks[1:]):
        if b < a - 1e-10 * max(1.0, abs(a)):
            raise SolverError("optimally tuned risk decreased along the sweep", {"rows": rows})
    return rows


# ---------------------------------------------------------------------------
# penalty selection
# ---------------------------------------------------------------------------

_WEIGHTING_MODES = ("ridgeless_bias", "ridgeless_variance", "optimal_lambda", "s_only_optimal")


def select_weighting(wspec: WeightedSpectrum, mode: str) -> np.ndarray:
    """Per-atom optimal penalty profile for the requested criterion.

    ``ridgeless_bias`` and ``optimal_lambda`` both return the product
    profile ``r = s v`` (optimal for the bias at the interpolation point
    and for the optimally tuned total risk).  ``ridgeless_variance``
    returns the flat profile ``r = 1`` (penalty proportional to the design
    covariance).  ``s_only_optimal`` is the best profile measurable from
    the design alone: ``r = E[v | s] * s``, grouping eigenvalues within a
    relative 1e-12.
    """
    if mode not in _WEIGHTING_MODES:
        raise DomainError(f"unknown weighting mode {mode!r}; expected one of {_WEIGHTING_MODES}")
    if mode in ("ridgeless_bias", "optimal_lambda"):
        return np.array(wspec.s * wspec.v)
    if mode == "ridgeless_variance":
        return np.ones_like(wspec.s)
    order = np.argsort(wspec.s, kind="stable")
    r = np.empty_like(wspec.s)
    i = 0
    svals, vvals, wvals = wspec.s[order], wspec.v[order], wspec.w[order]
    while i < order.size:
        j = i + 1
        while j < order.size and abs(svals[j] - svals[i]) <= 1e-12 * max(1.0, abs(svals[i])):
            j += 1
        mean_v = float(np.dot(wvals[i:j], vvals[i:j])) / float(np.sum(wvals[i:j]))
        r[order[i:j]] = svals[i:j] * mean_v
        i = j
    return r


def weighted_lambda_opt(
    wspec: WeightedSpectrum,
    gamma: float,
    sigma2: float,
) -> LambdaOptResult:
    """Optimal regularization for a generalized penalty via projection."""
    return lambda_opt_search(weighted_model(wspec, gamma, sigma2))
