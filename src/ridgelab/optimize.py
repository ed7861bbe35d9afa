"""Optimal regularization: sign analysis, closed forms, and search.

The headline quantity is the risk-minimizing regularization value, which
can be negative when strong eigendirections carry disproportionately
strong signal and noise is small.  The search machinery is derivative
based: the risk derivative factors into a positive prefactor times a sum
of two signed parts, so locating sign changes of that sum is both cheaper
and better conditioned than minimizing the risk directly.  The search
runs in the fixed-point solution ``m`` rather than in ``lam``: both parts
are closed form in ``m`` and ``lam(m) = 1/m - gamma E[h/(1+hm)]`` is
explicit, so the scan over the whole domain, ``lam`` up to about 1e150,
needs the fixed point only at the domain's negative end and at 0.  Each
sign change is refined in ``m``; with none, the risk rises over the whole
domain and its lower end is the optimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegimeError, SolverError
from .risk import asymptotic_risk, derivative_parts, risk_at_m, weighted_model
from .spectra import JointSpectrum, ModelSpec, WeightedSpectrum
from .stieltjes import find_edge, solve_m, solve_m_grid

_ZERO_ATOL = 1e-7
_TIE_RTOL = 1e-9
# derivative roots are refined in m to 1e-14 relative: lam moves by at most
# about 1e-14 * (|lam| + gamma E[h]), far inside the 1e-12 of a scalar solve
_M_RTOL = 1e-14
_MAX_STEPS = 200  # step cap of the root refinement
# the scan keeps 1e-150 <= u = 1/m <= 1e150 and places 32 points per decade
# of its offsets from u(lam = 0)
_U_LIMIT = 1e150
_PER_DECADE = 32


@dataclass(frozen=True)
class LambdaOptResult:
    """Outcome of an optimal-regularization computation.

    ``method`` records how the value was obtained: ``closed_form``,
    ``derivative_root`` (a sign change of the derivative), or ``endpoint``
    (the ridgeless end ``lam = 0`` when ``gamma < 1``, or the lower end of
    the domain when the risk rises over all of it).  ``sign_class`` is one of
    ``negative``, ``zero``, ``positive``, ``indeterminate``; ``domain`` is
    the admissible search interval ``(lo, inf)``.
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


def _levels(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple:
    """Group the values of ``x`` into levels and average ``y`` over each.

    Returns ``(order, labels, levels, means, masses)``: ``order`` sorts ``x``
    stably, ``labels[i]`` is the level of ``x[order[i]]``, and each level
    holds its anchor (its first sorted value), the ``w``-weighted mean of
    ``y`` and the summed ``w``.  A value joins the level of the anchor
    before it when it lies within 1e-12 * max(1, |value|) of that anchor.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    tol = 1e-12 * np.maximum(1.0, np.abs(xs))
    # a value beyond reach of its predecessor is beyond reach of every anchor
    # before it, so these gaps start levels; a run without such a gap is one
    # level unless it reaches farther than its anchor's tolerance
    start = np.concatenate([[True], xs[1:] - xs[:-1] > tol[1:]])
    run = np.maximum.accumulate(np.where(start, np.arange(xs.size), 0))
    if np.any(np.abs(xs - xs[run]) > tol):  # such a run: anchor its levels one value at a time
        anchor = xs[0]
        for i in range(1, xs.size):
            start[i] = abs(xs[i] - anchor) > tol[i]
            if start[i]:
                anchor = xs[i]
    labels = np.cumsum(start) - 1
    ws = w[order]
    masses = np.bincount(labels, weights=ws)  # summed in sorted order, one atom at a time
    return order, labels, xs[start], np.bincount(labels, weights=ws * y[order]) / masses, masses


def conditional_means(spectrum: JointSpectrum):
    """Group atoms by eigenvalue and average the signal energy per level.

    Returns ``(levels, means, masses)`` with levels ascending; an
    eigenvalue within 1e-12 * max(1, |h|) of the first (smallest) one of
    a level belongs to that level.
    """
    return _levels(spectrum.h, spectrum.g, spectrum.w)[2:]


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
    """Admissible search interval ``(lo, inf)`` for the optimal regularization.

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
    if model.gamma < 1.0:
        return (0.0, math.inf)
    edge = find_edge(model)
    return (-edge.c0_effective * (1.0 - 1e-3), math.inf)


# ---------------------------------------------------------------------------
# derivative-based search
# ---------------------------------------------------------------------------


def _scan_limits(model: ModelSpec) -> tuple:
    """``(u_min, u_max)`` in ``u = 1/m``, within ``[1e-150, 1e150]``: no root
    of the derivative sum lies above ``u_max`` nor, when ``gamma < 1``,
    below ``u_min`` (1e-150 when ``gamma > 1``).

    With ``z = h m``, ``A = E[z^2/(1+z)^3]``, ``B = E[g h z/(1+z)^3]``,
    ``C = E[g h/(1+z)^2]`` and the margin ``M = 1 - gamma E[z^2/(1+z)^2]``,
    the sum is ``S = B - A (sigma2 + gamma C) / M``.  Where every
    ``z <= eps`` with ``gamma eps^2 <= 1/2``, ``S >= m E[g h^2] / 1.331 -
    2 m^2 E[h^2] (sigma2 + gamma E[g h])``, positive for ``m < 0.375
    E[g h^2] / (E[h^2] (sigma2 + gamma E[g h]))``.  Where every positive
    ``z >= 4``, ``A`` and ``B`` lie within a factor 0.512 of ``E+[1/h]/m``
    and ``E+[g/h]/m^2`` (``E+`` over ``h > 0``) and ``1 - gamma P(h > 0) <=
    M <= 1``: ``S > 0`` once ``m > 2 gamma E+[1/h] / (1 - gamma P(h > 0))``
    when ``sigma2 = 0``, and ``S < 0`` once ``m > 2 E+[g/h] / (sigma2
    E+[1/h])`` when ``sigma2 > 0``.
    """
    spec, gamma, sigma2 = model.spectrum, model.gamma, model.sigma2
    h, g, w = spec.h, spec.g, spec.w
    hs = h / h.max()  # h^2 scaled so that it cannot overflow
    g2 = float(np.dot(w, g * hs * hs)) / float(np.dot(w, hs * hs))  # E[g h^2] / E[h^2]
    eps = min(0.1, math.sqrt(0.5 / gamma))
    u_max = max(float(h.max()) / eps, (sigma2 + gamma * spec.e_gh()) / (0.375 * g2) if g2 else math.inf)
    u_min = 0.0
    if gamma < 1.0:
        pos = h > 0.0
        h_min = float(h[pos].min())
        if sigma2 == 0.0:  # by E+[1/h] <= P(h > 0) / h_min
            gp = gamma * spec.positive_mass()
            u_min = h_min * min(0.25, (1.0 - gp) / (2.0 * gp))
        else:
            inv = w[pos] * (h_min / h[pos])  # the weights of E+[1/h], scaled by h_min
            g_inv = float(np.dot(inv, g[pos])) / float(inv.sum())  # E+[g/h] / E+[1/h]
            u_min = min(0.25 * h_min, sigma2 / (2.0 * g_inv) if g_inv else math.inf)
    return max(u_min, 1.0 / _U_LIMIT), min(u_max, _U_LIMIT)


def _scan_grid(model: ModelSpec, lo: float) -> np.ndarray:
    """The ``m`` of the sign scan, descending (``lam`` ascending), in
    ``u = 1/m`` with ``u0 = 1/m(0)``: ``m(lo)``; ``u`` geometric from
    ``1/m(lo)`` to ``u0``, together with ``u0 - u`` geometric over 8 decades
    toward 0; ``m(0)``; then ``u - u0`` geometric from ``1e-8 min(u0,
    sigma2 + gamma E[g h])`` up to ``u_max``.  So ``m`` is resolved at 32
    points per decade everywhere and to 1e-8 relative around ``m(0)``.
    With ``gamma < 1``, ``m(0)`` is infinite and ``u`` runs geometrically
    from ``u_min`` to ``u_max``."""
    u_min, u_max = _scan_limits(model)
    if model.gamma < 1.0:
        u0, t_lo, pieces = 0.0, u_min, []
    else:
        m_lo, m0 = solve_m_grid(model, [lo, 0.0])
        u_lo, u0 = 1.0 / m_lo, 1.0 / m0
        t_lo = 1e-8 * min(u0, model.sigma2 + model.gamma * model.spectrum.e_gh())
        left = np.sort(np.concatenate([np.geomspace(u_lo, u0, math.ceil(_PER_DECADE * math.log10(u0 / u_lo)) + 1),
                                       u0 - (u0 - u_lo) * np.geomspace(1.0, 1e-8, 8 * _PER_DECADE + 1)]))
        pieces = [[m_lo], 1.0 / left[(left > u_lo) & (left < u0)], [m0]]
    t_hi = u_max - u0
    if t_hi > 0.0:  # else m(0) <= 1/u_max already
        t_lo = min(t_lo, t_hi)
        pieces.append(1.0 / (u0 + np.geomspace(t_lo, t_hi, math.ceil(_PER_DECADE * math.log10(t_hi / t_lo)) + 1)))
    return np.concatenate(pieces)


def _deriv_sums(model: ModelSpec, m: np.ndarray) -> np.ndarray:
    parts = derivative_parts(model, m.ravel())
    return (parts.part3 + parts.part4).reshape(m.shape)


def _refine_roots(model: ModelSpec, lo: np.ndarray, hi: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The root of the derivative sum ``S`` in every bracket ``lo < m < hi``
    at once, where ``sign * S`` is positive at ``lo`` and nonpositive at
    ``hi``: each step evaluates ``S`` at 15 inner points of every live
    bracket in one array call and keeps the sixteenth where the sign first
    changes, until the bracket is within 1e-14 relative; SolverError after
    200 steps."""
    t = np.linspace(0.0, 1.0, 17)
    live = np.arange(lo.size)
    for _ in range(_MAX_STEPS):
        live = live[hi[live] - lo[live] > _M_RTOL * hi[live]]
        if live.size == 0:
            return 0.5 * (lo + hi)
        grid = lo[live, None] + (hi - lo)[live, None] * t
        grid[:, -1] = hi[live]
        above = sign[live, None] * _deriv_sums(model, grid[:, 1:-1]) > 0.0
        k = np.argmin(np.column_stack([above, np.zeros(live.size, dtype=bool)]), axis=1)  # S flips by k + 1
        rows = np.arange(live.size)
        lo[live], hi[live] = grid[rows, k], grid[rows, k + 1]
    raise SolverError("root refinement did not reach tolerance", {"max_iter": _MAX_STEPS, "unconverged": live.size})


def lambda_opt_search(model: ModelSpec) -> LambdaOptResult:
    """Locate the risk-minimizing regularization by derivative sign scan in ``m``.

    Solves the fixed point only at the domain's negative end and at 0
    (neither when ``gamma < 1``), and evaluates the closed-form derivative
    parts over the whole ``m`` grid of :func:`_scan_grid` at once.  Every
    sign change is refined in ``m`` (:func:`_refine_roots`), where the
    derivative is closed form; a root ``m*`` maps back to
    ``lam = lambda_of_m(m*)`` and its risk is read off ``m*`` directly.
    The result is the global risk argmin over the roots, plus the exact
    ridgeless endpoint when ``gamma < 1``; with no root the risk rises over
    the whole domain and its lower end is taken.  An optimum beyond
    ``lam = 1e150``, where the risk still falls at the end of the scan, is
    a DomainError.  When a closed form applies it is the result, once the
    search agrees with it to 1e-6, or to the precision of ``lambda(m)`` where
    that is coarser (a disagreement raises SolverError), so
    a flat noiseless profile gets exactly 0, not the search's rounding.
    """
    lo, hi = regime_guard(model)
    closed = lambda_opt_closed_form(model)
    underparam = model.gamma < 1.0
    m = _scan_grid(model, lo)
    derivs = _deriv_sums(model, m)

    # fixed-point solutions m at the derivative roots, in grid order; m falls
    # as lam rises, so a bracket runs from m[k + 1] up to m[k]
    signs = np.sign(derivs)
    roots = np.where(signs == 0.0, m, np.nan)
    k = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    roots[k] = _refine_roots(model, m[k + 1], m[k], signs[k + 1])
    roots = roots[~np.isnan(roots)].tolist()
    if derivs[-1] < 0.0:  # only where u_max was clipped to 1e150
        raise DomainError("the risk still falls at m = 1e-150: the optimum lies beyond lam = 1e150")
    # with no root the risk rises over the whole domain: its lower end wins
    # (the ridgeless end, a candidate anyway, when gamma < 1)
    ends = [] if roots or underparam else [float(m[0])]

    evaluations = risk_at_m(model, roots + ends)
    candidates = [(ev.lam, ev.total, "derivative_root" if i < len(roots) else "endpoint")
                  for i, ev in enumerate(evaluations)]
    if underparam:
        candidates.append((0.0, asymptotic_risk(model, 0.0).total, "endpoint"))

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

    # lambda(m) cancels terms up to |lam| + gamma E[h]: a root refined in m fixes lam to about 1e-14 of that
    tol = 1e-14 * (abs(lam_opt) + model.gamma * float(np.dot(model.spectrum.w, model.spectrum.h)))
    if closed is not None and abs(closed.lambda_opt - lam_opt) > max(1e-6 * max(1.0, abs(closed.lambda_opt)), tol):
        raise SolverError(
            "search disagrees with the applicable closed form",
            {"search": lam_opt, "closed_form": closed.lambda_opt},
        )
    return closed or LambdaOptResult(
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
    the design alone: ``r = E[v | s] * s``, with the eigenvalue levels of
    :func:`conditional_means`.
    """
    if mode not in _WEIGHTING_MODES:
        raise DomainError(f"unknown weighting mode {mode!r}; expected one of {_WEIGHTING_MODES}")
    if mode in ("ridgeless_bias", "optimal_lambda"):
        return np.array(wspec.s * wspec.v)
    if mode == "ridgeless_variance":
        return np.ones_like(wspec.s)
    order, labels, _, means, _ = _levels(wspec.s, wspec.v, wspec.w)
    r = np.empty_like(wspec.s)
    r[order] = wspec.s[order] * means[labels]
    return r


def weighted_lambda_opt(
    wspec: WeightedSpectrum,
    gamma: float,
    sigma2: float,
) -> LambdaOptResult:
    """Optimal regularization for a generalized penalty via projection."""
    return lambda_opt_search(weighted_model(wspec, gamma, sigma2))
