"""Second routes to quantities the package computes one way, for tests to
cross-check against.  None of them is part of the package's API."""

import math
from typing import NamedTuple

import numpy as np

from ridgelab import (
    DomainError,
    IllConditionedDraw,
    JointSpectrum,
    MatrixEnsemble,
    ModelSpec,
    MonteCarloConfig,
    RegimeError,
    RiskEvaluation,
    SolverError,
    asymptotic_risk,
    interpolate_penalty,
    lambda_opt_closed_form,
    pcr_risk,
    regime_guard,
    replicate_rng,
    risk_derivative,
    sample_design,
    solve_m,
    solve_m_theta,
    split_top_mass,
    weighted_model,
)
from ridgelab.montecarlo import _DROP_GUARD, _NULLSPACE_CUTOFF
from ridgelab.optimize import _TIE_RTOL, _ZERO_ATOL, LambdaOptResult
from ridgelab.stieltjes import _MAX_ITER, _TOL, StieltjesSolution, _companion_direct


def bisect(f, lo: float, hi: float, rtol: float, max_iter: int, floor: float = 0.0) -> float:
    """Midpoint of ``[lo, hi]`` after shrinking it around a sign change of ``f``.

    ``f`` must be positive left of the root and nonpositive right of it.
    Stops once ``hi - lo <= rtol * max(hi, -lo, floor)`` and raises
    SolverError if that takes more than ``max_iter`` halvings.
    """
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * max(hi, -lo, floor):
            return 0.5 * (lo + hi)
    raise SolverError("bisection did not reach tolerance", {"lo": lo, "hi": hi, "max_iter": max_iter})


def expand_bracket(f, x: float, factor: float, max_iter: int) -> tuple:
    """First ``x * factor**k`` (``k >= 0``) at which ``f`` is negative.

    Returns ``(previous, found)`` where ``previous`` is the point tried
    just before (0 when ``k = 0``); raises SolverError after ``max_iter``
    tries.
    """
    prev = 0.0
    for _ in range(max_iter):
        if f(x) < 0.0:
            return prev, x
        prev, x = x, x * factor
    raise SolverError("failed to bracket a sign change", {"x": x, "factor": factor, "max_iter": max_iter})


def second_derivative(model: ModelSpec, sol: StieltjesSolution) -> float:
    """Closed-form ``m''`` at a solved point."""
    frac = model.spectrum.h * sol.m / (1.0 + model.spectrum.h * sol.m)
    d2 = 1.0 - model.gamma * float(np.dot(model.spectrum.w, frac**2))
    d3 = 1.0 - model.gamma * float(np.dot(model.spectrum.w, frac**3))
    return 2.0 * d3 / d2 * sol.m_prime**2 / sol.m


class CompanionSolution(NamedTuple):
    lam: float
    s: float
    m_from_s: float  # (1 - gamma)/lam + gamma * s; inf at lam = 0 with gamma < 1
    residual: float


def solve_companion(model: ModelSpec, lam: float) -> CompanionSolution:
    """Sample-side resolvent trace ``s`` with the residual of its fixed point
    ``s = E[1 / (h (1 - gamma + gamma lam s) + lam)]``.

    Recovered from ``m`` when ``gamma * P(h > 0) > 1`` (needs ``lam > 0``).
    Below that ratio: the closed form ``E[1/h] / (1 - gamma)`` at
    ``lam = 0``, the package's direct companion solve at ``lam < 0``, and
    at ``lam > 0`` a bisection of its own on the fixed point, where the
    right side minus ``s`` decreases.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lam must be finite, got {lam!r}")
    gamma, spec = model.gamma, model.spectrum
    if gamma * spec.positive_mass() > 1.0:
        if lam <= 0.0:
            raise DomainError("companion recovery in the overparameterized regime needs lam > 0")
        m = solve_m(model, lam).m
        s = (lam * m - 1.0 + gamma) / (gamma * lam)
    elif lam == 0.0:
        if gamma >= 1.0 or spec.truncated:
            raise DomainError("companion closed form at lam = 0 needs gamma < 1 and a full-mass spectrum")
        s, m = float(np.dot(spec.w, 1.0 / spec.h)) / (1.0 - gamma), math.inf
    elif lam < 0.0:
        if gamma >= 1.0 or spec.truncated:
            raise DomainError("the companion route needs gamma < 1 and a full-mass spectrum")
        s = float(_companion_direct(model, np.array([lam]))[0])
        if math.isnan(s):
            raise DomainError(f"no companion solution at lam={lam!r}")
        m = (1.0 - gamma) / lam + gamma * s
    else:
        def G(s: float) -> float:
            return float(np.dot(spec.w, 1.0 / (spec.h * (1.0 - gamma + gamma * lam * s) + lam))) - s

        lo, hi = expand_bracket(G, max(1.0 / lam, 1.0), 2.0, _MAX_ITER)
        s = bisect(G, lo, hi, _TOL, _MAX_ITER, 1e-300)
        m = (1.0 - gamma) / lam + gamma * s
    rhs = float(np.dot(spec.w, 1.0 / (spec.h * (1.0 - gamma + gamma * lam * s) + lam)))
    return CompanionSolution(lam, s, m, abs(rhs - s) / max(1.0, abs(s)))


def alternative_total_risk(model: ModelSpec, lam: float) -> float:
    """Total risk through the margin identity, algebraically equal to
    ``asymptotic_risk(...).total``; the two fail differently under stress."""
    spec = model.spectrum
    zeta = spec.h * solve_m(model, lam).m
    margin = 1.0 - model.gamma * float(np.dot(spec.w, (zeta / (1.0 + zeta)) ** 2))
    return (model.sigma2 + model.gamma * float(np.dot(spec.w, spec.g * spec.h / (1.0 + zeta) ** 2))) / margin


class AlphaPath(NamedTuple):
    alpha: float
    r_alpha_atoms: tuple  # alpha * s v + (1 - alpha) * r
    psi_atoms: tuple  # s v * m_alpha, the coordinates of the path's monotonicity argument


def alpha_path_state(wspec, gamma: float, sigma2: float, alpha: float, lam: float) -> AlphaPath:
    """Diagnostics for the penalty-interpolation path at one ``alpha``."""
    blended = interpolate_penalty(wspec, alpha)
    m = solve_m(weighted_model(blended, gamma, sigma2), lam).m
    return AlphaPath(alpha, tuple(float(r) for r in blended.r), tuple(float(p) for p in wspec.s * wspec.v * m))


def loop_conditional_means(spectrum):
    """``conditional_means`` one atom at a time in sorted order: an atom
    joins the current level when its ``h`` lies within
    1e-12 * max(1, |h|) of the level's first ``h``."""
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


def loop_merged(spectrum, tol: float = 1e-12):
    """``JointSpectrum.merged`` one atom at a time in ``(h, g)`` order: an atom
    joins the current group when its ``h`` and ``g`` both lie within ``tol``
    of the group's first atom, whose weight it adds to."""
    order = np.lexsort((spectrum.g, spectrum.h))
    out: list[list[float]] = []
    for i in order:
        hi, gi, wi = float(spectrum.h[i]), float(spectrum.g[i]), float(spectrum.w[i])
        if out and abs(out[-1][0] - hi) <= tol and abs(out[-1][1] - gi) <= tol:
            out[-1][2] += wi
        else:
            out.append([hi, gi, wi])
    return JointSpectrum(out, truncated=spectrum.truncated)


def truncate_top(spectrum, theta: float):
    """Keep the top-``theta`` eigenvalue mass; park the rest at ``h = 0``.

    Models projecting data onto the leading principal subspace: dropped
    directions keep their signal energy (it becomes approximation error)
    but contribute nothing to the design.  The boundary atom is split
    proportionally so the retained mass is exactly ``theta``.
    """
    h, g, w_kept, w_dropped = split_top_mass(spectrum, theta)
    atoms = []
    for hi, gi, wk, wd in zip(h, g, w_kept, w_dropped):
        if wk > 0:
            atoms.append((hi, gi, wk))
        if wd > 0:
            atoms.append((0.0, gi, wd))
    return JointSpectrum(atoms, truncated=True)


def pointwise_pcr_risk(model: ModelSpec, theta: float) -> RiskEvaluation:
    """Truncated-regression risk at one ``theta`` through its own truncated
    model: :func:`truncate_top`, then the principal solve at ``lam = 0``
    bracketed by ``find_edge``, and the grouped form (retained and dropped
    mass summed separately).  The boundary band ``|theta * gamma - 1| <
    1e-11`` is a RegimeError."""
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta!r}")
    tg = theta * model.gamma
    if abs(tg - 1.0) < 1e-11:
        raise RegimeError(f"theta * gamma = {tg!r} sits in the divergent boundary band")
    h, g, w_kept, w_dropped = split_top_mass(model.spectrum, theta)
    gh = g * h
    if tg > 1.0:
        sol = solve_m(ModelSpec(model.gamma, model.sigma2, truncate_top(model.spectrum, theta)), 0.0)
        pref = sol.m_prime / sol.m**2
        kept_term = model.gamma * float(np.dot(w_kept, gh / (1.0 + h * sol.m) ** 2))
        dropped_term = model.gamma * float(np.dot(w_dropped, gh))
        bias = pref * (kept_term + dropped_term)
        variance = model.sigma2 * pref
    else:
        bias = model.gamma * float(np.dot(w_dropped, gh)) / (1.0 - tg)
        variance = model.sigma2 / (1.0 - tg)
    return RiskEvaluation(lam=0.0, total=bias + variance, bias=bias, variance=variance)


# The capped penalty grid of the scalar search: 512 points, geometric toward
# 0 from both sides, up to lam_max = 100 (sigma2 + gamma E[g h]).
_GRID_POINTS = 512
# golden section on the risk stops at width <= 2e-11 * max(b, -a, 0.5): 1e-11
# relative to |a| + |b| on a narrow interval, never below 1e-11 absolute
_GOLDEN_RTOL, _GOLDEN_FLOOR = 2e-11, 0.5


def _search_grid(lo: float, hi: float) -> np.ndarray:
    """Sign-scan grid: geometric resolution toward 0 from both sides."""
    if lo < 0.0:
        neg = -np.geomspace(-lo, -lo * 1e-8, _GRID_POINTS - 342)
        pos = np.geomspace(hi * 1e-10, hi, 341)
        return np.concatenate([neg, [0.0], pos])
    return np.concatenate([[0.0], np.geomspace(hi * 1e-10, hi, _GRID_POINTS - 1)])


def golden_min(f, a: float, b: float, rtol: float, max_iter: int, floor: float = 0.0) -> float:
    """Golden-section minimum of a unimodal ``f`` on ``[a, b]``: stops once
    ``b - a <= rtol * max(b, -a, floor)``, SolverError after ``max_iter``
    steps."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= rtol * max(b, -a, floor):
            return 0.5 * (a + b)
    raise SolverError("golden section did not reach tolerance", {"a": a, "b": b, "max_iter": max_iter})


def _deriv_sum(model: ModelSpec, lam: float) -> float:
    parts = risk_derivative(model, lam)
    return parts.part3 + parts.part4


def scalar_lambda_opt_search(model: ModelSpec) -> LambdaOptResult:
    """The optimum search over a capped ``lam`` grid, with one scalar
    fixed-point solve per grid point and per bisection step in ``lam``,
    and a golden section on the risk when no sign change is bracketed
    (``method="golden_section"``, also the label of the ridgeless
    endpoint when ``gamma < 1``).  Its ``domain`` is ``(lo, lam_max)``.
    ``lambda_opt_search`` scans the whole domain in ``m`` instead; where
    this search finds an interior root the two agree."""
    lo = regime_guard(model)[0]
    hi = 100.0 * (model.sigma2 + model.gamma * model.spectrum.e_gh())
    grid = _search_grid(lo, hi)
    underparam = model.gamma < 1.0

    derivs = np.full(grid.shape, np.nan)
    for i, lam in enumerate(grid):
        if underparam and lam == 0.0:
            continue  # fixed point degenerates at the ridgeless endpoint
        derivs[i] = _deriv_sum(model, float(lam))

    roots = []
    finite = ~np.isnan(derivs)
    idx = np.flatnonzero(finite)
    for a, b in zip(idx[:-1], idx[1:]):
        da, db = derivs[a], derivs[b]
        if da == 0.0:
            roots.append(float(grid[a]))
        elif da * db < 0.0:
            sign = math.copysign(1.0, da)  # bisect wants f > 0 left of the root
            roots.append(bisect(lambda t: sign * _deriv_sum(model, t), float(grid[a]), float(grid[b]),
                                _TOL, _MAX_ITER, 1.0))
    if finite.size and derivs[idx[-1]] == 0.0:
        roots.append(float(grid[idx[-1]]))

    candidates = [(lam, asymptotic_risk(model, lam).total, "derivative_root") for lam in roots]
    if underparam:
        candidates.append((0.0, asymptotic_risk(model, 0.0).total, "golden_section"))
    if not roots:
        a = float(grid[1]) if underparam else lo
        lam_g = golden_min(lambda t: asymptotic_risk(model, t).total, a, hi,
                           _GOLDEN_RTOL, 3 * _MAX_ITER, _GOLDEN_FLOOR)
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

    closed = lambda_opt_closed_form(model)
    if closed is not None:
        if abs(closed.lambda_opt - lam_opt) > 1e-6 * max(1.0, abs(closed.lambda_opt)):
            raise SolverError(
                "search disagrees with the applicable closed form",
                {"search": lam_opt, "closed_form": closed.lambda_opt},
            )
        return closed
    return LambdaOptResult(
        lambda_opt=lam_opt,
        risk_at_opt=risk_opt,
        method=method,
        sign_class=sign,
        domain=(lo, hi),
    )


def display_form_numerator(spectrum, theta: float, m: float, gamma: float) -> float:
    """Signal term of the truncated-regression risk, evaluated straight
    from the quantile definition: the numerator keeps the original
    eigenvalue while the resolvent factor only sees the retained part.

    Independent of :func:`ridgelab.spectra.split_top_mass`, so the two
    routes cross-check each other's mass accounting (including the
    proportional handling of tied eigenvalue levels).
    """
    neg_levels, inverse = np.unique(-spectrum.h, return_inverse=True)
    level_mass = np.bincount(inverse, weights=spectrum.w)
    cum = np.cumsum(level_mass)
    kept_level = np.clip(theta - (cum - level_mass), 0.0, level_mass)
    kept = spectrum.w * (kept_level / level_mass)[inverse]
    gh = spectrum.g * spectrum.h
    resolved = gh / (1.0 + spectrum.h * m) ** 2
    return gamma * float(np.dot(kept, resolved) + np.dot(spectrum.w - kept, gh))


def assert_pcr_forms_agree(model: ModelSpec, theta: float) -> None:
    """``pcr_risk``'s grouped form against the quantile-display form, to
    1e-10 relative (absolute below 1), at ``theta * gamma > 1``."""
    total = pcr_risk(model, theta).total
    sol = solve_m_theta(model, theta)
    pref = sol.m_prime / sol.m**2
    display = pref * (display_form_numerator(model.spectrum, theta, sol.m, model.gamma) + model.sigma2)
    assert abs(total - display) <= 1e-10 * max(1.0, abs(total)), (theta, total, display)


# ---------------------------------------------------------------------------
# Monte Carlo: the full p x p eigenbasis algebra, the reference for the
# package's decomposition of the smaller Gram side
# ---------------------------------------------------------------------------


class DenseEigState:
    """Per-draw eigendecomposition of the p x p Gram shared across a
    regularization grid, with the two p x p congruences formed densely."""

    def __init__(self, ens: MatrixEnsemble, x: np.ndarray):
        xw = x / np.sqrt(ens.d_w)
        gram = xw.T @ xw
        lams, q = np.linalg.eigh(gram)
        self.lams = lams
        self.q = q
        self.xw = xw
        self.null_mask = lams <= _NULLSPACE_CUTOFF * max(float(lams[-1]), 1e-300)
        # congruence images of the two population matrices in the eigenbasis
        g1 = q.T @ (ens.d_xw[:, None] * q)
        g2 = q.T @ (ens.d_wb[:, None] * q)
        self.g1_diag = np.diag(g1).copy()
        self.h12 = g1 * g2
        self.n = ens.n

    def risk_parts(self, lam: float, sigma2: float) -> tuple:
        """Exact conditional (variance, bias) at one regularization value."""
        lams = self.lams
        if lam == 0.0:
            inv = np.where(self.null_mask, 0.0, 1.0 / np.where(self.null_mask, 1.0, lams))
            v = inv
            b = np.where(self.null_mask, 1.0, 0.0)
        else:
            denom = lams + lam
            live = ~self.null_mask
            if np.any(np.abs(denom[live]) <= _DROP_GUARD * max(float(lams[-1]), 1e-300)):
                raise IllConditionedDraw(
                    f"eigenvalue within guard distance of -lam={-lam!r}"
                )
            v = np.where(self.null_mask, 0.0, lams) / denom**2
            b = lam / denom
        variance = sigma2 * (1.0 + float(np.dot(self.g1_diag, v)) / self.n)
        bias = float(b @ self.h12 @ b) / self.n
        return variance, bias


def dense_fit_penalized(state: DenseEigState, ens: MatrixEnsemble, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve the penalized least squares in the whitened basis.

    At ``lam = 0`` this is the minimum-penalty-norm interpolator (null
    directions get zero coefficient); elsewhere the usual shifted inverse.
    """
    rhs = state.q.T @ (state.xw.T @ y)
    if lam == 0.0:
        coef = np.where(state.null_mask, 0.0, rhs / np.where(state.null_mask, 1.0, state.lams))
    else:
        denom = state.lams + lam
        live = ~state.null_mask
        if np.any(np.abs(denom[live]) <= _DROP_GUARD * max(float(state.lams[-1]), 1e-300)):
            raise IllConditionedDraw(f"eigenvalue within guard distance of -lam={-lam!r}")
        coef = rhs / denom
    return (state.q @ coef) / np.sqrt(ens.d_w)


def dense_pcr_estimator_risk(
    ens: MatrixEnsemble, theta: float, sigma2: float, config: MonteCarloConfig
) -> tuple:
    """Conditional risk of truncated regression, averaged over designs,
    with the dense p x p residual map ``w`` and p x n noise map."""
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta!r}")
    k = math.ceil(theta * ens.p)
    keep = np.argsort(-ens.d_x, kind="stable")[:k]
    sx = ens.d_x / ens.n
    vals = []
    for rep in range(config.replicates):
        rng = replicate_rng(config.master_seed, rep)
        x = sample_design(ens, rng)
        xk = x[:, keep]
        bk = np.linalg.pinv(xk, rcond=_NULLSPACE_CUTOFF)
        # w = I - M where M maps true coefficients to the kept-coordinate fit
        w = np.zeros((ens.p, ens.p))
        w[keep] = -bk @ x
        w[np.arange(ens.p), np.arange(ens.p)] += 1.0
        nmap = np.zeros((ens.p, ens.n))
        nmap[keep] = bk
        if config.prior == "gaussian_beta":
            bias = float(np.dot(sx, (w**2) @ ens.d_beta))
        else:
            delta = w @ np.sqrt(ens.d_beta)
            bias = float(np.dot(delta * sx, delta))
        noise_term = sigma2 * float(np.dot(sx, (nmap**2).sum(axis=1)))
        vals.append(sigma2 + bias + noise_term)
    arr = np.asarray(vals)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.inf
    return float(arr.mean()), se
