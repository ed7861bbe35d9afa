"""Second routes to quantities the package computes one way, for tests to
cross-check against.  None of them is part of the package's API."""

import math
from typing import NamedTuple

import numpy as np

from ridgelab import (
    DomainError,
    ModelSpec,
    SolverError,
    asymptotic_risk,
    interpolate_penalty,
    lambda_opt_closed_form,
    pcr_risk,
    regime_guard,
    risk_derivative,
    solve_m,
    solve_m_theta,
    weighted_model,
)
from ridgelab.optimize import _GOLDEN_FLOOR, _GOLDEN_RTOL, _TIE_RTOL, _ZERO_ATOL, LambdaOptResult, _search_grid
from ridgelab.stieltjes import (
    _BRACKET_FACTOR,
    _MAX_ITER,
    _TOL,
    StieltjesSolution,
    _companion_direct,
    bisect,
    expand_bracket,
    golden_min,
)


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
        s = _companion_direct(model, lam)
        m = (1.0 - gamma) / lam + gamma * s
    else:
        def G(s: float) -> float:
            return float(np.dot(spec.w, 1.0 / (spec.h * (1.0 - gamma + gamma * lam * s) + lam))) - s

        lo, hi = expand_bracket(G, max(1.0 / lam, 1.0), _BRACKET_FACTOR, _MAX_ITER)
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


def _deriv_sum(model: ModelSpec, lam: float) -> float:
    parts = risk_derivative(model, lam)
    return parts.part3 + parts.part4


def scalar_lambda_opt_search(model: ModelSpec) -> LambdaOptResult:
    """The optimum search with one scalar fixed-point solve per grid point
    and per bisection step in ``lam``: the same grid, roots, fallback and
    decisions as ``lambda_opt_search``, which solves the grid as one array
    and refines the roots in ``m``."""
    lo, hi = regime_guard(model)
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
