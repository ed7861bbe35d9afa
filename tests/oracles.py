"""Second routes to quantities the package computes one way, for tests to
cross-check against.  None of them is part of the package's API."""

import math
from typing import NamedTuple

import numpy as np

from ridgelab import (
    DomainError,
    ModelSpec,
    SolverConfig,
    SolverError,
    asymptotic_risk,
    interpolate_penalty,
    lambda_opt_closed_form,
    regime_guard,
    risk_derivative,
    solve_m,
    weighted_model,
)
from ridgelab.optimize import _GOLDEN_FLOOR, _GOLDEN_RTOL, _TIE_RTOL, _ZERO_ATOL, LambdaOptResult, _search_grid
from ridgelab.stieltjes import DEFAULT_CONFIG, StieltjesSolution, _companion_direct, bisect, golden_min


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


def solve_companion(model: ModelSpec, lam: float, config: SolverConfig = DEFAULT_CONFIG) -> CompanionSolution:
    """Sample-side resolvent trace ``s`` with the residual of its fixed point
    ``s = E[1 / (h (1 - gamma + gamma lam s) + lam)]``.

    Recovered from ``m`` when ``gamma * P(h > 0) > 1`` (needs ``lam > 0``),
    the closed form ``E[1/h] / (1 - gamma)`` at ``lam = 0`` below that
    ratio, and the package's direct companion solve otherwise.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lam must be finite, got {lam!r}")
    gamma, spec = model.gamma, model.spectrum
    if gamma * spec.positive_mass() > 1.0:
        if lam <= 0.0:
            raise DomainError("companion recovery in the overparameterized regime needs lam > 0")
        m = solve_m(model, lam, config).m
        s = (lam * m - 1.0 + gamma) / (gamma * lam)
    elif lam == 0.0:
        if gamma >= 1.0 or spec.truncated:
            raise DomainError("companion closed form at lam = 0 needs gamma < 1 and a full-mass spectrum")
        s, m = float(np.dot(spec.w, 1.0 / spec.h)) / (1.0 - gamma), math.inf
    else:
        s = _companion_direct(model, lam, config)
        m = (1.0 - gamma) / lam + gamma * s
    rhs = float(np.dot(spec.w, 1.0 / (spec.h * (1.0 - gamma + gamma * lam * s) + lam)))
    return CompanionSolution(lam, s, m, abs(rhs - s) / max(1.0, abs(s)))


def alternative_total_risk(model: ModelSpec, lam: float, config: SolverConfig = DEFAULT_CONFIG) -> float:
    """Total risk through the margin identity, algebraically equal to
    ``asymptotic_risk(...).total``; the two fail differently under stress."""
    spec = model.spectrum
    zeta = spec.h * solve_m(model, lam, config).m
    margin = 1.0 - model.gamma * float(np.dot(spec.w, (zeta / (1.0 + zeta)) ** 2))
    return (model.sigma2 + model.gamma * float(np.dot(spec.w, spec.g * spec.h / (1.0 + zeta) ** 2))) / margin


class AlphaPath(NamedTuple):
    alpha: float
    r_alpha_atoms: tuple  # alpha * s v + (1 - alpha) * r
    psi_atoms: tuple  # s v * m_alpha, the coordinates of the path's monotonicity argument


def alpha_path_state(wspec, gamma: float, sigma2: float, alpha: float, lam: float,
                     config: SolverConfig = DEFAULT_CONFIG) -> AlphaPath:
    """Diagnostics for the penalty-interpolation path at one ``alpha``."""
    blended = interpolate_penalty(wspec, alpha)
    m = solve_m(weighted_model(blended, gamma, sigma2), lam, config).m
    return AlphaPath(alpha, tuple(float(r) for r in blended.r), tuple(float(p) for p in wspec.s * wspec.v * m))


def _deriv_sum(model: ModelSpec, lam: float, config: SolverConfig) -> float:
    parts = risk_derivative(model, lam, config)
    return parts.part3 + parts.part4


def scalar_lambda_opt_search(model: ModelSpec, config: SolverConfig = DEFAULT_CONFIG) -> LambdaOptResult:
    """The optimum search with one scalar fixed-point solve per grid point
    and per bisection step in ``lam``: the same grid, roots, fallback and
    decisions as ``lambda_opt_search``, which solves the grid as one array
    and refines the roots in ``m``."""
    lo, hi = regime_guard(model, config)
    grid = _search_grid(lo, hi)
    underparam = model.gamma < 1.0

    derivs = np.full(grid.shape, np.nan)
    for i, lam in enumerate(grid):
        if underparam and lam == 0.0:
            continue  # fixed point degenerates at the ridgeless endpoint
        derivs[i] = _deriv_sum(model, float(lam), config)

    roots = []
    finite = ~np.isnan(derivs)
    idx = np.flatnonzero(finite)
    for a, b in zip(idx[:-1], idx[1:]):
        da, db = derivs[a], derivs[b]
        if da == 0.0:
            roots.append(float(grid[a]))
        elif da * db < 0.0:
            sign = math.copysign(1.0, da)  # bisect wants f > 0 left of the root
            roots.append(bisect(lambda t: sign * _deriv_sum(model, t, config), float(grid[a]), float(grid[b]),
                                config.tol, config.max_iter, 1.0))
    if finite.size and derivs[idx[-1]] == 0.0:
        roots.append(float(grid[idx[-1]]))

    candidates = [(lam, asymptotic_risk(model, lam, config).total, "derivative_root") for lam in roots]
    if underparam:
        candidates.append((0.0, asymptotic_risk(model, 0.0, config).total, "golden_section"))
    if not roots:
        a = float(grid[1]) if underparam else lo
        lam_g = golden_min(lambda t: asymptotic_risk(model, t, config).total, a, hi,
                           _GOLDEN_RTOL, 3 * config.max_iter, _GOLDEN_FLOOR)
        candidates.append((lam_g, asymptotic_risk(model, lam_g, config).total, "golden_section"))

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

    closed = lambda_opt_closed_form(model, config)
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
