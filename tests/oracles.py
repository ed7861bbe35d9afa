"""Second routes to quantities the package computes one way, for tests to
cross-check against.  None of them is part of the package's API."""

import math
from typing import NamedTuple

import numpy as np

from ridgelab import DomainError, ModelSpec, SolverConfig, interpolate_penalty, solve_m, weighted_model
from ridgelab.stieltjes import DEFAULT_CONFIG, StieltjesSolution, _companion_direct


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
