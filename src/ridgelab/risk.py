"""Asymptotic out-of-sample risk formulas built on the trace fixed point.

Conventions: risk values include the irreducible noise floor, so the
null-model limit (infinite regularization) is ``gamma * E[g h] + sigma2``.
The variance share is ``sigma2 * m'/m^2`` and the bias share is
``(m'/m^2) * gamma * E[g h / (1 + h m)^2]``; both are nonnegative and sum
to the total by construction.

Principal-subspace regression (keep the top ``theta`` eigenvalue mass,
ridgeless fit inside) has two regimes: with ``theta * gamma > 1`` the
retained problem is still overparameterized and the truncated fixed point
applies; with ``theta * gamma < 1`` the fit recovers the retained
components exactly in the limit, and only dropped signal plus inflated
noise remain.  The boundary ``theta * gamma = 1`` diverges and is
rejected.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegimeError, SolverError
from .spectra import ModelSpec, WeightedSpectrum, split_top_mass, truncate_top
from .stieltjes import (
    DEFAULT_CONFIG,
    SolverConfig,
    StieltjesSolution,
    block_rows,
    solution_at,
    solve_m,
    solve_m_theta,
)

_FORM_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class RiskEvaluation:
    """Risk at one regularization value, split into bias and variance.

    ``zeta_atoms`` holds the per-atom products ``h * m`` actually used, in
    the atom order of the spectrum the evaluation ran on (empty when no
    fixed point was needed, e.g. the exactly-interpolating branch).
    """

    lam: float
    total: float
    bias: float
    variance: float
    zeta_atoms: tuple

    def __post_init__(self):
        if self.bias < 0 or self.variance < 0:
            raise SolverError(
                "negative risk component",
                {"lam": self.lam, "bias": self.bias, "variance": self.variance},
            )


@dataclass(frozen=True)
class DerivativeParts:
    """Signed pieces of the risk derivative in ``lam``.

    The derivative equals ``prefactor * (part3 + part4)`` with
    ``prefactor > 0``, so the sign analysis lives entirely in the two
    parts: ``part3`` is the noise pull (always nonpositive) and ``part4``
    the signal-alignment pull.  The fields are floats from
    :func:`risk_derivative` and arrays from :func:`derivative_parts`.
    """

    part3: float
    part4: float
    prefactor: float

    @property
    def value(self) -> float:
        return self.prefactor * (self.part3 + self.part4)


def _risk_from_solution(model: ModelSpec, sol: StieltjesSolution) -> RiskEvaluation:
    spec = model.spectrum
    zeta = spec.h * sol.m
    pref = sol.m_prime / sol.m**2
    bias = pref * model.gamma * float(np.dot(spec.w, spec.g * spec.h / (1.0 + zeta) ** 2))
    variance = model.sigma2 * pref
    return RiskEvaluation(
        lam=sol.lam,
        total=bias + variance,
        bias=bias,
        variance=variance,
        zeta_atoms=tuple(float(z) for z in zeta),
    )


def asymptotic_risk(model: ModelSpec, lam: float, config: SolverConfig = DEFAULT_CONFIG) -> RiskEvaluation:
    """Limiting excess-plus-noise risk at regularization ``lam``.

    The underparameterized ridgeless point (``gamma < 1``, ``lam = 0``) is
    served by its closed form ``sigma2 / (1 - gamma)`` with zero bias; the
    fixed point itself diverges there.
    """
    if lam == 0.0 and model.gamma < 1.0 and not model.spectrum.truncated:
        variance = model.sigma2 / (1.0 - model.gamma)
        return RiskEvaluation(lam=0.0, total=variance, bias=0.0, variance=variance, zeta_atoms=())
    sol = solve_m(model, lam, config)
    return _risk_from_solution(model, sol)


def risk_at_m(model: ModelSpec, m: float) -> RiskEvaluation:
    """Risk at the regularization whose fixed-point solution is ``m``."""
    return _risk_from_solution(model, solution_at(model, m))


def risk_curve(model: ModelSpec, lams, config: SolverConfig = DEFAULT_CONFIG) -> list:
    """Evaluate the risk on a grid of regularization values."""
    return [asymptotic_risk(model, float(lam), config) for lam in lams]


def risk_derivative(model: ModelSpec, lam: float, config: SolverConfig = DEFAULT_CONFIG) -> DerivativeParts:
    """Signed decomposition of ``d(total risk)/d lam`` at ``lam``: the
    fixed-point solve followed by :func:`derivative_parts`."""
    parts = derivative_parts(model, np.array([solve_m(model, lam, config).m]))
    return DerivativeParts(*(float(a[0]) for a in (parts.part3, parts.part4, parts.prefactor)))


def derivative_parts(model: ModelSpec, m: np.ndarray) -> DerivativeParts:
    """The derivative parts at every fixed-point solution in the 1-D array ``m``.

    Closed form in ``m``: with the spectral margin ``M = 1 - gamma *
    E[zeta^2 / (1+zeta)^2]`` (``zeta = h m``), ``m' = m^2 / M`` and the
    prefactor is ``2 gamma m / M^2``.  Raises SolverError if ``M`` is not
    positive anywhere (that only happens at the branch edge, where the
    derivative blows up).  Returns a DerivativeParts of arrays shaped like
    ``m``, evaluated over blocks of rows so no temporary exceeds the block
    cap of the grid solve.
    """
    spec = model.spectrum
    h, w, gh = spec.h, spec.w, spec.g * spec.h
    margin, e_z2_c3, e_gh_c2, e_ghz_c3 = (np.empty_like(m) for _ in range(4))
    step = block_rows(m.size, h.size)
    buffers = [np.empty((step, h.size)) for _ in range(3)]  # reused by every block
    for i in range(0, m.size, step):
        rows = slice(i, i + step)
        frac, inv, tmp = (b[: m[rows].size] for b in buffers)
        np.multiply.outer(m[rows], h, out=frac)  # zeta = h m
        np.add(frac, 1.0, out=inv)
        np.reciprocal(inv, out=inv)  # 1 / (1 + zeta)
        frac *= inv  # zeta / (1 + zeta)
        np.multiply(frac, frac, out=tmp)
        margin[rows] = 1.0 - model.gamma * (tmp @ w)
        tmp *= inv
        e_z2_c3[rows] = tmp @ w
        np.multiply(inv, inv, out=tmp)
        tmp *= gh
        e_gh_c2[rows] = tmp @ w
        tmp *= frac
        e_ghz_c3[rows] = tmp @ w
    if np.any(margin <= 0.0):
        i = int(np.argmin(margin))
        raise SolverError("spectral margin vanished at the branch edge", {"m": float(m[i]), "margin": float(margin[i])})
    part3 = -model.sigma2 * e_z2_c3 / margin
    part4 = e_ghz_c3 - model.gamma * e_z2_c3 * e_gh_c2 / margin
    return DerivativeParts(part3=part3, part4=part4, prefactor=2.0 * model.gamma * m / margin**2)


def _display_form_numerator(spectrum, theta: float, m: float, gamma: float) -> float:
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


def pcr_risk(model: ModelSpec, theta: float, config: SolverConfig = DEFAULT_CONFIG) -> RiskEvaluation:
    """Risk of ridgeless regression on the top-``theta`` eigenvalue mass.

    Both regimes are served; the boundary band
    ``|theta * gamma - 1| < 10 * config.tol`` is rejected because the risk
    diverges there.  In the overparameterized regime the evaluation runs
    the grouped form (retained and dropped mass summed separately) and
    cross-asserts the quantile-display form to 1e-10.
    """
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta!r}")
    tg = theta * model.gamma
    if abs(tg - 1.0) < 10.0 * config.tol:
        raise RegimeError(f"theta * gamma = {tg!r} sits in the divergent boundary band")
    h, g, w_kept, w_dropped = split_top_mass(model.spectrum, theta)
    gh = g * h
    if tg > 1.0:
        sol = solve_m_theta(model, theta, config)
        pref = sol.m_prime / sol.m**2
        kept_term = model.gamma * float(np.dot(w_kept, gh / (1.0 + h * sol.m) ** 2))
        dropped_term = model.gamma * float(np.dot(w_dropped, gh))
        bias = pref * (kept_term + dropped_term)
        variance = model.sigma2 * pref
        total = bias + variance
        display = pref * (_display_form_numerator(model.spectrum, theta, sol.m, model.gamma) + model.sigma2)
        if abs(total - display) > _FORM_AGREEMENT_TOL * max(1.0, abs(total)):
            raise SolverError(
                "grouped and quantile-display risk forms disagree",
                {"theta": theta, "grouped": total, "display": display},
            )
        zeta = truncate_top(model.spectrum, theta).h * sol.m
        return RiskEvaluation(
            lam=0.0,
            total=total,
            bias=bias,
            variance=variance,
            zeta_atoms=tuple(float(z) for z in zeta),
        )
    bias = model.gamma * float(np.dot(w_dropped, gh)) / (1.0 - tg)
    variance = model.sigma2 / (1.0 - tg)
    return RiskEvaluation(lam=0.0, total=bias + variance, bias=bias, variance=variance, zeta_atoms=())


def pcr_curve(model: ModelSpec, thetas, config: SolverConfig = DEFAULT_CONFIG) -> list:
    """Evaluate the truncated-regression risk on a grid of retained mass."""
    return [pcr_risk(model, float(t), config) for t in thetas]


# ---------------------------------------------------------------------------
# generalized penalties
# ---------------------------------------------------------------------------


def weighted_model(wspec: WeightedSpectrum, gamma: float, sigma2: float) -> ModelSpec:
    """Project a weighted spectrum onto the plain machinery."""
    return ModelSpec(gamma, sigma2, wspec.project())


def weighted_risk(
    wspec: WeightedSpectrum,
    gamma: float,
    sigma2: float,
    lam: float,
    config: SolverConfig = DEFAULT_CONFIG,
) -> RiskEvaluation:
    """Risk under a generalized quadratic penalty.

    Runs the exact same code path as :func:`asymptotic_risk` on the
    projected atoms ``(h, g) = (r, s v / r)``; there is no separate
    weighted formula to drift out of sync.
    """
    return asymptotic_risk(weighted_model(wspec, gamma, sigma2), lam, config)


def interpolate_penalty(wspec: WeightedSpectrum, alpha: float) -> WeightedSpectrum:
    """Blend the penalty profile toward the bias-optimal one.

    Returns the spectrum with ``r`` replaced by
    ``alpha * s v + (1 - alpha) * r``; ``alpha = 0`` reproduces the input
    and ``alpha = 1`` the product profile.
    """
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    return wspec.with_r(alpha * wspec.s * wspec.v + (1.0 - alpha) * wspec.r)


def alpha_path_risk(
    wspec: WeightedSpectrum,
    gamma: float,
    sigma2: float,
    alpha: float,
    lam: float,
    config: SolverConfig = DEFAULT_CONFIG,
) -> RiskEvaluation:
    """Risk at one point of the penalty-interpolation path."""
    return weighted_risk(interpolate_penalty(wspec, alpha), gamma, sigma2, lam, config)

