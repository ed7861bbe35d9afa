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
from .spectra import ModelSpec, WeightedSpectrum, split_top_mass
from .stieltjes import block_rows, lambda_of_m, row_dot, solve_m, solve_m_rows, solve_m_thetas

# half-width of the rejected band around theta * gamma = 1, where the risk diverges
_BOUNDARY_BAND = 1e-11


@dataclass(frozen=True)
class RiskEvaluation:
    """Risk at one regularization value, split into bias and variance."""

    lam: float
    total: float
    bias: float
    variance: float

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


def risk_curve(model: ModelSpec, lams) -> list:
    """Limiting excess-plus-noise risk at every ``lam`` of ``lams``: one array
    solve (:func:`solve_m_rows`) and one closed-form kernel over its ``m``.
    The ridgeless point of ``gamma < 1``, where ``m`` diverges, gets its
    closed form ``sigma2 / (1 - gamma)`` with zero bias.  A point outside
    the domain gets the DomainError (or RegimeError) that
    :func:`asymptotic_risk` raises there in place of its RiskEvaluation."""
    lams = np.asarray(lams, dtype=float)
    ridgeless = (lams == 0.0) & (model.gamma < 1.0) & (not model.spectrum.truncated)
    out = [None] * lams.size
    for i in np.flatnonzero(ridgeless):
        variance = model.sigma2 / (1.0 - model.gamma)
        out[i] = RiskEvaluation(lam=0.0, total=variance, bias=0.0, variance=variance)
    rows = np.flatnonzero(~ridgeless)
    if rows.size:
        m, errors = solve_m_rows(model, lams[rows])
        solved = np.array([error is None for error in errors], dtype=bool)
        evaluations = iter(_evaluations(model, lams[rows[solved]].tolist(), m[solved]))
        for i, error in zip(rows, errors):
            out[i] = error or next(evaluations)
    return out


def asymptotic_risk(model: ModelSpec, lam: float) -> RiskEvaluation:
    """Limiting excess-plus-noise risk at regularization ``lam``: the
    one-point case of :func:`risk_curve`, raising the DomainError of a
    point outside the admissible domain."""
    (row,) = risk_curve(model, [lam])
    if isinstance(row, DomainError):
        raise row
    return row


def risk_at_m(model: ModelSpec, m) -> list:
    """Risk at the regularization of each fixed-point solution in ``m``."""
    m = np.asarray(m, dtype=float)
    return _evaluations(model, [lambda_of_m(model, x) for x in m.tolist()], m)


def _evaluations(model: ModelSpec, lams: list, m: np.ndarray) -> list:
    """RiskEvaluations at the solutions ``m`` of ``lams``: ``m'/m^2 = 1/M``."""
    margin, _, e_gh_c2, _ = _moments(model, m)
    bias, variance = (model.gamma * e_gh_c2 / margin).tolist(), (model.sigma2 / margin).tolist()
    return [RiskEvaluation(lam=x, total=b + v, bias=b, variance=v) for x, b, v in zip(lams, bias, variance)]


def risk_derivative(model: ModelSpec, lam: float) -> DerivativeParts:
    """Signed decomposition of ``d(total risk)/d lam`` at ``lam``: the
    fixed-point solve followed by :func:`derivative_parts`."""
    parts = derivative_parts(model, np.array([solve_m(model, lam).m]))
    return DerivativeParts(*(float(a[0]) for a in (parts.part3, parts.part4, parts.prefactor)))


def derivative_parts(model: ModelSpec, m: np.ndarray) -> DerivativeParts:
    """The derivative parts at every fixed-point solution in the 1-D array ``m``.

    Closed form in ``m``: with the spectral margin ``M = 1 - gamma *
    E[zeta^2 / (1+zeta)^2]`` (``zeta = h m``), ``m' = m^2 / M`` and the
    prefactor is ``2 gamma m / M^2``.  Returns a DerivativeParts of arrays
    shaped like ``m``; SolverError where ``M <= 0``, at the branch edge.
    """
    margin, e_z2_c3, e_gh_c2, e_ghz_c3 = _moments(model, m)
    part3 = -model.sigma2 * e_z2_c3 / margin
    part4 = e_ghz_c3 - model.gamma * e_z2_c3 * e_gh_c2 / margin
    return DerivativeParts(part3=part3, part4=part4, prefactor=2.0 * model.gamma * m / margin**2)


def _moments(model: ModelSpec, m: np.ndarray, w: np.ndarray | None = None) -> tuple:
    """``(M, E[zeta^2/(1+zeta)^3], E[g h/(1+zeta)^2], E[g h zeta/(1+zeta)^3])``
    at every ``m`` (``zeta = h m``, margin ``M = 1 - gamma E[zeta^2/(1+zeta)^2]``)
    in blocks of rows, under the atom weights or under ``w[i]`` at ``m[i]``;
    SolverError where ``M <= 0``, at the branch edge."""
    spec = model.spectrum
    h, w, gh = spec.h, spec.w if w is None else w, spec.g * spec.h
    margin, e_z2_c3, e_gh_c2, e_ghz_c3 = (np.empty_like(m) for _ in range(4))
    step = block_rows(m.size, h.size)
    buffers = [np.empty((step, h.size)) for _ in range(3)]  # reused by every block
    for i in range(0, m.size, step):
        rows = slice(i, i + step)
        frac, inv, tmp = (b[: m[rows].size] for b in buffers)
        wr = w[rows] if w.ndim == 2 else w
        np.multiply.outer(m[rows], h, out=frac)  # zeta = h m
        np.add(frac, 1.0, out=inv)
        np.reciprocal(inv, out=inv)  # 1 / (1 + zeta)
        frac *= inv  # zeta / (1 + zeta)
        np.multiply(frac, frac, out=tmp)
        margin[rows] = 1.0 - model.gamma * row_dot(tmp, wr)
        tmp *= inv
        e_z2_c3[rows] = row_dot(tmp, wr)
        np.multiply(inv, inv, out=tmp)
        tmp *= gh
        e_gh_c2[rows] = row_dot(tmp, wr)
        tmp *= frac
        e_ghz_c3[rows] = row_dot(tmp, wr)
    if np.any(margin <= 0.0):
        i = int(np.argmin(margin))
        raise SolverError("spectral margin vanished at the branch edge", {"m": float(m[i]), "margin": float(margin[i])})
    return margin, e_z2_c3, e_gh_c2, e_ghz_c3


def pcr_risk(model: ModelSpec, theta: float) -> RiskEvaluation:
    """Risk of ridgeless regression on the top-``theta`` eigenvalue mass: the
    one-point case of :func:`pcr_curve`, raising the DomainError (or
    RegimeError) of a point outside the domain."""
    (row,) = pcr_curve(model, [theta])
    if isinstance(row, DomainError):
        raise row
    return row


def pcr_curve(model: ModelSpec, thetas) -> list:
    """Truncated-regression risk at every retained mass of ``thetas``; a point
    outside the domain gets its DomainError in place, as in :func:`risk_curve`.
    The divergent band ``|theta * gamma - 1| < 1e-11`` is a RegimeError.  Every
    ``theta * gamma > 1`` comes from one :func:`solve_m_thetas` call and one
    closed-form kernel under the kept weights, with the dropped mass apart."""
    thetas = np.asarray(thetas, dtype=float)
    gamma, sigma2, spec = model.gamma, model.sigma2, model.spectrum
    gh = spec.g * spec.h
    out = [None] * thetas.size
    for i, theta in enumerate(thetas.tolist()):
        tg = theta * gamma
        if not (0.0 < theta <= 1.0):
            out[i] = DomainError(f"theta must lie in (0, 1], got {theta!r}")
        elif abs(tg - 1.0) < _BOUNDARY_BAND:
            out[i] = RegimeError(f"theta * gamma = {tg!r} sits in the divergent boundary band")
        elif tg < 1.0:
            bias = gamma * float(np.dot(split_top_mass(spec, theta)[3], gh)) / (1.0 - tg)
            variance = sigma2 / (1.0 - tg)
            out[i] = RiskEvaluation(lam=0.0, total=bias + variance, bias=bias, variance=variance)
    rows = np.flatnonzero([row is None for row in out])
    m, kept, errors = solve_m_thetas(model, thetas[rows])
    solved = np.array([error is None for error in errors], dtype=bool)
    margin, _, e_gh_c2, _ = _moments(model, m[solved], kept[solved])
    dropped = row_dot(np.maximum(spec.w - kept[solved], 0.0), gh)
    bias, variance = (gamma * (e_gh_c2 + dropped) / margin).tolist(), (sigma2 / margin).tolist()
    evaluations = iter(RiskEvaluation(lam=0.0, total=b + v, bias=b, variance=v) for b, v in zip(bias, variance))
    for i, error in zip(rows, errors):
        out[i] = error or next(evaluations)
    return out


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
) -> RiskEvaluation:
    """Risk under a generalized quadratic penalty.

    Runs the exact same code path as :func:`asymptotic_risk` on the
    projected atoms ``(h, g) = (r, s v / r)``; there is no separate
    weighted formula to drift out of sync.
    """
    return asymptotic_risk(weighted_model(wspec, gamma, sigma2), lam)


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
) -> RiskEvaluation:
    """Risk at one point of the penalty-interpolation path."""
    return weighted_risk(interpolate_penalty(wspec, alpha), gamma, sigma2, lam)

