"""Finite-sample Monte Carlo checks for the asymptotic formulas.

Two independent oracles are provided for every theory value.  The primary
one is the conditional risk: with Gaussian noise and a Gaussian (or fixed)
coefficient prior, the expected test risk given the design matrix has an
exact trace expression, so averaging it over design draws isolates design
randomness and converges fast.  The secondary one actually fits the
estimator on sampled data and evaluates it on the analytic test metric;
it is slower and noisier but shares no algebra with the primary, which is
the point.

Each design draw decomposes the smaller side of its whitened Gram: the
n x n ``X X'`` when ``p > n``, the p x p ``X' X`` otherwise.  The risk and
the fit then live in the r-dimensional row space of the live right
singular vectors ``V``; the null projector ``P0 = I - V V'`` contributes to
the bias in closed form, so no p x p matrix is formed when ``p > n``.
Truncated regression works on the rows of the kept coordinates alone.

All randomness flows through ``numpy.random.default_rng`` seeded with
``(master_seed, stream)`` pairs, so every result is bit-identical across
runs for a fixed configuration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RidgelabError
from .spectra import JointSpectrum, WeightedSpectrum

_NULLSPACE_CUTOFF = 1e-10
_DROP_GUARD = 1e-8

# stream index reserved for drawing population eigenvalue vectors, kept
# apart from the per-replicate design streams
D_VECTOR_STREAM = 999983


class IllConditionedDraw(RidgelabError):
    """A design draw put an eigenvalue too close to ``-lam`` to trust."""


@dataclass(frozen=True, eq=False)
class MatrixEnsemble:
    """Finite-dimensional population: per-coordinate diagonal covariances.

    ``d_x`` are design-covariance eigenvalues, ``d_beta`` per-coordinate
    signal energies, ``d_w`` penalty weights (all length ``p``).  The
    penalty-relative spectrum is ``d_x / d_w`` and the penalty-coupled
    signal is ``d_w * d_beta``; both are precomputed properties.
    """

    n: int
    p: int
    d_x: np.ndarray
    d_beta: np.ndarray
    d_w: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        for name in ("d_x", "d_beta", "d_w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.p,):
                raise ValueError(f"{name} must have shape ({self.p},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if np.any(self.d_x <= 0) or np.any(self.d_w <= 0):
            raise ValueError("d_x and d_w must be strictly positive")
        if np.any(self.d_beta < 0):
            raise ValueError("d_beta must be nonnegative")

    @property
    def gamma(self) -> float:
        return self.p / self.n

    @property
    def d_xw(self) -> np.ndarray:
        return self.d_x / self.d_w

    @property
    def d_wb(self) -> np.ndarray:
        return self.d_w * self.d_beta

    @staticmethod
    def from_joint(spectrum: JointSpectrum, n: int, p: int) -> "MatrixEnsemble":
        """Expand atoms to length-``p`` vectors by proportional counts."""
        counts = proportional_counts(spectrum.w, p)
        d_x = np.repeat(spectrum.h, counts)
        d_beta = np.repeat(spectrum.g, counts)
        return MatrixEnsemble(n=n, p=p, d_x=d_x, d_beta=d_beta, d_w=np.ones(p))

    @staticmethod
    def from_weighted(wspec: WeightedSpectrum, n: int, p: int) -> "MatrixEnsemble":
        counts = proportional_counts(wspec.w, p)
        d_x = np.repeat(wspec.s, counts)
        d_beta = np.repeat(wspec.v, counts)
        d_w = np.repeat(wspec.s / wspec.r, counts)
        return MatrixEnsemble(n=n, p=p, d_x=d_x, d_beta=d_beta, d_w=d_w)


def proportional_counts(weights: np.ndarray, p: int) -> np.ndarray:
    """Largest-remainder apportionment of ``p`` coordinates to atoms."""
    exact = np.asarray(weights, dtype=float) * p
    counts = np.floor(exact).astype(int)
    short = p - int(counts.sum())
    if short > 0:
        order = np.argsort(exact - counts, kind="stable")[::-1]
        counts[order[:short]] += 1
    return counts


@dataclass(frozen=True)
class MonteCarloConfig:
    """Replication plan: count, seed, and coefficient prior.

    ``prior`` is ``gaussian_beta`` (coefficients resampled per replicate
    with per-coordinate variances ``d_beta``) or ``fixed_beta`` (the
    deterministic vector ``sqrt(d_beta)``).
    """

    replicates: int = 50
    master_seed: int = 20260816
    prior: str = "gaussian_beta"

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.prior not in ("gaussian_beta", "fixed_beta"):
            raise ValueError(f"unknown prior {self.prior!r}")


def replicate_rng(master_seed: int, stream: int) -> np.random.Generator:
    """Deterministic per-stream generator; stream 0..R-1 are replicates."""
    return np.random.default_rng((master_seed, stream))


def sample_design(ens: MatrixEnsemble, rng: np.random.Generator) -> np.ndarray:
    """Draw the n-by-p Gaussian design with rows scaled by ``1/sqrt(n)``.

    The ``1/sqrt(n)`` is baked into the matrix so that sample Gram
    eigenvalues sit on the same scale as the population spectrum.
    """
    z = rng.standard_normal((ens.n, ens.p))
    return z * np.sqrt(ens.d_x / ens.n)


class _EigState:
    """Per-draw spectral decomposition shared across a regularization grid.

    Decomposes the smaller side of the whitened Gram: ``xw xw'`` (n x n)
    when ``p > n`` and ``xw' xw`` (p x p) otherwise.  It keeps the live
    eigenvalues ``lams`` (above ``_NULLSPACE_CUTOFF`` times the largest)
    and the p x r matrix ``v`` of their right singular vectors, which is
    ``xw' u / sqrt(lams)`` when the n x n side is decomposed, plus the
    r x r congruences ``k1 = v' A v`` and ``k2 = v' B v`` with
    ``A = diag(d_xw)`` and ``B = diag(d_wb)``.

    The null projector ``P0 = I - v v'`` is never formed.  It enters the
    bias through two penalty-free terms, built from ``k1``, ``k2`` and
    ``diag(v' A B v) = (v * v)' (a * b)``: ``t0 = tr(A P0 B P0)`` and
    ``cross = diag(v' A P0 B v)``.  Both vanish when ``r = p``.
    """

    def __init__(self, ens: MatrixEnsemble, x: np.ndarray):
        xw = x / np.sqrt(ens.d_w)
        wide = ens.p > ens.n
        lams, vecs = np.linalg.eigh(xw @ xw.T if wide else xw.T @ xw)
        self.scale = max(float(lams[-1]), 1e-300)
        # eigh sorts ascending, so the null eigenvalues come first
        null = int(np.count_nonzero(lams <= _NULLSPACE_CUTOFF * self.scale))
        lams, vecs = lams[null:], vecs[:, null:]
        v = (xw.T @ vecs) / np.sqrt(lams) if wide else vecs
        k1 = v.T @ (ens.d_xw[:, None] * v)
        k2 = v.T @ (ens.d_wb[:, None] * v)
        self.lams = lams
        self.v = v
        self.xw = xw
        self.k1_diag = np.diag(k1).copy()
        self.k12 = k1 * k2
        self.t0 = 0.0
        self.cross = np.zeros(lams.size)
        if lams.size < ens.p:  # otherwise P0 = 0
            ab = ens.d_xw * ens.d_wb
            vab = (v * v).T @ ab
            self.cross = vab - self.k12.sum(axis=1)
            self.t0 = float(ab.sum()) - 2.0 * float(vab.sum()) + float(self.k12.sum())
        self.n = ens.n

    def shift(self, lam: float) -> np.ndarray:
        """``lams + lam``; IllConditionedDraw when one is within the guard band."""
        denom = self.lams + lam
        if np.any(np.abs(denom) <= _DROP_GUARD * self.scale):
            raise IllConditionedDraw(f"eigenvalue within guard distance of -lam={-lam!r}")
        return denom

    def risk_parts(self, lam: float, sigma2: float) -> tuple:
        """Exact conditional (variance, bias) at one regularization value.

        With ``b = lam / (lams + lam)`` the bias is
        ``(t0 + 2 cross . b + b' (k1 * k2) b) / n``.
        """
        if lam == 0.0:
            var_w = 1.0 / self.lams
            b = np.zeros(self.lams.size)
        else:
            denom = self.shift(lam)
            var_w = self.lams / denom**2
            b = lam / denom
        variance = sigma2 * (1.0 + float(np.dot(self.k1_diag, var_w)) / self.n)
        bias = (self.t0 + 2.0 * float(np.dot(self.cross, b)) + float(b @ self.k12 @ b)) / self.n
        return variance, bias


def conditional_risk(ens: MatrixEnsemble, lam: float, sigma2: float, x: np.ndarray) -> tuple:
    """Expected test risk given the design, split as (variance, bias).

    The variance part includes the irreducible noise floor, matching the
    asymptotic convention.  Raises IllConditionedDraw when ``-lam`` falls
    within the guard band of a Gram eigenvalue.
    """
    return _EigState(ens, x).risk_parts(lam, sigma2)


def conditional_risk_curve(ens: MatrixEnsemble, lams, sigma2: float, x: np.ndarray) -> list:
    """Conditional risk across a grid, reusing one eigendecomposition.

    Returns a list aligned with ``lams`` whose entries are either
    ``(variance, bias)`` or None for guard-band rejections.
    """
    state = _EigState(ens, x)
    out = []
    for lam in lams:
        try:
            out.append(state.risk_parts(float(lam), sigma2))
        except IllConditionedDraw:
            out.append(None)
    return out


def simulate(ens: MatrixEnsemble, lams, sigma2: float, config: MonteCarloConfig) -> list:
    """Average the conditional risk over design replicates.

    Returns one dict per grid value with keys ``lam``, ``mc_mean``,
    ``mc_se``, ``n_used``, ``dropped``.  Replicates are dropped per grid
    value (a draw rejected at one negative ``lam`` still counts
    elsewhere).
    """
    lams = [float(l) for l in lams]
    samples: list = [[] for _ in lams]
    for rep in range(config.replicates):
        rng = replicate_rng(config.master_seed, rep)
        x = sample_design(ens, rng)
        for slot, parts in zip(samples, conditional_risk_curve(ens, lams, sigma2, x)):
            if parts is not None:
                slot.append(parts[0] + parts[1])
    rows = []
    for lam, slot in zip(lams, samples):
        k = len(slot)
        if k == 0:
            rows.append({"lam": lam, "mc_mean": math.nan, "mc_se": math.nan, "n_used": 0,
                         "dropped": config.replicates})
            continue
        arr = np.asarray(slot)
        se = float(arr.std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
        rows.append({"lam": lam, "mc_mean": float(arr.mean()), "mc_se": se,
                     "n_used": k, "dropped": config.replicates - k})
    return rows


# ---------------------------------------------------------------------------
# secondary oracle: fit the estimator for real
# ---------------------------------------------------------------------------


def _draw_beta(ens: MatrixEnsemble, rng: np.random.Generator, prior: str) -> np.ndarray:
    if prior == "gaussian_beta":
        return rng.standard_normal(ens.p) * np.sqrt(ens.d_beta)
    return np.sqrt(ens.d_beta)


def _fit_penalized(state: _EigState, ens: MatrixEnsemble, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve the penalized least squares in the whitened basis.

    At ``lam = 0`` this is the minimum-penalty-norm interpolator (null
    directions get zero coefficient); elsewhere the usual shifted inverse.
    """
    rhs = state.v.T @ (state.xw.T @ y)
    coef = rhs / (state.lams if lam == 0.0 else state.shift(lam))
    return (state.v @ coef) / np.sqrt(ens.d_w)


def estimator_risk_empirical(
    ens: MatrixEnsemble, lam: float, sigma2: float, config: MonteCarloConfig
) -> tuple:
    """Fit-and-score oracle: returns ``(mean, se, dropped)``.

    Each replicate draws a design, coefficients, and noise, fits the
    penalized estimator, and scores it on the exact test metric
    ``sigma2 + (beta - betahat)' (Sigma_x / n) (beta - betahat)``.
    """
    vals = []
    dropped = 0
    for rep in range(config.replicates):
        rng = replicate_rng(config.master_seed, rep)
        x = sample_design(ens, rng)
        beta = _draw_beta(ens, rng, config.prior)
        noise = rng.standard_normal(ens.n) * math.sqrt(sigma2) if sigma2 > 0 else np.zeros(ens.n)
        y = x @ beta + noise
        try:
            betahat = _fit_penalized(_EigState(ens, x), ens, y, lam)
        except IllConditionedDraw:
            dropped += 1
            continue
        delta = beta - betahat
        vals.append(sigma2 + float(np.dot(delta * ens.d_x, delta)) / ens.n)
    if not vals:
        return math.nan, math.nan, dropped
    arr = np.asarray(vals)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.inf
    return float(arr.mean()), se, dropped


def pcr_estimator_risk(
    ens: MatrixEnsemble, theta: float, sigma2: float, config: MonteCarloConfig
) -> tuple:
    """Conditional risk of truncated regression, averaged over designs.

    Keeps the ``ceil(theta * p)`` coordinates with the largest population
    eigenvalues (ties broken by index), fits ridgeless regression on
    them, and integrates coefficients and noise analytically given the
    design.  Returns ``(mean, se)``; DomainError unless ``0 < theta <= 1``.
    """
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta!r}")
    k = math.ceil(theta * ens.p)
    keep = np.argsort(-ens.d_x, kind="stable")[:k]
    sx = ens.d_x / ens.n
    # coordinates outside ``keep`` are fitted as zero: their error is the
    # coefficient itself
    untouched = float(np.dot(np.delete(sx, keep), np.delete(ens.d_beta, keep)))
    vals = []
    for rep in range(config.replicates):
        rng = replicate_rng(config.master_seed, rep)
        x = sample_design(ens, rng)
        bk = np.linalg.pinv(x[:, keep], rcond=_NULLSPACE_CUTOFF)
        # kept rows of M - I, where M maps true coefficients to the fit
        resid = bk @ x
        resid[np.arange(k), keep] -= 1.0
        if config.prior == "gaussian_beta":
            kept = (resid**2) @ ens.d_beta
        else:
            kept = (resid @ np.sqrt(ens.d_beta)) ** 2
        bias = untouched + float(np.dot(sx[keep], kept))
        noise_term = sigma2 * float(np.dot(sx[keep], (bk**2).sum(axis=1)))
        vals.append(sigma2 + bias + noise_term)
    arr = np.asarray(vals)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.inf
    return float(arr.mean()), se
