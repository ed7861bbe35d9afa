"""Finite-sample Monte Carlo checks for the asymptotic formulas.

Two independent oracles are provided for every theory value.  The primary
one is the conditional risk: with Gaussian noise and a Gaussian (or fixed)
coefficient prior, the expected test risk given the design matrix has an
exact trace expression, so averaging it over design draws isolates design
randomness and converges fast.  The secondary one actually fits the
estimator on sampled data and evaluates it on the analytic test metric;
it is slower and noisier but shares no algebra with the primary, which is
the point.

All randomness flows through ``numpy.random.default_rng`` seeded with
``(master_seed, stream)`` pairs, so every result is bit-identical across
runs for a fixed configuration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RidgelabError
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
    """Per-draw eigendecomposition shared across a regularization grid."""

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
    design.  Returns ``(mean, se)``.
    """
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
