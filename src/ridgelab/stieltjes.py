"""Fixed-point solves for the resolvent trace of the sample covariance.

The central object is the positive solution ``m`` of

    lam = 1/m - gamma * E[h / (1 + h m)]

for a given spectral law of eigenvalues ``h`` and aspect ratio ``gamma``.
All asymptotic risk quantities are smooth functions of ``m`` and its
derivative ``m'``, so this module is the numerical foundation for the rest
of the package.

Branch structure: when ``gamma * P(h > 0) > 1`` the map above is a
decreasing bijection from the principal interval ``(0, m_edge)`` onto
``(-c0_effective, +inf)``, where ``m_edge`` solves
``1/m^2 = gamma * E[h^2/(1+h m)^2]`` and ``c0_effective`` is the largest
admissible negative regularization.  Bisection on that interval is
guaranteed to converge and never strays onto spurious branches, which is
why it is used instead of Newton steps.  When ``gamma * P(h > 0) <= 1``
the solve is routed through the companion transform ``s`` (the resolvent
trace seen from the sample side), which stays well behaved there.

``m'`` is always computed from the closed-form identity
``m' = 1 / (1/m^2 - gamma * E[h^2/(1+h m)^2])``, never by finite
differencing.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, RegimeError, SolverError
from .spectra import ModelSpec, truncate_top


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances for the bisection solves.

    ``tol`` is relative on the solved quantity, ``max_iter`` caps each
    bracketing or bisection loop, and ``bracket_factor`` is the geometric
    expansion rate used while hunting for a sign change.
    """

    tol: float = 1e-12
    max_iter: int = 200
    bracket_factor: float = 2.0

    def __post_init__(self):
        if not (0 < self.tol < 1e-2):
            raise ValueError("tol must lie in (0, 1e-2)")
        if self.max_iter < 10:
            raise ValueError("max_iter must be at least 10")
        if self.bracket_factor <= 1:
            raise ValueError("bracket_factor must exceed 1")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class StieltjesSolution:
    """Solution of the trace fixed point at one regularization value.

    ``residual`` is the defining-equation mismatch scaled by
    ``max(1, |lam|)``.  ``m_prime`` comes from the closed-form derivative
    identity and is strictly positive on the principal branch.
    """

    lam: float
    m: float
    m_prime: float
    residual: float


@dataclass(frozen=True)
class EdgeInfo:
    """Principal-branch endpoint and the induced negative-ridge domain.

    ``c0_effective`` is the exact infimum of admissible ``-lam``;
    ``c0_bound`` is the closed-form lower bound
    ``(sqrt(gamma) - 1)^2 * c_lower``, valid for full-mass spectra.
    """

    m_edge: float
    c0_effective: float
    c0_bound: float


# ---------------------------------------------------------------------------
# scalar root finding and minimization
# ---------------------------------------------------------------------------


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


def golden_min(f, a: float, b: float, rtol: float, max_iter: int, floor: float = 0.0) -> float:
    """Golden-section minimum of a unimodal ``f`` on ``[a, b]``.

    Same stop rule as :func:`bisect` on the shrinking interval, and the
    same SolverError after ``max_iter`` steps.
    """
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


# ---------------------------------------------------------------------------
# expectation kernels
# ---------------------------------------------------------------------------


def lambda_of_m(model: ModelSpec, m: float) -> float:
    """Regularization value at which the trace fixed point equals ``m``.

    ``m`` is positive on the principal branch of overparameterized-mass
    spectra and negative on the underparameterized negative-``lam``
    branch; the map itself only needs ``m`` away from zero and from the
    atom poles ``1 + h m = 0``.
    """
    if not (m != 0.0 and math.isfinite(m)):
        raise DomainError(f"m must be nonzero and finite, got {m!r}")
    h, w = model.spectrum.h, model.spectrum.w
    scaled = 1.0 + h * m
    if np.any(scaled == 0.0):
        raise DomainError(f"m={m!r} sits on an atom pole of the trace map")
    return 1.0 / m - model.gamma * float(np.dot(w, h / scaled))


def _mprime_denom(model: ModelSpec, m: float) -> float:
    h, w = model.spectrum.h, model.spectrum.w
    return 1.0 / (m * m) - model.gamma * float(np.dot(w, (h / (1.0 + h * m)) ** 2))


@lru_cache(maxsize=512)
def find_edge(model: ModelSpec, config: SolverConfig = DEFAULT_CONFIG) -> EdgeInfo:
    """Locate the endpoint of the principal branch.

    Solves ``1/m^2 = gamma * E[h^2/(1+h m)^2]`` by bisection.  Requires
    ``gamma * P(h > 0) > 1``; below that the equation has no positive root
    and there is no negative-ridge domain to map out.  Results are
    memoized per (model, config) since every solve at the same aspect
    ratio shares the branch endpoint.
    """
    spec = model.spectrum
    gp = model.gamma * spec.positive_mass()
    if gp <= 1.0:
        raise RegimeError(
            f"principal-branch edge requires gamma * P(h > 0) > 1, got {gp!r}"
        )

    def gap(m: float) -> float:  # 1 - gamma*E[(hm)^2/(1+hm)^2], positive inside the branch
        return _mprime_denom(model, m) * m * m

    lo, hi = expand_bracket(gap, 1.0 / spec.c_lower, config.bracket_factor, config.max_iter)
    if lo == 0.0:
        lo = hi / config.bracket_factor**config.max_iter
    m_edge = bisect(gap, lo, hi, config.tol, config.max_iter)
    c0_eff = -lambda_of_m(model, m_edge)
    c0_bound = (math.sqrt(model.gamma) - 1.0) ** 2 * spec.c_lower
    return EdgeInfo(m_edge=m_edge, c0_effective=c0_eff, c0_bound=c0_bound)


def solve_m(model: ModelSpec, lam: float, config: SolverConfig = DEFAULT_CONFIG) -> StieltjesSolution:
    """Solve the trace fixed point at regularization ``lam``.

    Overparameterized-mass regimes (``gamma * P(h > 0) > 1``) bisect the
    principal interval and accept any ``lam`` above ``-c0_effective``.
    Otherwise the solve routes through the companion transform, which
    serves ``lam > 0`` and, below the underparameterized spectrum edge
    permitting, ``lam < 0``; exactly ``lam = 0`` has no finite trace in
    this regime.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lam must be finite, got {lam!r}")
    gp = model.gamma * model.spectrum.positive_mass()
    if gp > 1.0:
        edge = find_edge(model, config)
        if lam <= -edge.c0_effective:
            raise DomainError(
                f"lam={lam!r} at or below the admissible limit "
                f"-c0_effective={-edge.c0_effective!r}",
                c0_effective=edge.c0_effective,
            )
        _, lo = expand_bracket(lambda t: lam - lambda_of_m(model, t), 0.5 * edge.m_edge, 0.5, config.max_iter)
        m = bisect(lambda t: lambda_of_m(model, t) - lam, lo, edge.m_edge, config.tol, config.max_iter)
    else:
        if lam == 0.0:
            raise DomainError(
                "the ridgeless trace diverges when gamma * P(h > 0) <= 1; "
                "evaluate the risk limit directly instead",
            )
        m = (1.0 - model.gamma) / lam + model.gamma * _companion_direct(model, lam, config)
    denom = _mprime_denom(model, m)
    if denom <= 0.0:
        raise SolverError(
            "derivative identity denominator not positive; solution left the principal branch",
            {"lam": lam, "m": m, "denom": denom},
        )
    residual = abs(lambda_of_m(model, m) - lam) / max(1.0, abs(lam))
    return StieltjesSolution(lam=lam, m=m, m_prime=1.0 / denom, residual=residual)


def solve_m_theta(model: ModelSpec, theta: float, config: SolverConfig = DEFAULT_CONFIG) -> StieltjesSolution:
    """Ridgeless trace fixed point after keeping the top-``theta`` mass.

    Truncates the spectrum (removed mass parked at ``h = 0``, expectations
    keep full-mass normalization) and solves at ``lam = 0``.  Requires
    ``theta * gamma > 1`` so the retained problem is still
    overparameterized; otherwise the ridgeless trace has no positive
    solution and a RegimeError is raised.
    """
    if model.gamma * theta <= 1.0:
        raise RegimeError(
            f"ridgeless truncated solve needs theta * gamma > 1, got {model.gamma * theta!r}"
        )
    truncated = truncate_top(model.spectrum, theta)
    sub = ModelSpec(model.gamma, model.sigma2, truncated)
    return solve_m(sub, 0.0, config)


def _companion_direct(model: ModelSpec, lam: float, config: SolverConfig) -> float:
    """Sample-side resolvent trace ``s`` at ``lam != 0``, solving

        s = E[1 / (h (1 - gamma + gamma lam s) + lam)].

    The right side minus ``s`` is decreasing for ``lam > 0``; for
    ``lam < 0`` (underparameterized only) it is convex and the principal
    root is taken on the decreasing segment.
    """
    gamma = model.gamma
    spec = model.spectrum

    def G(s: float) -> float:
        denom = spec.h * (1.0 - gamma + gamma * lam * s) + lam
        if np.any(denom <= 0.0):
            raise DomainError(f"companion denominators not positive at s={s!r}, lam={lam!r}")
        return float(np.dot(spec.w, 1.0 / denom)) - s

    if lam > 0.0:
        lo, hi = expand_bracket(G, max(1.0 / lam, 1.0), config.bracket_factor, config.max_iter)
    else:
        # Negative regularization below the square-root domain bound is
        # rejected outright; inside it, the root sits on the decreasing
        # segment left of the convex minimum.
        if gamma >= 1.0 or spec.truncated:
            raise DomainError("negative lam via the companion route needs gamma < 1 and a full-mass spectrum")
        bound = (1.0 - math.sqrt(gamma)) ** 2 * spec.c_lower
        if lam <= -bound:
            raise DomainError(
                f"lam={lam!r} at or below the admissible limit {-bound!r}",
                c0_effective=bound,
            )
        cap = float(np.min(((1.0 - gamma) + lam / spec.h) / (-gamma * lam)))
        s_min = golden_min(G, cap * 1e-12, cap * (1.0 - 1e-12), config.tol, config.max_iter, 1e-300)
        if G(s_min) > 0.0:
            raise DomainError(
                f"no companion solution at lam={lam!r}: beyond the effective edge",
                c0_effective=bound,
            )
        lo, hi = 0.0, s_min
    return bisect(G, lo, hi, config.tol, config.max_iter, 1e-300)
