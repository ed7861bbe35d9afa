"""Fixed-point solves for the resolvent trace of the sample covariance.

The central object is the solution ``m`` of

    lam = 1/m - gamma * E[h / (1 + h m)]

for a given spectral law of eigenvalues ``h`` and aspect ratio ``gamma``.
All asymptotic risk quantities are smooth functions of ``m`` and its
derivative ``m'``, so this module is the numerical foundation for the rest
of the package.

Branch structure: when ``gamma * P(h > 0) > 1`` the map above is a
decreasing bijection from the principal interval ``(0, m_edge)`` onto
``(-c0_effective, +inf)``, where ``m_edge`` solves
``1/m^2 = gamma * E[h^2/(1+h m)^2]`` and ``c0_effective`` is the largest
admissible negative regularization; otherwise it maps ``(0, inf)`` onto
``(0, inf)``.  Every root on these principal branches, one or a whole
regularization grid, comes from one array kernel (:func:`solve_m_grid`):
Newton steps safeguarded by bisection inside a bracket on which the map
decreases, so no iterate strays onto a spurious branch.  Negative ``lam``
with ``gamma * P(h > 0) <= 1`` has its root at ``m < 0``, off those
branches; it is routed through the companion transform ``s`` (the
resolvent trace seen from the sample side), which stays well behaved
there.

``m'`` is always computed from the closed-form identity
``m' = 1 / (1/m^2 - gamma * E[h^2/(1+h m)^2])``, never by finite
differencing.  The identity needs ``1/m^2`` as a float64 number, so the
principal solves serve ``1e-154 < m < 1e154`` and raise DomainError
beyond.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, RegimeError, SolverError
from .spectra import ModelSpec, truncate_top


# bisections stop at 1e-12 relative; every bracketing or bisection loop
# gives up after 200 steps, and bracket hunts grow by a factor of 2
_TOL = 1e-12
_MAX_ITER = 200
_BRACKET_FACTOR = 2.0


@dataclass(frozen=True)
class StieltjesSolution:
    """Solution of the trace fixed point at one regularization value.

    ``residual`` is the defining-equation mismatch scaled by
    ``max(|lam|, 1/|m|)``, the size of the terms that cancel in it.
    ``m_prime`` comes from the closed-form derivative identity and is
    strictly positive on the principal branch.
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
def find_edge(model: ModelSpec) -> EdgeInfo:
    """Locate the endpoint of the principal branch.

    Solves ``1/m^2 = gamma * E[h^2/(1+h m)^2]`` by bisection.  Requires
    ``gamma * P(h > 0) > 1``; below that the equation has no positive root
    and there is no negative-ridge domain to map out.  Results are
    memoized per model since every solve at the same aspect
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

    lo, hi = expand_bracket(gap, 1.0 / spec.c_lower, _BRACKET_FACTOR, _MAX_ITER)
    if lo == 0.0:
        lo = hi / _BRACKET_FACTOR**_MAX_ITER
    m_edge = bisect(gap, lo, hi, _TOL, _MAX_ITER)
    c0_eff = -lambda_of_m(model, m_edge)
    c0_bound = (math.sqrt(model.gamma) - 1.0) ** 2 * spec.c_lower
    return EdgeInfo(m_edge=m_edge, c0_effective=c0_eff, c0_bound=c0_bound)


def solve_m(model: ModelSpec, lam: float) -> StieltjesSolution:
    """Solve the trace fixed point at regularization ``lam``.

    On the principal branches the root is row 0 of
    ``solve_m_grid(model, [lam])``: any ``lam > -c0_effective`` when
    ``gamma * P(h > 0) > 1``, and any ``lam > 0`` otherwise.  Negative
    ``lam`` with ``gamma * P(h > 0) <= 1`` goes through the companion
    transform down to the underparameterized spectrum edge; exactly
    ``lam = 0`` has no finite trace there.  Admissible ``lam`` also keep
    ``1e-154 < m < 1e154``, where ``1/m^2`` in the identity for ``m'`` is a
    float64 number: ``lam + gamma E[h]`` stays below about 1e154, and with
    ``gamma * P(h > 0) <= 1`` a positive ``lam`` stays above about
    1e-154.  Outside the domain a DomainError is raised.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lam must be finite, got {lam!r}")
    if lam <= 0.0 and model.gamma * model.spectrum.positive_mass() <= 1.0:
        if lam == 0.0:
            raise DomainError(
                "the ridgeless trace diverges when gamma * P(h > 0) <= 1; "
                "evaluate the risk limit directly instead",
            )
        m = (1.0 - model.gamma) / lam + model.gamma * _companion_direct(model, lam)
    else:
        m = float(solve_m_grid(model, [lam])[0])
    denom = _mprime_denom(model, m)
    if denom <= 0.0:
        raise SolverError(
            "derivative identity denominator not positive; solution left the principal branch",
            {"lam": lam, "m": m, "denom": denom},
        )
    residual = abs(lambda_of_m(model, m) - lam) / max(abs(lam), 1.0 / abs(m))
    return StieltjesSolution(lam=lam, m=m, m_prime=1.0 / denom, residual=residual)


def solve_m_theta(model: ModelSpec, theta: float) -> StieltjesSolution:
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
    return solve_m(sub, 0.0)


def solution_at(model: ModelSpec, m: float) -> StieltjesSolution:
    """The fixed point whose solution is ``m``: ``lam = lambda_of_m(m)``,
    ``m'`` from the derivative identity, zero residual by construction."""
    return StieltjesSolution(lam=lambda_of_m(model, m), m=m, m_prime=1.0 / _mprime_denom(model, m), residual=0.0)


# ---------------------------------------------------------------------------
# array solve over a regularization grid
# ---------------------------------------------------------------------------

# (rows x atoms) temporaries of the array kernels are capped at 64 KB of
# float64, so a 512 x 2048 grid adds no measurable memory over a scalar solve
_BLOCK_ELEMENTS = 8192
_GRID_RTOL = 1e-13
# m and 1/m^2 are float64 numbers, with room to spare, for 1/_M_LIMIT < m < _M_LIMIT
_M_LIMIT = 1e154


def block_rows(rows: int, atoms: int) -> int:
    """Rows per block of a ``(rows x atoms)`` array kernel: at most
    ``_BLOCK_ELEMENTS`` entries per block, at least one row, at most
    ``rows``."""
    return max(1, min(rows, _BLOCK_ELEMENTS // atoms))


def solve_m_grid(model: ModelSpec, lams) -> np.ndarray:
    """Principal ``m`` at every ``lam`` of ``lams`` in one array solve.

    Serves ``lam > -c0_effective`` when ``gamma * P(h > 0) > 1`` and
    ``lam > 0`` otherwise, within the float64 range of :func:`solve_m`.
    Each root lies in ``[1/(lam + gamma E[h]), min(1/lam, m_edge)]`` (the
    upper end is ``m_edge`` on the principal branch, ``1/lam`` for
    ``lam > 0``), where ``lambda(m)`` decreases, and is found by Newton
    steps safeguarded by bisection.  A row is done once its Newton
    correction or its bracket is below 1e-13 relative; SolverError after
    200 steps.
    """
    lams = np.asarray(lams, dtype=float)
    gamma, h, w = model.gamma, model.spectrum.h, model.spectrum.w
    if gamma * model.spectrum.positive_mass() > 1.0:
        edge = find_edge(model)
        if np.any(lams <= -edge.c0_effective):
            raise DomainError(
                f"lam={float(lams.min())!r} at or below the admissible limit "
                f"-c0_effective={-edge.c0_effective!r}",
                c0_effective=edge.c0_effective,
            )
        hi = np.full_like(lams, edge.m_edge)
    elif np.any(lams <= 0.0):
        raise DomainError("the grid solve needs lam > 0 when gamma * P(h > 0) <= 1")
    else:
        hi = np.full_like(lams, np.inf)
    up = lams > 0.0
    # lambda(1/lam) < lam; the floor keeps 1/lam finite, and a lam under it
    # is rejected below unless m_edge is the tighter end
    hi[up] = np.minimum(hi[up], 1.0 / np.maximum(lams[up], 1.0 / _M_LIMIT))
    lo = 1.0 / (lams + gamma * float(np.dot(w, h)))  # lambda(lo) > lam since h/(1+hm) < h
    outside = (lo <= 1.0 / _M_LIMIT) | (hi >= _M_LIMIT)
    if np.any(outside):
        raise DomainError(
            f"lam={float(lams[outside][0])!r} puts m outside (1e-154, 1e154), where "
            "1/m^2 in the identity for m' is not a float64 number",
        )

    m = np.empty_like(lams)
    step = block_rows(lams.size, h.size)
    work = np.empty((step, h.size))  # reused by every block
    for i in range(0, lams.size, step):
        rows = slice(i, i + step)
        m[rows] = _newton_block(gamma, h, w, lams[rows], lo[rows], hi[rows], work, _MAX_ITER)
    return m


def _newton_block(gamma, h, w, target, lo, hi, work, max_iter):
    """Rows of one block, each leaving the iteration once its Newton
    correction or its bracket is within ``_GRID_RTOL`` relative.  A Newton
    step is taken only if it lands inside the bracket and is at most half
    the step before last; otherwise the bracket is bisected.  Bisection
    takes over where rounding hides the root from Newton (``1/m`` and
    ``gamma E[h/(1+hm)]`` cancelling to far below their size)."""
    out = np.empty_like(target)
    rows = np.arange(target.size)
    x = 0.5 * (lo + hi)
    dx = dx_old = hi - lo
    for _ in range(max_iter):
        buf = work[: x.size]
        np.multiply.outer(x, h, out=buf)
        buf += 1.0
        np.divide(h, buf, out=buf)  # h / (1 + h m)
        gap = 1.0 / x - gamma * (buf @ w) - target
        buf *= buf
        newton = x - gap / (gamma * (buf @ w) - 1.0 / (x * x))  # d lambda / dm < 0
        done = (np.abs(newton - x) <= _GRID_RTOL * x) | (hi - lo <= _GRID_RTOL * hi)
        out[rows[done]] = np.clip(newton, lo, hi)[done]
        if done.all():
            return out
        live = ~done
        rows, x, gap, newton, target, lo, hi, dx, dx_old = (
            a[live] for a in (rows, x, gap, newton, target, lo, hi, dx, dx_old))
        above = gap > 0.0  # lambda(x) > lam: the root lies right of x
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        take = (newton > lo) & (newton < hi) & (2.0 * np.abs(newton - x) <= dx_old)
        new = np.where(take, newton, 0.5 * (lo + hi))
        dx_old, dx, x = dx, np.abs(new - x), new
    raise SolverError("grid solve did not converge", {"max_iter": max_iter, "unconverged": rows.size})


def _companion_direct(model: ModelSpec, lam: float) -> float:
    """Sample-side resolvent trace ``s`` at ``lam < 0`` (underparameterized
    only), solving

        s = E[1 / (h (1 - gamma + gamma lam s) + lam)].

    The right side minus ``s`` is convex there, and the principal root is
    taken on the decreasing segment left of its minimum.  Negative
    regularization below the square-root domain bound is rejected
    outright.
    """
    gamma = model.gamma
    spec = model.spectrum
    if gamma >= 1.0 or spec.truncated:
        raise DomainError("negative lam via the companion route needs gamma < 1 and a full-mass spectrum")
    bound = (1.0 - math.sqrt(gamma)) ** 2 * spec.c_lower
    if lam <= -bound:
        raise DomainError(
            f"lam={lam!r} at or below the admissible limit {-bound!r}",
            c0_effective=bound,
        )

    def G(s: float) -> float:
        denom = spec.h * (1.0 - gamma + gamma * lam * s) + lam
        if np.any(denom <= 0.0):
            raise DomainError(f"companion denominators not positive at s={s!r}, lam={lam!r}")
        return float(np.dot(spec.w, 1.0 / denom)) - s

    cap = float(np.min(((1.0 - gamma) + lam / spec.h) / (-gamma * lam)))
    s_min = golden_min(G, cap * 1e-12, cap * (1.0 - 1e-12), _TOL, _MAX_ITER, 1e-300)
    if G(s_min) > 0.0:
        raise DomainError(
            f"no companion solution at lam={lam!r}: beyond the effective edge",
            c0_effective=bound,
        )
    return bisect(G, 0.0, s_min, _TOL, _MAX_ITER, 1e-300)
