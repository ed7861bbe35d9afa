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
``1/m^2 = gamma * E[h^2/(1+h m)^2]``; otherwise it maps ``(0, inf)`` onto
``(0, inf)``.  Every root on these branches comes from one array kernel
(:func:`solve_m_grid`): Newton steps safeguarded by bisection inside a
bracket on which the map decreases.  Negative ``lam`` with
``gamma * P(h > 0) <= 1`` has its root at ``m < 0``, off those branches,
and goes through the companion transform ``s`` (the resolvent trace seen
from the sample side), solved by Newton steps from ``s = 0``.
:func:`solve_m_rows` routes a whole grid and keeps each point's DomainError
in its row.  ``m' = 1 / (1/m^2 - gamma * E[h^2/(1+h m)^2])`` is closed
form, so the solves serve ``1e-154 < |m| < 1e154``, where ``1/m^2`` is a
float64 number.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, RegimeError, SolverError
from .spectra import ModelSpec, split_top_mass


# the edge is found to 1e-12 relative; iterations give up after 200 steps
_TOL = 1e-12
_MAX_ITER = 200


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


def find_edge(model: ModelSpec) -> EdgeInfo:
    """Locate the endpoint of the principal branch.

    Solves ``1/m^2 = gamma * E[h^2/(1+h m)^2]`` by bisection, from a
    bracket set by the largest and the smallest positive atom and first
    narrowed in ``log m``, so atoms hundreds of decades apart (``h = 1e-300``
    beside ``h = 1``) still bracket.  Requires ``gamma * P(h > 0) > 1``;
    below that the equation has no positive root and there is no
    negative-ridge domain to map out.  Results are memoized per aspect
    ratio and spectrum, whatever the noise level, since every solve at the
    same aspect ratio shares the branch endpoint.
    """
    return _edge(ModelSpec(model.gamma, 0.0, model.spectrum))


@lru_cache(maxsize=512)
def _edge(model: ModelSpec) -> EdgeInfo:
    spec = model.spectrum
    gp = model.gamma * spec.positive_mass()
    if gp <= 1.0:
        raise RegimeError(
            f"principal-branch edge requires gamma * P(h > 0) > 1, got {gp!r}"
        )

    def gap(m: float) -> float:  # 1 - gamma*E[(hm)^2/(1+hm)^2], positive inside the branch
        t = spec.h / (spec.h + 1.0 / m)  # hm/(1+hm), finite for every m > 0
        return 1.0 - model.gamma * float(np.dot(spec.w, t * t))

    # gap > 0 at lo, where every term is below (h m)^2 <= 1/gamma; gap < 0 at
    # hi, where every positive atom has hm/(1+hm) above 1/sqrt(gp)
    lo = 1.0 / float(spec.h.max()) / math.sqrt(model.gamma)
    hi = min(2.0 / spec.c_lower / (math.sqrt(gp) - 1.0), sys.float_info.max)
    # bisection, in log m while the bracket spans more than a factor 2 (it may
    # span hundreds of decades), to 1e-12 relative
    while hi - lo > _TOL * hi:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    m_edge = 0.5 * (lo + hi)
    c0_eff = -lambda_of_m(model, m_edge)
    c0_bound = (math.sqrt(model.gamma) - 1.0) ** 2 * spec.c_lower
    return EdgeInfo(m_edge=m_edge, c0_effective=c0_eff, c0_bound=c0_bound)


def solve_m(model: ModelSpec, lam: float) -> StieltjesSolution:
    """Solve the trace fixed point at regularization ``lam``: the one-row
    case of :func:`solve_m_rows`, raising the DomainError of a ``lam``
    outside the domain."""
    (m,), (error,) = solve_m_rows(model, [lam])
    if error is not None:
        raise error
    h, w = model.spectrum.h, model.spectrum.w
    m = float(m)
    denom = 1.0 / (m * m) - model.gamma * float(np.dot(w, (h / (1.0 + h * m)) ** 2))
    if denom <= 0.0:
        raise SolverError(
            "derivative identity denominator not positive; solution left the principal branch",
            {"lam": lam, "m": m, "denom": denom},
        )
    residual = abs(lambda_of_m(model, m) - lam) / max(abs(lam), 1.0 / abs(m))
    return StieltjesSolution(lam=lam, m=m, m_prime=1.0 / denom, residual=residual)


def solve_m_rows(model: ModelSpec, lams) -> tuple:
    """``(m, errors)`` at every ``lam`` of ``lams``: ``errors[i]`` is None, or
    the DomainError of a ``lams[i]`` outside the domain, where ``m[i]`` is
    NaN.  The principal rows are one solve of the :func:`solve_m_grid`
    kernel, the negative ``lam`` with ``gamma * P(h > 0) <= 1`` one
    companion solve."""
    lams = np.asarray(lams, dtype=float)
    gamma, spec = model.gamma, model.spectrum
    companion = np.isfinite(lams) & (lams < 0.0) & (gamma * spec.positive_mass() <= 1.0)
    lo, hi, errors = _principal_bracket(model, lams)
    # no negative lam is admissible without full mass and gamma < 1
    bound = (1.0 - math.sqrt(gamma)) ** 2 * spec.c_lower if gamma < 1.0 and not spec.truncated else 0.0
    for i in np.flatnonzero(companion):
        lam = float(lams[i])
        if lam <= -bound:
            errors[i] = DomainError(f"lam={lam!r} at or below the admissible limit {-bound!r}", c0_effective=bound)
        else:  # |m| < (1 - gamma) / |lam| on the companion branch
            errors[i] = None if -lam * _M_LIMIT > 1.0 - gamma else DomainError(f"lam={lam!r} {_OUT_OF_RANGE}")
    solvable = np.array([error is None for error in errors], dtype=bool)
    m = np.full_like(lams, np.nan)
    rows = solvable & ~companion
    m[rows] = _grid_roots(model, lams[rows], lo[rows], hi[rows])
    rows = np.flatnonzero(solvable & companion)
    if rows.size:
        m[rows] = (1.0 - gamma) / lams[rows] + gamma * _companion_direct(model, lams[rows])
    for i in rows[np.isnan(m[rows])]:
        errors[i] = DomainError(f"no companion solution at lam={float(lams[i])!r}: beyond the effective edge",
                                c0_effective=bound)
    return m, errors


def solve_m_theta(model: ModelSpec, theta: float) -> StieltjesSolution:
    """Ridgeless trace fixed point after keeping the top-``theta`` mass: the
    one-row case of :func:`solve_m_thetas`, raising its row's error."""
    (m,), (kept,), (error,) = solve_m_thetas(model, [theta])
    if error is not None:
        raise error
    h, m = model.spectrum.h, float(m)
    t = h / (1.0 + h * m)
    return StieltjesSolution(lam=0.0, m=m, m_prime=1.0 / (1.0 / (m * m) - model.gamma * float(np.dot(kept, t * t))),
                             residual=abs(1.0 / m - model.gamma * float(np.dot(kept, t))) * m)


def solve_m_thetas(model: ModelSpec, thetas) -> tuple:
    """``(m, kept, errors)``: the ridgeless trace fixed point after keeping the
    top-``theta`` mass, at every ``theta`` of ``thetas`` in one kernel call
    whose rows are the kept weights ``kept[i]`` of :func:`split_top_mass`.
    ``errors[i]`` is None, or the RegimeError of ``theta * gamma <= 1`` or the
    DomainError of a ``theta`` outside (0, 1] or whose bracket leaves
    ``(1e-154, 1e154)``, where ``m[i]`` is NaN.

    The root solves ``F(m) = gamma E_theta[hm/(1+hm)] = 1``, and ``F`` rises
    from 0 to ``gamma theta_+`` (the kept mass on ``h > 0``).  As
    ``cm/(1+cm) <= hm/(1+hm) < hm`` for every kept ``h >= c > 0``, the
    smallest, ``F < 1`` at ``lo = 1/(gamma E_theta[h])`` and ``F >= 1`` at
    ``hi = 1/(c (gamma theta_+ - 1))``: no edge search.  The kernel's gap
    ``(1 - F(m))/m`` has the sign of ``root - m`` on all of ``(0, inf)``, so its
    bisection guard holds beyond ``m_edge`` too, where ``lambda(m)`` rises
    again and the Newton steps that leave the bracket are refused.
    """
    thetas = np.asarray(thetas, dtype=float)
    gamma, h = model.gamma, model.spectrum.h
    kept = np.zeros((thetas.size, h.size))
    errors = [None] * thetas.size
    for i, theta in enumerate(thetas.tolist()):
        try:
            if gamma * theta <= 1.0:
                raise RegimeError(f"ridgeless truncated solve needs theta * gamma > 1, got {gamma * theta!r}")
            kept[i] = split_top_mass(model.spectrum, theta)[2]
        except DomainError as exc:
            errors[i] = exc
    e_h = gamma * row_dot(kept, h)
    inv_hi = np.where((kept > 0.0) & (h > 0.0), h, np.inf).min(axis=1) * (gamma * row_dot(kept, h > 0.0) - 1.0)
    solve = (e_h < _M_LIMIT) & (inv_hi > 1.0 / _M_LIMIT)  # rows in error have no kept mass
    for i in np.flatnonzero(~solve):
        errors[i] = errors[i] or DomainError(f"theta={float(thetas[i])!r} {_OUT_OF_RANGE}")
    m = np.full_like(thetas, np.nan)
    m[solve] = _grid_roots(model, np.zeros(solve.sum()), 1.0 / e_h[solve], 1.0 / inv_hi[solve], kept[solve])
    return m, kept, errors


# ---------------------------------------------------------------------------
# array solve over a regularization grid
# ---------------------------------------------------------------------------

# (rows x atoms) temporaries of the array kernels are capped at 64 KB of
# float64, so a 512 x 2048 grid adds no measurable memory over a scalar solve
_BLOCK_ELEMENTS = 8192
_GRID_RTOL = 1e-13
# m and 1/m^2 are float64 numbers, with room to spare, for 1/_M_LIMIT < |m| < _M_LIMIT
_M_LIMIT = 1e154
_OUT_OF_RANGE = "puts m outside (1e-154, 1e154), where 1/m^2 in the identity for m' is not a float64 number"


def block_rows(rows: int, atoms: int) -> int:
    """Rows per block of a ``(rows x atoms)`` array kernel: at most
    ``_BLOCK_ELEMENTS`` entries per block, at least one row, at most
    ``rows``."""
    return max(1, min(rows, _BLOCK_ELEMENTS // atoms))


# ``a @ w`` (or, for a ``w`` of rows, row by row) one row at a time: the sum of
# a row depends on that row alone, so a row of a grid gets the same bits as
# the row on its own (BLAS gemv rounds it differently beside other rows).
row_dot = getattr(np, "vecdot", None) or (lambda a, w: np.einsum("...j,...j->...", a, w))


def solve_m_grid(model: ModelSpec, lams) -> np.ndarray:
    """Principal ``m`` at every ``lam`` of ``lams`` in one array solve.

    Serves ``lam > -c0_effective`` when ``gamma * P(h > 0) > 1`` and
    ``lam > 0`` otherwise, within the float64 range of ``m``, and raises
    the DomainError of the first row outside it.  Each root lies in
    ``[1/(lam + gamma E[h]), min(1/lam, m_edge)]``, where ``lambda(m)``
    decreases, and is found by Newton steps safeguarded by bisection.  A
    row is done once its Newton correction or its bracket is below 1e-13
    relative; SolverError after 200 steps.
    """
    lams = np.asarray(lams, dtype=float)
    lo, hi, errors = _principal_bracket(model, lams)
    for error in filter(None, errors):
        raise error
    return _grid_roots(model, lams, lo, hi)


def _grid_roots(model: ModelSpec, lams: np.ndarray, lo: np.ndarray, hi: np.ndarray, w=None) -> np.ndarray:
    """Roots in ``[lo, hi]`` at every ``lam`` of ``lams``, under ``w[i]`` if given."""
    h, w = model.spectrum.h, model.spectrum.w if w is None else w
    m = np.empty_like(lams)
    step = block_rows(lams.size, h.size)
    work = np.empty((step, h.size))  # reused by every block
    for i in range(0, lams.size, step):
        rows = slice(i, i + step)
        wr = w[rows] if w.ndim == 2 else w
        m[rows] = _newton_block(model.gamma, h, wr, lams[rows], lo[rows], hi[rows], work, _MAX_ITER)
    return m


def _principal_bracket(model: ModelSpec, lams: np.ndarray) -> tuple:
    """``(lo, hi, errors)``: the root bracket of :func:`solve_m_grid` at every
    ``lam``, and per row None or the DomainError of a ``lam`` outside it."""
    gamma, h, w = model.gamma, model.spectrum.h, model.spectrum.w
    if gamma * model.spectrum.positive_mass() > 1.0:
        edge = find_edge(model)
        c0, hi = edge.c0_effective, np.full_like(lams, edge.m_edge)
        limit = f"at or below the admissible limit -c0_effective={-c0!r}"
    else:  # the principal branch maps (0, inf) onto (0, inf)
        c0, hi = None, np.full_like(lams, np.inf)
        limit = "is not positive: with gamma * P(h > 0) <= 1 the principal trace diverges at lam = 0"
    below = lams <= -(c0 or 0.0)
    up = lams > 0.0
    # lambda(1/lam) < lam; the floor keeps 1/lam finite, and a lam under it
    # is rejected below unless m_edge is the tighter end
    hi[up] = np.minimum(hi[up], 1.0 / np.maximum(lams[up], 1.0 / _M_LIMIT))
    # lambda(lo) > lam since h/(1+hm) < h; lam + gamma E[h] > 0 above the edge
    lo = 1.0 / np.where(below, 1.0, lams + gamma * float(np.dot(w, h)))
    errors = [None] * lams.size
    for i in np.flatnonzero(~np.isfinite(lams) | below | (lo <= 1.0 / _M_LIMIT) | (hi >= _M_LIMIT)):
        lam = float(lams[i])
        reason = "is not finite" if not math.isfinite(lam) else limit if below[i] else _OUT_OF_RANGE
        errors[i] = DomainError(f"lam={lam!r} {reason}", c0_effective=c0 if reason is limit else None)
    return lo, hi, errors


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
        buf, wr = work[: x.size], w[rows] if w.ndim == 2 else w
        np.multiply.outer(x, h, out=buf)
        buf += 1.0
        np.divide(h, buf, out=buf)  # h / (1 + h m)
        gap = 1.0 / x - gamma * row_dot(buf, wr) - target
        buf *= buf
        newton = x - gap / (gamma * row_dot(buf, wr) - 1.0 / (x * x))  # d lambda / dm < 0 left of m_edge
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


def _companion_direct(model: ModelSpec, lams: np.ndarray) -> np.ndarray:
    """Sample-side resolvent trace ``s`` at every ``lam`` of ``lams`` in
    ``(-(1 - gamma) min h, 0)`` (``gamma < 1``, full mass): the root of
    ``G(s) = E[1 / (h (1 - gamma + gamma lam s) + lam)] - s``, convex left of
    the pole of the smallest atom, so Newton steps from ``s = 0`` rise to
    the root.  ``G' >= 0`` at an iterate, or a step to the pole, means the
    ``lam`` lies beyond the effective edge: NaN."""
    gamma, h, w = model.gamma, model.spectrum.h, model.spectrum.w
    s = np.full_like(lams, np.nan)
    step = block_rows(lams.size, h.size)
    for start in range(0, lams.size, step):
        rows = np.arange(start, min(start + step, lams.size))
        lam, x = lams[rows], np.zeros(rows.size)
        for _ in range(_MAX_ITER):
            inv = 1.0 / (np.multiply.outer(1.0 - gamma + gamma * lam * x, h) + lam[:, None])
            gap = row_dot(inv, w) - x
            slope = -gamma * lam * row_dot(inv * inv * h, w) - 1.0
            edge = slope >= 0.0
            new = x - gap / np.where(edge, -1.0, slope)
            edge |= h.min() * (1.0 - gamma + gamma * lam * new) + lam <= 0.0  # at or past the pole
            # gap <= 0 only where rounding put the iterate on the root
            done = ~edge & ((np.abs(new - x) <= _GRID_RTOL * new) | (gap <= 0.0))
            s[rows[done]] = new[done]
            live = ~(edge | done)
            rows, x, lam = rows[live], new[live], lam[live]
            if rows.size == 0:
                break
        else:
            raise SolverError("companion solve did not converge", {"max_iter": _MAX_ITER, "unconverged": rows.size})
    return s
