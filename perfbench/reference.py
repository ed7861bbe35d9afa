"""Independent numpy references for checking ridgelab's outputs.

Nothing here imports ridgelab.  The theory references solve

    lam = 1/m - gamma * E[h / (1 + h m)]

for a whole grid of ``lam`` at once by vectorized, bracketed Newton steps
(to 1e-14 relative), and evaluate the risk from ``m`` and the closed-form
``m'``.  The Monte Carlo references rebuild a replicate's design from its
seed and evaluate the conditional risk by dense linear solves (no
eigendecomposition), on the smaller of the primal ``p x p`` and the dual
``n x n`` systems, and hold no array larger than the ``n x p`` design.
"""

import math

import numpy as np

_MAX_STEPS = 400
_STEP_RTOL = 1e-14  # four orders below the 1e-10 agreement the checks ask for
_ROW_BLOCK = 64  # rows of a p x p residual map formed at a time


class ReferenceDomainError(ValueError):
    """The requested point lies outside the admissible domain."""


def solve_decreasing(f, lo, hi, target):
    """Solve ``f(x) = target`` elementwise for ``f`` decreasing on ``[lo, hi]``.

    ``f`` returns the pair ``(f(x), f'(x))`` for an array ``x``.
    Safeguarded Newton: each step shrinks the bracket ``f(lo) > target >
    f(hi)`` and any step that would leave it is replaced by bisection, so
    the iteration converges for every bracketed root; it stops once no
    estimate moves by more than ``_STEP_RTOL`` relative.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        value, slope = f(x)
        gap = value - target
        lo = np.where(gap > 0.0, x, lo)
        hi = np.where(gap <= 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - gap / slope
        inside = (step > lo) & (step < hi)
        new = np.where(inside, step, 0.5 * (lo + hi))
        moved = np.abs(new - x) > _STEP_RTOL * np.abs(x)
        x = new
        if not np.any(moved):
            break
    return x


def _expect(w, values):
    """``E[values]`` over atoms along the last axis."""
    return values @ w


def lambda_and_slope(h, w, gamma):
    """``m -> (lam(m), d lam / d m)``; the slope is ``-1/m'``."""
    def f(m):
        m = np.asarray(m, dtype=float)
        zeta = np.multiply.outer(m, h)  # in place below: 3x faster on 2048 atoms
        zeta += 1.0
        np.divide(h, zeta, out=zeta)
        e1 = _expect(w, zeta)
        zeta *= zeta
        return 1.0 / m - gamma * e1, gamma * _expect(w, zeta) - 1.0 / m**2
    return f


def m_prime(h, w, gamma, m):
    return -1.0 / lambda_and_slope(h, w, gamma)(m)[1]


def solve_m(h, w, gamma, lams):
    """Principal solution ``m`` of the fixed point at every ``lam``.

    ``h`` may carry zero atoms (truncated spectra); their weight counts in
    the expectations but not in ``P(h > 0)``.  With ``gamma * P(h > 0) > 1``
    the principal branch is ``m`` in ``(0, m_edge)``.  Otherwise positive
    ``lam`` maps to ``m`` in ``(0, inf)`` and negative ``lam`` to
    ``m = -1/u`` with ``u`` in ``(0, u_edge)``, ``u_edge < min h``.
    """
    h = np.asarray(h, dtype=float)
    w = np.asarray(w, dtype=float)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    pos = h > 0
    gp = gamma * float(w[pos].sum())
    m = np.empty_like(lams)
    e_h = float(np.dot(w, h))
    lo_all = 1.0 / (np.maximum(lams, 0.0) + gamma * e_h + 1.0)  # lambda(lo) > lam
    if gp > 1.0:
        m_edge = principal_edge(h, w, gamma)
        f = lambda_and_slope(h, w, gamma)
        if np.any(lams <= f(m_edge)[0]):
            raise ReferenceDomainError("lam at or below the principal-branch edge")
        return solve_decreasing(f, lo_all, np.full_like(lams, m_edge), lams)
    if np.any(lams == 0.0):
        raise ReferenceDomainError("the trace diverges at lam = 0 when gamma * P(h > 0) <= 1")
    up = lams > 0.0
    if np.any(up):
        # lambda(m) < 1/m for m > 0, so m = 1/lam brackets from above.
        m[up] = solve_decreasing(lambda_and_slope(h, w, gamma), lo_all[up], 1.0 / lams[up], lams[up])
    down = ~up
    if np.any(down):
        hp = h[pos]
        wp = w[pos]

        def lam_of_u(u):  # lam(-1/u) and its slope in u
            q = hp / (hp - u[..., None])
            return -u + gamma * _expect(wp, q * u[..., None]), gamma * _expect(wp, q * q) - 1.0

        def edge(u):  # minus the slope: decreasing, zero at the edge
            q = hp / (hp - u[..., None])
            return 1.0 - gamma * _expect(wp, q * q), -2.0 * gamma * _expect(wp, q * q * q / hp)

        u_edge = solve_decreasing(edge, np.zeros(1), np.full(1, float(hp.min())), np.zeros(1))
        if np.any(lams[down] <= lam_of_u(u_edge)[0]):
            raise ReferenceDomainError("lam at or below the underparameterized edge")
        k = int(down.sum())
        u = solve_decreasing(lam_of_u, np.zeros(k), np.full(k, float(u_edge[0])), lams[down])
        m[down] = -1.0 / u
    return m


def principal_edge(h, w, gamma) -> float:
    """``m_edge`` solving ``1 = gamma * E[(h m)^2 / (1 + h m)^2]``."""
    def gap(m):
        z = np.multiply.outer(m, h)
        frac = z / (1.0 + z)
        return 1.0 - gamma * _expect(w, frac * frac), -2.0 * gamma * _expect(w, frac * h / (1.0 + z) ** 2)

    hi = 1.0 / float(h[h > 0].min())
    while gap(np.array([hi]))[0][0] > 0.0:
        hi *= 2.0
    return float(solve_decreasing(gap, np.zeros(1), np.full(1, hi), np.zeros(1))[0])


def risk(h, g, w, gamma, sigma2, lams):
    """``(total, bias, variance)`` arrays of the asymptotic risk at ``lams``.

    Includes the underparameterized ridgeless closed form ``sigma2 /
    (1 - gamma)`` at ``lam = 0`` for ``gamma < 1``.
    """
    h, g, w = (np.asarray(a, dtype=float) for a in (h, g, w))
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    bias = np.zeros_like(lams)
    variance = np.full_like(lams, sigma2 / (1.0 - gamma) if gamma < 1.0 else np.nan)
    solve = ~((lams == 0.0) & (gamma < 1.0))
    if np.any(solve):
        m = solve_m(h, w, gamma, lams[solve])
        pref = m_prime(h, w, gamma, m) / m**2
        bias[solve] = pref * gamma * _expect(w, g * h / (1.0 + np.multiply.outer(m, h)) ** 2)
        variance[solve] = sigma2 * pref
    return bias + variance, bias, variance


def null_risk(h, g, w, gamma, sigma2) -> float:
    """Risk of the zero estimator (``lam -> inf``): ``gamma E[g h] + sigma2``."""
    return gamma * float(np.dot(w, np.asarray(g) * np.asarray(h))) + sigma2


def split_top(h, w, theta):
    """Kept weights of the top-``theta`` eigenvalue mass (ties split evenly)."""
    h = np.asarray(h, dtype=float)
    w = np.asarray(w, dtype=float)
    kept = np.zeros_like(w)
    left = theta
    for level in sorted(set(h.tolist()), reverse=True):
        if left <= 0.0:
            break
        at = h == level
        mass = float(w[at].sum())
        take = min(mass, left)
        kept[at] = w[at] * (take / mass)
        left -= take
    return kept


def pcr_risk(h, g, w, gamma, sigma2, theta):
    """``(total, bias, variance)`` of ridgeless regression on the top-``theta`` mass."""
    h, g, w = (np.asarray(a, dtype=float) for a in (h, g, w))
    kept = split_top(h, w, theta)
    dropped = np.maximum(w - kept, 0.0)
    gh = g * h
    tg = theta * gamma
    if tg < 1.0:
        bias = gamma * float(np.dot(dropped, gh)) / (1.0 - tg)
        variance = sigma2 / (1.0 - tg)
        return bias + variance, bias, variance
    live = kept > 0
    hk, wk = h[live], kept[live]
    m = float(solve_m(hk, wk, gamma, [0.0])[0])
    pref = float(m_prime(hk, wk, gamma, m)) / m**2
    bias = pref * gamma * (float(np.dot(wk, gh[live] / (1.0 + hk * m) ** 2)) + float(np.dot(dropped, gh)))
    variance = sigma2 * pref
    return bias + variance, bias, variance


# ---------------------------------------------------------------------------
# Monte Carlo: dense direct evaluation of one replicate
# ---------------------------------------------------------------------------


def design(d_x, n: int, seed: int):
    """Replicate 0 of master seed ``seed``: the design and its generator.

    Follows the documented stream convention: ``default_rng((seed, 0))``
    draws the standard-normal ``n x p`` matrix first, scaled by
    ``sqrt(d_x / n)``.
    """
    rng = np.random.default_rng((seed, 0))
    z = rng.standard_normal((n, d_x.size))
    z *= np.sqrt(d_x / n)
    return z, rng


def conditional_risk(x, d_x, d_beta, d_w, lam: float, sigma2: float):
    """Exact ``(variance, bias)`` of the penalized fit given the design.

    In whitened coordinates ``Xw = X / sqrt(d_w)``, ``G = Xw' Xw`` and
    ``A = (G + lam I)^{-1}``, the variance trace is ``tr(D_xw A G A)`` and
    the bias ``tr(D_xw M D_wb M) / n`` with ``M = lam A`` (the null-space
    projector at ``lam = 0``).  With ``p <= n`` they are evaluated as
    ``sum_i d_i (A_ii - lam sum_j A_ij^2)`` and ``lam^2 sum_ij d_i A_ij^2 e_j``
    from one ``p x p`` solve.  With ``p > n`` the dual solve
    ``B = (K + lam I)^{-1} Xw`` (``K = Xw Xw'``) gives ``sum_j d_j |B[:, j]|^2``
    and ``M = I - Xw' B``, formed a block of rows at a time so that no
    ``p x p`` array is held.  At ``lam = 0`` both reduce to the minimum-norm fit.
    """
    n, p = x.shape
    d_xw = d_x / d_w
    d_wb = d_w * d_beta
    xw = x / np.sqrt(d_w)
    if p > n:
        b = np.linalg.solve(xw @ xw.T + lam * np.eye(n), xw)
        var_trace = float(np.dot(d_xw, (b * b).sum(axis=0)))
        bias = _residual_energy(xw.T, b, np.arange(p), d_wb, d_xw)
    else:
        gram = xw.T @ xw
        gram.flat[:: p + 1] += lam
        a = np.linalg.solve(gram, np.eye(p))
        diag = np.diag(a).copy()
        a *= a
        var_trace = float(np.dot(d_xw, diag - lam * a.sum(axis=1)))
        bias = lam * lam * float(d_wb @ a @ d_xw)
    return sigma2 * (1.0 + var_trace / n), bias / n


def _residual_energy(left, right, cols, row_weight, col_weight) -> float:
    """``sum_ij row_weight[cols[i]] R_ij^2 col_weight[j]`` for the rows
    ``R_i = e_{cols[i]} - left[i] @ right``, a block of rows at a time."""
    total = 0.0
    for start in range(0, len(cols), _ROW_BLOCK):
        block = cols[start:start + _ROW_BLOCK]
        r = left[start:start + _ROW_BLOCK] @ right
        r *= -1.0
        r[np.arange(block.size), block] += 1.0
        r *= r
        total += float(row_weight[block] @ r @ col_weight)
    return total


def empirical_risk(d_x, d_beta, d_w, n: int, seed: int, lam: float, sigma2: float) -> float:
    """Fit-and-score value of one Gaussian-prior replicate by a dense solve."""
    x, rng = design(d_x, n, seed)
    beta = rng.standard_normal(d_x.size) * np.sqrt(d_beta)
    noise = rng.standard_normal(n) * math.sqrt(sigma2) if sigma2 > 0 else np.zeros(n)
    y = x @ beta + noise
    xw = x / np.sqrt(d_w)
    n_, p = xw.shape
    if p > n_:
        coef = xw.T @ np.linalg.solve(xw @ xw.T + lam * np.eye(n_), y)
    else:
        coef = np.linalg.solve(xw.T @ xw + lam * np.eye(p), xw.T @ y)
    delta = beta - coef / np.sqrt(d_w)
    return sigma2 + float(np.dot(delta * d_x, delta)) / n


def pcr_conditional_risk(d_x, d_beta, n: int, seed: int, theta: float, sigma2: float) -> float:
    """Conditional risk of ridgeless regression on the top ``ceil(theta p)``
    coordinates (Gaussian prior), with the fit map built by a dense solve
    and the ``p x p`` residual map formed a block of rows at a time."""
    x, _ = design(d_x, n, seed)
    p = d_x.size
    k = math.ceil(theta * p)
    keep = np.argsort(-d_x, kind="stable")[:k]
    xk = x[:, keep]
    if k <= n:
        fit = np.linalg.solve(xk.T @ xk, xk.T)  # k x n least squares map
    else:
        fit = np.linalg.solve(xk @ xk.T, xk).T  # k x n minimum-norm map
    sx = d_x / n
    # Rows of the residual map I - P outside ``keep`` are unit rows.
    dropped = np.ones(p, dtype=bool)
    dropped[keep] = False
    bias = float(np.dot(sx[dropped], d_beta[dropped])) + _residual_energy(fit, x, keep, sx, d_beta)
    noise = sigma2 * float(np.dot(sx[keep], (fit * fit).sum(axis=1)))
    return sigma2 + bias + noise
