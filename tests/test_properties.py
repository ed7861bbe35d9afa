"""Properties of the fixed-point solve and the risk over random spectra.

The reference ``m`` comes from a 40-digit ``mpmath`` bisection that finds
its own branch edge and brackets.  The ``lambda`` residual is asserted
relative to the terms that cancel in it, ``max(|lambda|, 1/|m|)``.  The
optimum search is checked against the scalar search of
``tests/oracles.py``.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgelab import JointSpectrum, ModelSpec, asymptotic_risk, lambda_opt_search, solve_m
from ridgelab.stieltjes import solve_m_grid

from oracles import scalar_lambda_opt_search

mp.mp.dps = 40
TINY = mp.mpf(10) ** -30


def _root(f, lo, hi):
    """Bisection on a bracket where ``f`` changes sign, to 1e-32 relative."""
    f_lo = f(lo) > 0
    assert f_lo != (f(hi) > 0), "reference bracket holds no sign change"
    for _ in range(600):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (f(mid) > 0) == f_lo else (lo, mid)
        if abs(hi - lo) <= TINY / 100 * max(abs(lo), abs(hi)):
            return (lo + hi) / 2
    raise AssertionError("reference bisection did not converge")


def _first_positive(f, x, factor):
    while f(x) <= 0:
        x *= factor
    return x


def reference(h, w, gamma, lam=None):
    """``m(lam)``, or ``(m_edge, c0)`` of the negative-``lambda`` branch when
    ``lam`` is None.  With ``gamma < 1`` that branch is ``m < -1/min(h)``,
    searched in ``x = -1/m``."""
    def lam_of(m):
        return 1 / m - gamma * mp.fsum(wi * hi / (1 + hi * m) for hi, wi in zip(h, w))

    def edge_gap(m):  # 1 - gamma * E[(h m / (1 + h m))^2]
        return 1 - gamma * mp.fsum(wi * (hi * m / (1 + hi * m)) ** 2 for hi, wi in zip(h, w))

    def gap(m):
        return lam_of(m) - lam

    def gap_x(x):
        return gap(-1 / x)

    if gamma > 1:  # lambda(m) falls from +inf to -c0 on (0, m_edge)
        m_edge = _root(edge_gap, mp.mpf(0), _first_positive(lambda m: -edge_gap(m), 1 / min(h), 2))
    else:  # lambda(-1/x) falls from 0 to -c0 on (0, x_edge)
        m_edge = -1 / _root(lambda x: edge_gap(-1 / x), min(h) * TINY, min(h) * (1 - TINY))
    if lam is None:
        return m_edge, -lam_of(m_edge)
    if gamma > 1:
        return _root(gap, _first_positive(gap, m_edge / 2, 0.5), m_edge)
    if lam > 0:  # lambda(m) falls from +inf to 0 on (0, inf)
        return _root(gap, _first_positive(gap, mp.mpf(1), 0.5), _first_positive(lambda m: -gap(m), mp.mpf(1), 2))
    return -1 / _root(gap_x, _first_positive(gap_x, -1 / m_edge / 2, 0.5), -1 / m_edge)


@st.composite
def problems(draw):
    k = draw(st.integers(1, 8))
    h = [10.0 ** draw(st.floats(-6, 6)) for _ in range(k)]
    g = [draw(st.floats(0, 3)) for _ in range(k)]
    w = np.array([draw(st.floats(0.05, 1)) for _ in range(k)])
    w /= w.sum()
    gamma = draw(st.floats(0.1, 10).filter(lambda v: v != 1.0))
    sigma2 = draw(st.sampled_from([0.0, 0.1, 1.0]))
    kind = draw(st.sampled_from(["positive", "negative", "zero"] if gamma > 1 else ["positive", "negative"]))
    if kind == "zero":
        lam = 0.0
    elif kind == "positive":
        lam = 10.0 ** draw(st.floats(-4, 3)) * gamma * float(np.dot(w, h))
    elif gamma > 1:
        c0 = reference([mp.mpf(v) for v in h], [mp.mpf(v) for v in w], gamma)[1]
        lam = -draw(st.floats(0.01, 0.95)) * float(c0)
    else:  # inside the closed-form domain bound of underparameterized problems
        lam = -draw(st.floats(0.01, 0.95)) * (1.0 - math.sqrt(gamma)) ** 2 * min(h)
    return JointSpectrum(np.column_stack([h, g, w])), gamma, sigma2, lam


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems())
def test_solve_m_matches_high_precision_reference(problem) -> None:
    spec, gamma, sigma2, lam = problem
    model = ModelSpec(gamma, sigma2, spec)
    sol = solve_m(model, lam)
    m_ref = float(reference([mp.mpf(v) for v in spec.h], [mp.mpf(v) for v in spec.w], gamma, mp.mpf(lam)))
    assert abs(sol.m - m_ref) <= 1e-11 * abs(m_ref)
    assert sol.residual <= 1e-10
    assert sol.m_prime > 0.0
    ev = asymptotic_risk(model, lam)
    assert abs(ev.bias + ev.variance - ev.total) <= 1e-12 * ev.total
    assert ev.total >= sigma2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(problems())
def test_grid_solve_matches_high_precision_reference(problem) -> None:
    spec, gamma, _, lam = problem
    if lam <= 0.0 and gamma * spec.positive_mass() <= 1.0:
        return  # served by the companion route of the scalar solve only
    lams = [lam, lam + 1.0]  # two rows; both inside the domain when lam is
    for x, m_x in zip(lams, solve_m_grid(ModelSpec(gamma, 0.0, spec), lams)):
        m_ref = float(reference([mp.mpf(v) for v in spec.h], [mp.mpf(v) for v in spec.w], gamma, mp.mpf(x)))
        assert abs(m_x - m_ref) <= 1e-12 * m_ref


@st.composite
def search_problems(draw):
    k = draw(st.integers(1, 6))
    h = [draw(st.floats(0.1, 10)) for _ in range(k)]
    g = [draw(st.floats(0.1, 10)) for _ in range(k)]
    w = np.array([draw(st.floats(0.05, 1)) for _ in range(k)])
    w /= w.sum()
    gamma = draw(st.sampled_from([0.5, 0.8, 1.5, 2.0, 4.0]))
    return ModelSpec(gamma, draw(st.floats(0, 2)), JointSpectrum(np.column_stack([h, g, w])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(search_problems())
def test_search_matches_the_scalar_search(model) -> None:
    out, ref = lambda_opt_search(model), scalar_lambda_opt_search(model)
    assert (out.method, out.sign_class, out.domain) == (ref.method, ref.sign_class, ref.domain)
    assert abs(out.lambda_opt - ref.lambda_opt) <= 1e-10 * max(1.0, abs(ref.lambda_opt))
    assert abs(out.risk_at_opt - ref.risk_at_opt) <= 1e-10 * ref.risk_at_opt
