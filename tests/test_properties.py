"""Properties of the fixed-point solve and the risk over random spectra.

The reference ``m`` comes from a 40-digit ``mpmath`` bisection that finds
its own branch edge and brackets.  The ``lambda`` residual is asserted
relative to the terms that cancel in it, ``max(|lambda|, 1/|m|)``.  The
optimum search is checked against the capped scalar search of
``tests/oracles.py`` where that search's optimum is interior, and against
a dense penalty grid out to 1e12 everywhere.  Each row of a risk curve is
checked against the risk at its point alone, and each row of a PCR curve
against the pointwise PCR solve of ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgelab import (
    DomainError,
    JointSpectrum,
    ModelSpec,
    RiskEvaluation,
    asymptotic_risk,
    find_edge,
    lambda_opt_search,
    pcr_curve,
    risk_curve,
    solve_m,
)
from ridgelab.stieltjes import solve_m_grid

from oracles import pointwise_pcr_risk, scalar_lambda_opt_search

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
    assert out.domain == (ref.domain[0], math.inf)
    if ref.method == "golden_section":  # the capped search's optimum is not interior
        assert out.risk_at_opt <= ref.risk_at_opt * (1.0 + 1e-10)
        return
    assert (out.method, out.sign_class) == (ref.method, ref.sign_class)
    assert abs(out.lambda_opt - ref.lambda_opt) <= 1e-10 * max(1.0, abs(ref.lambda_opt))
    assert abs(out.risk_at_opt - ref.risk_at_opt) <= 1e-10 * ref.risk_at_opt


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(search_problems())
def test_search_beats_a_dense_grid_out_to_1e12(model) -> None:
    out = lambda_opt_search(model)
    lo = out.domain[0]
    lams = np.geomspace(1e-10, 1e12, 800)
    if lo < 0.0:  # 200 points toward 0 from the domain's negative end
        lams = np.concatenate([-np.geomspace(-lo, -lo * 1e-10, 200), lams])
    risks = [ev.total for ev in risk_curve(model, lams)]
    assert out.risk_at_opt <= min(risks) * (1.0 + 1e-12), (out, lams[int(np.argmin(risks))])


@st.composite
def curve_problems(draw):
    """A random 1-8 atom model and a shuffled grid that straddles the
    negative edge, 0, and the lam at which m leaves (1e-154, 1e154)."""
    k = draw(st.integers(1, 8))
    h = [10.0 ** draw(st.floats(-3, 3)) for _ in range(k)]
    g = [draw(st.floats(0, 3)) for _ in range(k)]
    w = np.array([draw(st.floats(0.05, 1)) for _ in range(k)])
    w /= w.sum()
    gamma = draw(st.floats(0.1, 10).filter(lambda v: v != 1.0))
    model = ModelSpec(gamma, draw(st.sampled_from([0.0, 0.1, 1.0])), JointSpectrum(np.column_stack([h, g, w])))
    if gamma > 1.0:
        edge = find_edge(model).c0_effective
    else:  # the closed-form bound of the companion route
        edge = (1.0 - math.sqrt(gamma)) ** 2 * min(h)
    lams = [-edge * f for f in (2.0, 1.0 + 1e-6, 1.0, 0.999, 0.5, draw(st.floats(0.0, 1.0)))]
    lams += [0.0, -1e-150, 1e-150, -1e-160, 1e-160, 1e153, 1e160, math.inf]
    lams += [10.0 ** draw(st.floats(-4, 3)) for _ in range(3)]
    return model, draw(st.permutations(lams))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(curve_problems())
def test_curve_rows_match_the_risk_at_their_points(problem) -> None:
    # a RuntimeWarning anywhere, masked rows included, fails the test (pyproject.toml)
    model, lams = problem
    rows = risk_curve(model, lams)
    assert len(rows) == len(lams)
    for lam, row in zip(lams, rows):
        try:
            alone = asymptotic_risk(model, lam)
        except DomainError as exc:
            assert type(row) is type(exc), (lam, row, exc)
            continue
        assert isinstance(row, RiskEvaluation) and row.lam == lam
        for got, want in ((row.total, alone.total), (row.bias, alone.bias), (row.variance, alone.variance)):
            assert abs(got - want) <= 1e-12 * abs(want), (lam, got, want)


@st.composite
def pcr_problems(draw):
    k = draw(st.integers(1, 8))
    levels = [10.0 ** draw(st.floats(-6, 6)) for _ in range(draw(st.integers(1, k)))]
    h = [draw(st.sampled_from(levels)) for _ in range(k)]  # tied levels whenever k > len(levels)
    g = [draw(st.floats(0, 3)) for _ in range(k)]
    w = np.array([draw(st.floats(0.05, 1)) for _ in range(k)])
    w /= w.sum()
    gamma = draw(st.floats(0.5, 10))
    model = ModelSpec(gamma, draw(st.sampled_from([0.0, 0.1, 1.0])), JointSpectrum(np.column_stack([h, g, w])))
    # both sides of theta * gamma = 1, from inside the divergent band out to 0.3 away
    near = [(1.0 + s * 10.0 ** draw(st.floats(-13, -0.5))) / gamma for s in (-1.0, 1.0) for _ in range(3)]
    cuts = np.cumsum(np.bincount(np.unique(-np.array(h), return_inverse=True)[1], weights=w))  # level boundaries
    thetas = near + [1.0 / gamma, 1.0, 0.0, 1.5, *cuts.tolist(), draw(st.floats(0.01, 1.0))]
    return model, draw(st.permutations(thetas))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pcr_problems())
def test_pcr_curve_rows_match_the_pointwise_solve(problem) -> None:
    # Near theta * gamma = 1 the margin 1 - gamma E[(hm/(1+hm))^2] cancels to
    # about |theta * gamma - 1|, and both routes lose digits to it alike (to
    # 1.1e-15 / |theta * gamma - 1| over 3,000 random spectra, each route
    # alike against a 50-digit reference); 1e-12 holds from 1e-2 away.
    model, thetas = problem
    rows = pcr_curve(model, thetas)
    assert len(rows) == len(thetas)
    for theta, row in zip(thetas, rows):
        try:
            alone = pointwise_pcr_risk(model, theta)
        except DomainError as exc:
            assert type(row) is type(exc), (theta, row, exc)
            continue
        assert isinstance(row, RiskEvaluation), (theta, row)
        rtol = max(1e-12, 1e-14 / abs(theta * model.gamma - 1.0))
        for got, want in ((row.total, alone.total), (row.bias, alone.bias), (row.variance, alone.variance)):
            assert abs(got - want) <= rtol * abs(want), (theta, got, want)
