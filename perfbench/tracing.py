"""Span tracing by wrapping ridgelab's public functions from outside.

A wrapper is installed at every module attribute through which a caller
looks the function up (``optimize.risk_derivative``,
``stieltjes.lambda_of_m``, ``numpy.linalg.eigh``, ...), so calls made inside
the package are seen as well as calls made by the benchmark.  Wrappers are
installed only around traced ops and removed afterwards.

Each span records its name, start, end, parent span and op id (``-1`` for
set-up) in flat arrays kept in memory; ``summary`` derives per-layer
counts and self times from them (self time = span time minus the time of
its direct child spans) and ``save`` writes them out when the run ends.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

SETUP_OP = -1
GFLOP_PER_EIGH_ORDER3 = 9e-9  # symmetric QR with eigenvectors: ~9 n^3 flops

# Spans are named ``<module>.<function>`` after the ridgelab module that
# defines the function; ``linalg.*`` are the numpy kernels, traced at
# ``numpy.linalg`` where montecarlo looks them up.
SPANS = (
    "cli.main",
    "recipes.recipe_spectrum",
    "recipes.recipe_ensemble",
    "optimize.lambda_opt_search",
    "risk.risk_derivative",
    "risk.asymptotic_risk",
    "risk.pcr_risk",
    "stieltjes.solve_m",
    "stieltjes.lambda_of_m",
    "stieltjes.find_edge",
    "montecarlo.sample_design",
    "montecarlo.conditional_risk_curve",
    "montecarlo.simulate",
    "montecarlo.estimator_risk_empirical",
    "montecarlo.pcr_estimator_risk",
    "linalg.eigh",
    "linalg.pinv",
)


def _solve_m_companion(args, kwargs) -> float:
    """1.0 when the solve's input routes through the companion transform,
    i.e. ``gamma * P(h > 0) <= 1``."""
    model = args[0] if args else kwargs["model"]
    return 1.0 if model.gamma * model.spectrum.positive_mass() <= 1.0 else 0.0


def _matrix_order(args, kwargs) -> float:
    a = args[0] if args else kwargs["a"]
    return float(np.shape(a)[-1])


_PROBES = {"stieltjes.solve_m": _solve_m_companion, "linalg.eigh": _matrix_order}


def _owner(name: str):
    layer, attr = name.split(".")
    if layer == "linalg":
        return np.linalg, attr
    return sys.modules.get("ridgelab." + layer), attr


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.op = None  # current op id; None records nothing
        self._names = array("i")
        self._parents = array("i")
        self._ops = array("i")
        self._values = array("d")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = []
        self._installed = []

    # -- installation ----------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def install(self) -> None:
        """Wrap every span target at each ridgelab or numpy.linalg attribute
        that binds it.  Targets missing from the package are skipped."""
        sites = [m for k, m in sorted(sys.modules.items()) if k == "ridgelab" or k.startswith("ridgelab.")]
        for nid, name in enumerate(SPANS):
            owner, attr = _owner(name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(nid, original, _PROBES.get(name))
            for module in [owner] + sites:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, nid: int, fn, probe):
        names, parents, ops, values = self._names, self._parents, self._ops, self._values
        starts, ends, stack = self._starts, self._ends, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(op)
            values.append(probe(args, kwargs) if probe else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.array(self._names, dtype=np.int32),
            "parent": np.array(self._parents, dtype=np.int32),
            "op": np.array(self._ops, dtype=np.int32),
            "value": np.array(self._values, dtype=np.float64),
            "start": np.array(self._starts, dtype=np.float64),
            "end": np.array(self._ends, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, span_names=np.array(SPANS), **self.arrays())

    def summary(self) -> dict:
        """Per span name and phase: ``calls``, ``self_s``, and the sums of
        the probe values and of their cubes (``value_sum``, ``value3_sum``).

        Keys are ``(name, phase)`` with phase ``"ops"`` or ``"setup"``.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        out = {}
        for phase, mask in (("ops", a["op"] >= 0), ("setup", a["op"] == SETUP_OP)):
            nm = a["name"][mask]
            calls = np.bincount(nm, minlength=len(SPANS))
            selfs = np.bincount(nm, weights=self_s[mask], minlength=len(SPANS))
            vals = np.bincount(nm, weights=a["value"][mask], minlength=len(SPANS))
            cubes = np.bincount(nm, weights=a["value"][mask] ** 3, minlength=len(SPANS))
            for nid, name in enumerate(SPANS):
                out[(name, phase)] = {"calls": int(calls[nid]), "self_s": float(selfs[nid]),
                                      "value_sum": float(vals[nid]), "value3_sum": float(cubes[nid])}
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        a = self.arrays()
        target = SPANS.index(ancestor)
        up = a["parent"][a["name"] == SPANS.index(name)]
        found = np.zeros(up.size, dtype=bool)
        while np.any(up >= 0):
            live = up >= 0
            found[live] |= a["name"][up[live]] == target
            up = np.where(live, a["parent"][np.maximum(up, 0)], -1)
        return int(found.sum())


# Layers whose call count and self time are both reported, then those
# whose self time alone is.
_COUNTED = (
    "recipes.recipe_spectrum", "risk.risk_derivative", "risk.asymptotic_risk", "risk.pcr_risk",
    "stieltjes.solve_m", "stieltjes.lambda_of_m", "stieltjes.find_edge",
    "montecarlo.conditional_risk_curve", "linalg.eigh", "linalg.pinv",
)
_TIMED = (
    "cli.main", "optimize.lambda_opt_search", "montecarlo.sample_design", "montecarlo.simulate",
    "montecarlo.estimator_risk_empirical", "montecarlo.pcr_estimator_risk",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, mc_pairs, overhead_ratio: float) -> dict:
    """Per-layer metrics, per traced op unless stated: ``name -> (value, unit)``.

    ``mc_pairs`` lists ``(dropped, attempted)`` replicate-penalty pairs of
    the traced Monte Carlo ops.  ``recipes.recipe_ensemble.self_ms`` is per
    call, because ensembles are built during set-up.
    """
    summ = tracer.summary()
    ops = {name: summ[(name, "ops")] for name in SPANS}
    m = {}
    for name in _COUNTED:
        m[name + ".calls"] = (ops[name]["calls"] / n_ops, "count")
    for name in _COUNTED + _TIMED:
        m[name + ".self_ms"] = (1e3 * ops[name]["self_s"] / n_ops, "ms")
    ens = [summ[("recipes.recipe_ensemble", phase)] for phase in ("setup", "ops")]
    m["recipes.recipe_ensemble.self_ms"] = (
        _ratio(1e3 * sum(e["self_s"] for e in ens), sum(e["calls"] for e in ens)), "ms")
    m["optimize.solves_per_search"] = (
        _ratio(tracer.count_under("stieltjes.solve_m", "optimize.lambda_opt_search"),
               ops["optimize.lambda_opt_search"]["calls"]), "count")
    solves = ops["stieltjes.solve_m"]
    m["stieltjes.solve_m.companion_share"] = (_ratio(solves["value_sum"], solves["calls"]), "ratio")
    eigh = ops["linalg.eigh"]
    m["linalg.eigh.order_mean"] = (_ratio(eigh["value_sum"], eigh["calls"]), "count")
    m["linalg.eigh.gflop_computed"] = (GFLOP_PER_EIGH_ORDER3 * eigh["value3_sum"] / n_ops, "GFLOP")
    m["montecarlo.dropped_share"] = (
        _ratio(sum(d for d, _ in mc_pairs), sum(a for _, a in mc_pairs)), "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
