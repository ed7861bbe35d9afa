"""Finite-atom spectral laws and model descriptions.

Everything downstream (fixed-point solves, risk formulas, optimizers) works
on a finite list of weighted atoms.  A ``JointSpectrum`` carries atoms
``(h, g, weight)`` where ``h`` is a design-covariance eigenvalue and ``g``
the mean signal energy along the matching eigendirection.  A
``WeightedSpectrum`` carries quadruples ``(s, v, r, weight)`` for
generalized-penalty problems: ``s`` the design eigenvalue, ``v`` the signal
energy, ``r`` the effective penalty-relative eigenvalue.  Projecting a
weighted spectrum onto ``(h, g) = (r, s*v/r)`` reduces every weighted
computation to the plain one.

Continuous laws enter through midpoint-quantile discretization, so all
expectations are plain weighted sums and accuracy is O(1/N^2) in the atom
count for smooth integrands.
"""

import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DomainError

_WEIGHT_TOL = 1e-12
_STD_NORMAL = NormalDist()


def _as_weight_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class JointSpectrum:
    """Weighted atoms ``(h, g, weight)`` of a limiting joint eigenvalue law.

    Immutable after construction.  Weights must be positive and sum to one
    within 1e-12.  All ``h`` must be strictly positive unless the spectrum
    was produced by :func:`truncate_top`, which parks removed mass at
    ``h = 0`` (flagged via ``truncated=True``).
    """

    __slots__ = ("h", "g", "w", "truncated", "_hash")

    def __init__(self, atoms, truncated: bool = False):
        arr = np.asarray(list(atoms), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
            raise ValueError("atoms must be a non-empty list of (h, g, weight) triples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("atoms contain non-finite entries")
        h, g, w = arr[:, 0], arr[:, 1], arr[:, 2]
        if np.any(w <= 0):
            raise ValueError("atom weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {w.sum()!r}, expected 1 within {_WEIGHT_TOL}")
        if np.any(g < 0):
            raise ValueError("signal energies g must be nonnegative")
        if truncated:
            if np.any(h < 0):
                raise ValueError("eigenvalues h must be nonnegative")
            if not np.any(h > 0):
                raise ValueError("truncated spectrum retains no positive eigenvalue mass")
        elif np.any(h <= 0):
            raise ValueError("eigenvalues h must be strictly positive (set truncated=True to allow h=0 atoms)")
        for name, vec in (("h", h), ("g", g), ("w", w)):
            vec.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "truncated", bool(truncated))
        object.__setattr__(
            self, "_hash", hash((bool(truncated), h.tobytes(), g.tobytes(), w.tobytes()))
        )

    def __setattr__(self, name, value):
        raise AttributeError("JointSpectrum is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def atoms(self) -> tuple:
        return tuple((float(a), float(b), float(c)) for a, b, c in zip(self.h, self.g, self.w))

    @property
    def n_atoms(self) -> int:
        return self.h.size

    @property
    def c_lower(self) -> float:
        """Smallest strictly positive eigenvalue carried by the atoms."""
        return float(self.h[self.h > 0].min())

    @property
    def c_upper(self) -> float:
        """Upper bound covering both eigenvalues and signal energies."""
        return float(max(self.h.max(), self.g.max()))

    def positive_mass(self) -> float:
        """Probability mass on atoms with ``h > 0`` (1.0 unless truncated)."""
        return float(self.w[self.h > 0].sum())

    def expect(self, f) -> float:
        """Weighted expectation ``sum_i w_i f(h_i, g_i)``.

        ``f`` may be vectorized over numpy arrays or scalar-only; scalar
        callables are looped.  A non-finite value raises ValueError naming
        the offending atom.
        """
        try:
            vals = np.asarray(f(self.h, self.g), dtype=float)
            if vals.shape != self.h.shape:
                vals = np.broadcast_to(vals, self.h.shape)
        except (TypeError, ValueError):
            vals = np.array([float(f(hi, gi)) for hi, gi in zip(self.h, self.g)])
        bad = ~np.isfinite(vals)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"integrand not finite at atom {i}: (h={self.h[i]!r}, g={self.g[i]!r}) -> {vals[i]!r}"
            )
        return float(np.dot(self.w, vals))

    def e_gh(self) -> float:
        """Mean signal energy ``E[g h]``, the noiseless null-risk scale."""
        return float(np.dot(self.w, self.g * self.h))

    def merged(self, tol: float = 1e-12) -> "JointSpectrum":
        """Coalesce atoms whose (h, g) pairs agree within ``tol``."""
        order = np.lexsort((self.g, self.h))
        out: list[list[float]] = []
        for i in order:
            hi, gi, wi = float(self.h[i]), float(self.g[i]), float(self.w[i])
            if out and abs(out[-1][0] - hi) <= tol and abs(out[-1][1] - gi) <= tol:
                out[-1][2] += wi
            else:
                out.append([hi, gi, wi])
        return JointSpectrum(out, truncated=self.truncated)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        payload = {"kind": "joint", "atoms": [list(a) for a in self.atoms]}
        if self.truncated:
            payload["truncated"] = True
        return json.dumps(payload)

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return f"JointSpectrum({self.n_atoms} atoms{flag})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JointSpectrum)
            and self.truncated == other.truncated
            and np.array_equal(self.h, other.h)
            and np.array_equal(self.g, other.g)
            and np.array_equal(self.w, other.w)
        )

    def __hash__(self):
        return self._hash


class WeightedSpectrum:
    """Weighted atoms ``(s, v, r, weight)`` for generalized-penalty risk.

    ``s`` and ``r`` must be strictly positive; ``v`` nonnegative.  The
    projection ``(h, g) = (r, s*v/r)`` hands every computation to the plain
    machinery, so this class is mostly bookkeeping plus penalty rewiring.
    """

    __slots__ = ("s", "v", "r", "w", "_hash")

    def __init__(self, atoms):
        arr = np.asarray(list(atoms), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4 or arr.shape[0] == 0:
            raise ValueError("atoms must be a non-empty list of (s, v, r, weight) quadruples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("atoms contain non-finite entries")
        s, v, r, w = arr.T
        if np.any(s <= 0) or np.any(r <= 0):
            raise ValueError("s and r must be strictly positive")
        if np.any(v < 0):
            raise ValueError("signal energies v must be nonnegative")
        if np.any(w <= 0):
            raise ValueError("atom weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {w.sum()!r}, expected 1 within {_WEIGHT_TOL}")
        for vec in (s, v, r, w):
            vec.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "w", w)
        object.__setattr__(
            self, "_hash", hash((s.tobytes(), v.tobytes(), r.tobytes(), w.tobytes()))
        )

    def __setattr__(self, name, value):
        raise AttributeError("WeightedSpectrum is immutable")

    @property
    def atoms(self) -> tuple:
        return tuple(
            (float(a), float(b), float(c), float(d))
            for a, b, c, d in zip(self.s, self.v, self.r, self.w)
        )

    @property
    def n_atoms(self) -> int:
        return self.s.size

    def project(self) -> JointSpectrum:
        """Reduce to the plain law via ``(h, g) = (r, s*v/r)``."""
        return JointSpectrum(np.column_stack([self.r, self.s * self.v / self.r, self.w]))

    def with_r(self, new_r) -> "WeightedSpectrum":
        """Return a copy with the penalty profile replaced.

        ``new_r`` is either an array of per-atom values or a callable
        ``(s, v) -> r`` evaluated on the atom arrays.
        """
        r = np.asarray(new_r(self.s, self.v) if callable(new_r) else new_r, dtype=float)
        r = np.broadcast_to(r, self.s.shape)
        return WeightedSpectrum(np.column_stack([self.s, self.v, r, self.w]))

    def expect(self, f) -> float:
        """Weighted expectation ``sum_i w_i f(s_i, v_i, r_i)``."""
        vals = np.asarray(f(self.s, self.v, self.r), dtype=float)
        vals = np.broadcast_to(vals, self.s.shape)
        if not np.all(np.isfinite(vals)):
            i = int(np.argmax(~np.isfinite(vals)))
            raise ValueError(
                f"integrand not finite at atom {i}: (s={self.s[i]!r}, v={self.v[i]!r}, r={self.r[i]!r})"
            )
        return float(np.dot(self.w, vals))

    def to_json(self) -> str:
        return json.dumps({"kind": "weighted", "atoms": [list(a) for a in self.atoms]})

    def __repr__(self) -> str:
        return f"WeightedSpectrum({self.n_atoms} atoms)"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedSpectrum)
            and np.array_equal(self.s, other.s)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.r, other.r)
            and np.array_equal(self.w, other.w)
        )

    def __hash__(self):
        return self._hash


def spectrum_from_json(source):
    """Inverse of ``to_json``; also accepts bare atom lists.

    ``source`` may be a JSON string or the already-parsed document.  A
    list of 3-element rows builds a JointSpectrum, 4-element rows a
    WeightedSpectrum.  Raises ValueError on anything else.
    """
    data = json.loads(source) if isinstance(source, (str, bytes)) else source
    if isinstance(data, dict):
        kind = data.get("kind")
        atoms = data.get("atoms")
        if kind == "joint":
            return JointSpectrum(atoms, truncated=bool(data.get("truncated", False)))
        if kind == "weighted":
            return WeightedSpectrum(atoms)
        raise ValueError(f"unknown spectrum kind: {kind!r}")
    if isinstance(data, list) and data and all(isinstance(row, list) for row in data):
        width = len(data[0])
        if width == 3:
            return JointSpectrum(data)
        if width == 4:
            return WeightedSpectrum(data)
    raise ValueError("spectrum JSON must be a kind/atoms object or a list of atom rows")


def point_mass(h: float, g: float = 1.0) -> JointSpectrum:
    """Single-atom law: isotropic design with flat signal energy ``g``."""
    return JointSpectrum([(h, g, 1.0)])


@dataclass(frozen=True)
class ModelSpec:
    """Problem instance: aspect ratio, noise level, and spectral law.

    ``gamma`` is the limiting ratio of dimension to sample size; ``sigma2``
    the effective noise variance (nonnegative; zero means noiseless).
    """

    gamma: float
    sigma2: float
    spectrum: JointSpectrum

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not (self.sigma2 >= 0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be nonnegative and finite, got {self.sigma2!r}")
        if not isinstance(self.spectrum, JointSpectrum):
            raise TypeError("spectrum must be a JointSpectrum")

    def snr(self) -> float:
        """Signal-to-noise ratio ``E[g h] / sigma2``."""
        if self.sigma2 <= 0:
            raise DomainError("snr undefined for sigma2 = 0")
        return self.spectrum.e_gh() / self.sigma2

    @staticmethod
    def with_snr(gamma: float, snr: float, spectrum: JointSpectrum) -> "ModelSpec":
        """Build a model by fixing the signal-to-noise ratio instead of sigma2."""
        if not snr > 0:
            raise ValueError("snr must be positive")
        return ModelSpec(gamma, spectrum.e_gh() / snr, spectrum)


# ---------------------------------------------------------------------------
# continuous laws and discretization
# ---------------------------------------------------------------------------


class Uniform:
    """Uniform law on [a, b]."""

    def __init__(self, a: float, b: float):
        if not (b > a):
            raise ValueError("need b > a")
        self.a, self.b = float(a), float(b)

    def quantile(self, q):
        return self.a + (self.b - self.a) * np.asarray(q, dtype=float)


class ShiftedAbsNormal:
    """Law of ``|Z| + shift`` for standard normal Z."""

    def __init__(self, shift: float):
        self.shift = float(shift)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        half = np.array([_STD_NORMAL.inv_cdf((1.0 + qi) / 2.0) for qi in np.atleast_1d(q)])
        return self.shift + half.reshape(q.shape)


class ShiftedInvAbsNormal:
    """Law of ``1/|Z| + shift`` for standard normal Z (heavy right tail)."""

    def __init__(self, shift: float):
        self.shift = float(shift)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        # 1/|Z| is a decreasing map of |Z|, so its q-quantile uses the
        # (1-q)-quantile of |Z|.
        half = np.array([_STD_NORMAL.inv_cdf((2.0 - qi) / 2.0) for qi in np.atleast_1d(q)])
        return self.shift + 1.0 / half.reshape(q.shape)


class ClippedSquareNormal:
    """Law of ``min(Z^2 + 1, cap)`` for standard normal Z."""

    def __init__(self, cap: float = 5.0):
        self.cap = float(cap)

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        half = np.array([_STD_NORMAL.inv_cdf((1.0 + qi) / 2.0) for qi in np.atleast_1d(q)])
        return np.minimum(half.reshape(q.shape) ** 2 + 1.0, self.cap)


def discretize(law, n_atoms: int = 2048) -> JointSpectrum:
    """Midpoint-quantile discretization of a continuous law.

    Atom k of N sits at the (k - 1/2)/N quantile with weight 1/N, which
    integrates smooth functions with O(1/N^2) error.  Atoms get ``g = 1``
    placeholders (pair them up afterwards via :func:`relate`).
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    q = (np.arange(n_atoms) + 0.5) / n_atoms
    h = np.asarray(law.quantile(q), dtype=float)
    w = np.full(n_atoms, 1.0 / n_atoms)
    return JointSpectrum(np.column_stack([h, np.ones_like(h), w]))


def relate(d_x, d_beta, relation: str, seed: int | None = None) -> JointSpectrum:
    """Pair two equal-length eigenvalue/signal samples into a joint law.

    ``aligned`` couples both sorted ascending (strong eigendirections carry
    strong signal), ``misaligned`` couples ascending with descending, and
    ``random`` applies a seeded uniform permutation.  Atoms get equal
    weights.
    """
    x = np.sort(_as_weight_array(d_x, "d_x"))
    b = np.sort(_as_weight_array(d_beta, "d_beta"))
    if x.size != b.size:
        raise ValueError("d_x and d_beta must have equal length")
    if relation == "aligned":
        pass
    elif relation == "misaligned":
        b = b[::-1]
    elif relation == "random":
        if seed is None:
            raise ValueError("relation='random' requires a seed")
        b = np.random.default_rng(seed).permutation(b)
    else:
        raise ValueError(f"unknown relation: {relation!r}")
    w = np.full(x.size, 1.0 / x.size)
    return JointSpectrum(np.column_stack([x, b, w]))


def independent_product(h_values, h_weights, g_values, g_weights) -> JointSpectrum:
    """Product law of independent eigenvalue and signal components.

    This is the exact limit of pairing the two samples uniformly at random:
    conditional on any eigenvalue, the signal energy has the full marginal
    law, so ``E[g | h]`` is constant.
    """
    hv = _as_weight_array(h_values, "h_values")
    hw = _as_weight_array(h_weights, "h_weights")
    gv = _as_weight_array(g_values, "g_values")
    gw = _as_weight_array(g_weights, "g_weights")
    if hv.size != hw.size or gv.size != gw.size:
        raise ValueError("values and weights must have equal length")
    atoms = [
        (float(h), float(g), float(wh * wg))
        for h, wh in zip(hv, hw)
        for g, wg in zip(gv, gw)
    ]
    return JointSpectrum(atoms).merged()


def split_top_mass(spectrum: JointSpectrum, theta: float):
    """Split atom weights into a kept top-``theta`` mass and the rest.

    Keeps exactly ``theta`` probability mass from the top of the
    eigenvalue distribution, splitting the boundary level proportionally
    when the cutoff lands inside it.  Atoms tied at one eigenvalue are
    exchangeable, so each keeps the same fraction of its weight and the
    result is independent of atom listing order.  Returns ``(h, g,
    w_kept, w_dropped)`` arrays aligned with the original atom order;
    kept plus dropped reproduces the original weights exactly.
    """
    if not (0.0 < theta <= 1.0):
        raise DomainError(f"theta must lie in (0, 1], got {theta!r}")
    h, g, w = spectrum.h, spectrum.g, spectrum.w
    w_kept = np.zeros_like(w)
    remaining = theta
    for level in np.unique(h)[::-1]:  # descending distinct eigenvalues
        at = h == level
        mass = float(w[at].sum())
        take = min(mass, remaining)
        if take > 0:
            w_kept[at] = w[at] * (take / mass)
        remaining -= take
        if remaining <= 0:
            break
    # guard against accumulated rounding: renormalize the boundary split
    drift = w_kept.sum() - theta
    if abs(drift) > 1e-9:
        raise DomainError(f"failed to carve mass theta={theta!r} (drift {drift!r})")
    w_dropped = w - w_kept
    return h.copy(), g.copy(), w_kept, np.maximum(w_dropped, 0.0)


def truncate_top(spectrum: JointSpectrum, theta: float) -> JointSpectrum:
    """Keep the top-``theta`` eigenvalue mass; park the rest at ``h = 0``.

    Models projecting data onto the leading principal subspace: dropped
    directions keep their signal energy (it becomes approximation error)
    but contribute nothing to the design.  The boundary atom is split
    proportionally so the retained mass is exactly ``theta``.
    """
    h, g, w_kept, w_dropped = split_top_mass(spectrum, theta)
    atoms = []
    for hi, gi, wk, wd in zip(h, g, w_kept, w_dropped):
        if wk > 0:
            atoms.append((hi, gi, wk))
        if wd > 0:
            atoms.append((0.0, gi, wd))
    return JointSpectrum(atoms, truncated=True)
