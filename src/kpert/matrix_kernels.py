"""Finite-state kernel operators: the exact brute-force oracle.

A kernel on n states is an n x n nonnegative matrix K with
K[x, y] = K(x, {y}); it acts on nonnegative vectors by Kf(x) =
sum_y K(x, {y}) f(y).  A set A is absorbing when no row of A puts mass
outside A, i.e. the left restriction 1_A K equals the two-sided
restriction 1_A K 1_A.  All identity checks here use exact float
comparison; the bundled random generator emits dyadic rationals on a
block-triangular pattern so matrix products stay exactly representable
and absorbing chains hold by construction.

Vector entries may be +inf (saturating); we adopt the measure-theoretic
convention 0 * inf = 0.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from kpert.errors import PreconditionError


@dataclass(frozen=True)
class MatrixKernel:
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("kernel matrix must be square")
        if not np.all(np.isfinite(e)) or np.any(e < 0):
            raise ValueError("kernel entries must be finite and nonnegative")
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_json_dict(self):
        return {"n": self.n, "entries": self.entries.tolist()}


@dataclass(frozen=True)
class StateSet:
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 1:
            raise ValueError("state mask must be one-dimensional")
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_indices(cls, n, indices):
        m = np.zeros(n, dtype=bool)
        m[list(indices)] = True
        return cls(m)

    @classmethod
    def empty(cls, n):
        return cls(np.zeros(n, dtype=bool))

    def difference(self, other):
        return StateSet(self.mask & ~other.mask)

    def issubset(self, other) -> bool:
        return bool(np.all(~self.mask | other.mask))

    def indices(self):
        return np.flatnonzero(self.mask)

    def __len__(self):
        return int(self.mask.sum())


def _check_dim(K: MatrixKernel, length: int, what: str):
    if length != K.n:
        raise ValueError(f"{what} has length {length}, kernel has {K.n} states")


def _vector(K: MatrixKernel, f) -> np.ndarray:
    """f as a float array, checked to be a nonnegative vector on K's states."""
    f = np.asarray(f, dtype=float)
    _check_dim(K, f.shape[0], "vector")
    if not (f >= 0).all():          # also catches NaN
        raise ValueError("vector must be nonnegative")
    return f


def apply(K: MatrixKernel, f) -> np.ndarray:
    """Kf(x) = sum_y K(x, {y}) f(y); additive and positively homogeneous.

    f is a nonnegative vector; +inf entries saturate, with 0 * inf = 0.
    """
    f = _vector(K, f)
    inf_mask = np.isinf(f)
    if not inf_mask.any():
        return K.entries @ f
    out = K.entries @ np.where(inf_mask, 0.0, f)
    out[(K.entries[:, inf_mask] > 0).any(axis=1)] = np.inf
    return out


def restrict(K: MatrixKernel, A: StateSet, side: str) -> MatrixKernel:
    """Multiply by the indicator of A: left zeroes rows outside A, right
    zeroes columns outside A, both does both."""
    _check_dim(K, len(A.mask), "mask")
    e = K.entries.copy()
    if side not in ("left", "right", "both"):
        raise ValueError("side must be 'left', 'right' or 'both'")
    if side in ("left", "both"):
        e[~A.mask, :] = 0.0
    if side in ("right", "both"):
        e[:, ~A.mask] = 0.0
    return MatrixKernel(e)


def is_absorbing(K: MatrixKernel, A: StateSet) -> bool:
    """True iff no row x in A has mass outside A."""
    _check_dim(K, len(A.mask), "mask")
    return bool(np.all(K.entries[A.mask][:, ~A.mask] == 0.0))


def verify_power_identity(K: MatrixKernel, A: StateSet, m: int) -> bool:
    """Exact check of 1_A K^m = (1_A K)^m = 1_A K^m 1_A for absorbing A."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not is_absorbing(K, A):
        raise PreconditionError("set is not absorbing for the kernel")
    km = np.linalg.matrix_power(K.entries, m)
    rows = A.mask[:, None]
    lhs = np.where(rows, km, 0.0)
    mid = np.linalg.matrix_power(np.where(rows, K.entries, 0.0), m)
    rhs = np.where(rows & A.mask[None, :], km, 0.0)
    return np.array_equal(lhs, mid) and np.array_equal(mid, rhs)


def verify_slice_identity(K: MatrixKernel, A: StateSet, B: StateSet,
                          m: int) -> bool:
    """Exact check of 1_B K^m 1_{B\\A} = 1_B (K 1_{B\\A})^m = 1_{B\\A} (K 1_{B\\A})^m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not A.issubset(B):
        raise PreconditionError("first set must be contained in the second")
    if not (is_absorbing(K, A) and is_absorbing(K, B)):
        raise PreconditionError("both sets must be absorbing")
    s = B.mask & ~A.mask
    km = np.linalg.matrix_power(K.entries, m)
    ksm = np.linalg.matrix_power(np.where(s[None, :], K.entries, 0.0), m)
    one = np.where(B.mask[:, None] & s[None, :], km, 0.0)
    two = np.where(B.mask[:, None], ksm, 0.0)
    three = np.where(s[:, None], ksm, 0.0)
    return np.array_equal(one, two) and np.array_equal(two, three)


@dataclass(frozen=True)
class AbsorbingChain:
    """Increasing absorbing sets A_1 c A_2 c ... c A_k with slices
    S_j = A_j \\ A_{j-1} (A_0 = empty)."""

    sets: tuple

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("chain needs at least one set")
        n = len(sets[0].mask)
        for a, b in zip(sets, sets[1:]):
            if len(b.mask) != n:
                raise ValueError("all sets must share the state count")
            if not a.issubset(b):
                raise ValueError("chain must be nested")
        object.__setattr__(self, "sets", sets)

    @property
    def k(self) -> int:
        return len(self.sets)

    @property
    def slices(self):
        prev = StateSet.empty(len(self.sets[0].mask))
        out = []
        for a in self.sets:
            out.append(a.difference(prev))
            prev = a
        return out

    def validate_for(self, K: MatrixKernel):
        for i, a in enumerate(self.sets):
            if not is_absorbing(K, a):
                raise PreconditionError(f"chain set {i + 1} is not absorbing")


@dataclass
class MatrixSeriesResult:
    value: np.ndarray
    n_terms: int
    status: str                 # converged | truncated | diverging
    tail_estimate: float


def neumann_series(K: MatrixKernel, f, max_terms: int = 10_000,
                   tail_tol: float = 1e-14) -> MatrixSeriesResult:
    """Partial sums of sum_m K^m f with a convergence verdict.

    converged: the last term's sup norm fell below tail_tol relative to
    the running sum.  diverging: term norms grew over 10 consecutive
    terms and the exact test, a spectral radius of at least one on the
    states that reach the support of f, confirms it (a convergent series
    may grow for a while).  Otherwise truncated at max_terms.
    """
    f = _vector(K, f)
    total = f.copy()
    term = f
    tn = float(np.max(f))
    growing = 0                     # consecutive terms above the last
    radius_checked = False
    for m in range(1, max_terms + 1):
        last = tn
        term = _next_term(K, term, tn)
        total += term
        tn = float(term.max())
        scale = float(total.max(initial=1.0))
        if not math.isfinite(scale):     # the max over finite entries
            scale = float(np.max(total[np.isfinite(total)], initial=1.0))
        if tn <= tail_tol * max(scale, 1e-300):
            return MatrixSeriesResult(total, m, "converged", tn)
        growing = growing + 1 if tn > last else 0
        if not radius_checked and growing >= 10:
            radius_checked = True
            if _radius_toward(K, f) >= 1.0:
                return MatrixSeriesResult(total, m, "diverging", tn)
    return MatrixSeriesResult(total, max_terms, "truncated", tn)


def _next_term(K: MatrixKernel, term: np.ndarray, top: float) -> np.ndarray:
    """K term for a nonnegative term whose largest entry is top.

    A finite term needs only the matvec, which is what apply computes for
    it; a term with a +inf entry goes through apply for the saturation
    and 0 * inf = 0 rules.
    """
    return K.entries @ term if top < math.inf else apply(K, term)


def _radius_toward(K: MatrixKernel, f) -> float:
    """Spectral radius of K restricted to the states with a path of
    positive entries into the support of f: the only states the series
    sees, so it converges exactly when this is below one."""
    reach = f > 0
    for _ in range(K.n):          # a shortest path has fewer than n steps
        reach = reach | (K.entries[:, reach] > 0).any(axis=1)
    sub = K.entries[np.ix_(reach, reach)]
    return float(np.max(np.abs(np.linalg.eigvals(sub)), initial=0.0))


def exact_series_sum(K: MatrixKernel, f) -> np.ndarray:
    """Independent oracle: solve (I - K) g = f directly.

    Valid whenever the series converges (spectral radius below one on the
    support); used to cross-check the iterative summation.
    """
    f = np.asarray(f, dtype=float)
    return np.linalg.solve(np.eye(K.n) - K.entries, f)


def check_geometric_decay(K: MatrixKernel, f, A: StateSet, c: float,
                          n_max: int = 30) -> bool:
    """Given sum_m K^m f <= c f on absorbing A, check the decay
    K^n f <= c (1 - 1/c)^n f on A for n <= n_max, plus the converse
    series bound sum_n K^n f <= c^2 f on A."""
    f = np.asarray(f, dtype=float)
    if not is_absorbing(K, A):
        raise PreconditionError("set is not absorbing")
    if c < 1:
        raise ValueError("c must be at least 1")
    series = neumann_series(K, f)
    g = series.value
    viol = A.mask & (g > c * f * (1 + 1e-12))
    if np.any(viol):
        raise PreconditionError(
            "series hypothesis fails at state "
            f"{int(np.flatnonzero(viol)[0])}: sum={g[viol][0]:.6g} "
            f"> c*f={c * f[viol][0]:.6g}")
    slack = 1 + 1e-12
    rho = 1.0 - 1.0 / c
    f_a = f[A.mask]
    term = f
    for n in range(n_max + 1):
        if not (term[A.mask] <= c * rho ** n * f_a * slack + 1e-300).all():
            return False
        term = _next_term(K, term, float(term.max()))
    return bool(np.all(g[A.mask] <= c * c * f[A.mask] * slack + 1e-300))


def random_absorbing_instance(rng, n_max: int = 8, k_max: int = 4,
                              denom: int = 16, contractive: bool = False):
    """Random dyadic kernel with an absorbing chain that holds by construction.

    States are grouped into k consecutive slices; entries live only in
    blocks where the column's slice index does not exceed the row's, i.e.
    the matrix is block lower triangular, so every prefix union of slices
    is absorbing.  A random relabeling hides the structure.  With
    contractive=True each row is scaled by a power of two so row sums stay
    below one (entries remain dyadic, the series converges).
    """
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, min(k_max, n) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    slice_of = np.zeros(n, dtype=int)
    for j in range(k):
        slice_of[bounds[j]:bounds[j + 1]] = j
    e = rng.integers(0, denom + 1, size=(n, n)).astype(float) / denom
    allowed = slice_of[None, :] <= slice_of[:, None]
    e = np.where(allowed, e, 0.0)
    if contractive:
        for x in range(n):
            s = e[x].sum()
            while s >= 1.0:
                e[x] /= 2.0
                s /= 2.0
    perm = rng.permutation(n)
    pe = np.zeros_like(e)
    pe[np.ix_(perm, perm)] = e
    K = MatrixKernel(pe)
    sets = []
    for j in range(k):
        orig = np.arange(n) < bounds[j + 1]
        mask = np.zeros(n, dtype=bool)
        mask[perm[orig]] = True
        sets.append(StateSet(mask))
    return K, AbsorbingChain(tuple(sets))


def save_discrete_problem(path, K: MatrixKernel, sets: dict, f=None):
    """Serialize kernel + named state sets (+ optional control vector)."""
    doc = K.to_json_dict()
    doc["sets"] = {name: [int(i) for i in s.indices()] for name, s in sets.items()}
    if f is not None:
        doc["f"] = list(map(float, f))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_discrete_problem(path):
    """Load {"n", "entries", "sets", optional "f"} into typed objects."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    K = MatrixKernel(np.asarray(doc["entries"], dtype=float))
    if K.n != n:
        raise ValueError("declared n disagrees with the entries shape")
    sets = {name: StateSet.from_indices(n, idx)
            for name, idx in doc.get("sets", {}).items()}
    f = np.asarray(doc["f"], dtype=float) if "f" in doc else np.ones(n)
    return K, sets, f
