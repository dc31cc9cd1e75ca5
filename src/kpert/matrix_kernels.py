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

A MatrixKernel is immutable: it holds a read-only copy of the array it
is given, so the caller's array stays writable and changing it leaves
the kernel as it was; kernels and state sets compare and hash by
identity, so either can key a dict.  The arithmetic of the checks below
is therefore done once per kernel and memoised on it: the Neumann sum
per (f, max_terms, tail_tol), the rows f, Kf, ..., K^n f of the decay
check, K^m per m and the absorption test per mask.  The memo holds one f
at a time, so a new f drops the series and rows of the last one; besides
those it holds one n x n power per m asked for and one flag per mask.
Every call still runs its own checks (the vector, c, m, absorption, the
series status) and gets arrays of its own; only the arithmetic is
shared, with the bits of computing it again.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from kpert.errors import PreconditionError


@dataclass(frozen=True, eq=False)
class MatrixKernel:
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)     # a copy, in its layout
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("kernel matrix must be square")
        if not np.all(np.isfinite(e)) or np.any(e < 0):
            raise ValueError("kernel entries must be finite and nonnegative")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "_memo", {})

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_json_dict(self):
        return {"n": self.n, "entries": self.entries.tolist()}


@dataclass(frozen=True, eq=False)
class StateSet:
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 1:
            raise ValueError("state mask must be one-dimensional")
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_indices(cls, n, indices):
        """The set of the given states; each index must be an integer in
        0 .. n-1 (a float, a bool or a negative index is refused)."""
        indices = list(indices)
        for i in indices:
            if isinstance(i, bool) or not (
                    isinstance(i, (int, np.integer)) and 0 <= i < n):
                raise ValueError(f"state index {i!r} is not an integer "
                                 f"in 0..{n - 1}")
        m = np.zeros(n, dtype=bool)
        m[indices] = True
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


def _memoised(memo: dict, key, compute):
    """compute() once per memo and key; an array result is kept read-only,
    so no caller can change what a later one reads."""
    out = memo.get(key)
    if out is None:
        out = memo[key] = compute()
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
    return out


def _f_memo(K: MatrixKernel, f: np.ndarray) -> dict:
    """K's memo for the checked vector f.  It holds one f at a time: the
    series and rows of the last f are dropped when another comes."""
    key = (f.shape, f.tobytes())
    held = K._memo.get("f")
    if held is None or held[0] != key:
        held = K._memo["f"] = (key, {})
    return held[1]


def _power(K: MatrixKernel, m) -> np.ndarray:
    """K^m by np.linalg.matrix_power, once per kernel and m."""
    m = operator.index(m)
    return _memoised(K._memo, ("power", m),
                     lambda: np.linalg.matrix_power(K.entries, m))


def is_absorbing(K: MatrixKernel, A: StateSet) -> bool:
    """True iff no row x in A has mass outside A."""
    _check_dim(K, len(A.mask), "mask")
    return _memoised(K._memo, ("absorbing", A.mask.tobytes()), lambda: bool(
        np.all(K.entries[A.mask][:, ~A.mask] == 0.0)))


def verify_power_identity(K: MatrixKernel, A: StateSet, m: int) -> bool:
    """Exact check of 1_A K^m = (1_A K)^m = 1_A K^m 1_A for absorbing A."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not is_absorbing(K, A):
        raise PreconditionError("set is not absorbing for the kernel")
    km = _power(K, m)
    rows = A.mask[:, None]
    lhs = np.where(rows, km, 0.0)
    mid = np.linalg.matrix_power(np.where(rows, K.entries, 0.0), m)
    rhs = np.where(rows & A.mask[None, :], km, 0.0)
    return bool((lhs == mid).all() and (mid == rhs).all())


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
    km = _power(K, m)
    ksm = np.linalg.matrix_power(np.where(s[None, :], K.entries, 0.0), m)
    one = np.where(B.mask[:, None] & s[None, :], km, 0.0)
    two = np.where(B.mask[:, None], ksm, 0.0)
    three = np.where(s[:, None], ksm, 0.0)
    return bool((one == two).all() and (two == three).all())


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
    the running sum.  Where f has a +inf entry, the +inf partial sums are
    exact, and the sup runs over the states whose partial sum is finite
    (0 if there are none).  diverging: the exact test, a spectral radius
    of at least one on the states that reach the support of f, holds.  The test
    runs once term norms have grown over 10 consecutive terms (a
    convergent series may grow for a while), or at max_terms if it has
    not run by then: terms that never grow, at a radius of exactly one,
    end there.  Otherwise truncated at max_terms.

    The terms come in blocks of up to _BLOCK rows, fewer for kernels on
    more than 128 states (_term_blocks), and a cumulative sum down a block
    forms its running totals; the stopping rule then walks the block's
    term maxima and scales as floats.  The accumulation adds row after
    row, so value, n_terms, status and tail_estimate have the bits of a
    loop that adds one term at a time.  The sum is memoised on K per
    (f, max_terms, tail_tol), and each call gets its own copy of value.
    """
    f = _vector(K, f)
    value, n_terms, status, tail = _memoised(
        _f_memo(K, f), ("series", max_terms, tail_tol),
        lambda: _sum_series(K, f, max_terms, tail_tol))
    return MatrixSeriesResult(value.copy(), n_terms, status, tail)


def _sum_series(K: MatrixKernel, f: np.ndarray, max_terms: int,
                tail_tol: float):
    """neumann_series's (value, n_terms, status, tail_estimate) for a
    checked f, summed: the memo holds this value, and no caller sees it."""
    total = f.copy()
    tn = float(np.max(f))
    inf_f = tn == np.inf            # f is nonnegative and has no NaN
    growing = 0                     # consecutive terms above the last
    radius_checked = False
    m = 0
    for block in _term_blocks(K, f, max_terms):
        sums = np.concatenate((total[None], block)).cumsum(axis=0)[1:]
        tops = (block.max(axis=1, initial=0.0, where=np.isfinite(sums))
                if inf_f else block.max(axis=1)).tolist()
        # the scale is the largest finite partial sum, and at least one
        scales = sums.max(axis=1, initial=1.0,
                          where=np.isfinite(sums)).tolist()
        for i, (top, scale) in enumerate(zip(tops, scales)):
            m += 1
            last, tn = tn, top
            if tn <= tail_tol * scale:
                return sums[i].copy(), m, "converged", tn
            growing = growing + 1 if tn > last else 0
            if not radius_checked and growing >= 10:
                radius_checked = True
                if _radius_toward(K, f) >= 1.0:
                    return sums[i].copy(), m, "diverging", tn
        total = sums[-1].copy()
    if not radius_checked and _radius_toward(K, f) >= 1.0:
        return total, max_terms, "diverging", tn
    return total, max_terms, "truncated", tn


# Rows per block of _term_blocks.  A block costs a few reductions, and a
# series may compute all but one of its rows past the term it stops at, so
# a block holds at most _BLOCK rows and about _BLOCK_ENTRIES entries.
_BLOCK = 32
_BLOCK_ENTRIES = 4096


def _block_rows(n: int) -> int:
    """Rows per block of _term_blocks for a kernel on n states: _BLOCK up
    to 128 states, fewer for larger kernels, whose series stop after a few
    terms."""
    return max(2, min(_BLOCK, _BLOCK_ENTRIES // max(n, 1)))


def _term_blocks(K: MatrixKernel, term: np.ndarray, count: int):
    """Yield K term, K^2 term, ..., K^count term for a nonnegative term,
    as consecutive (rows, n) blocks of at most _block_rows(n) rows.

    A finite term's successor is the plain matvec, which is what apply
    computes for it; a term with a +inf entry goes through apply for the
    saturation and 0 * inf = 0 rules.  A block is cut after its first row
    with a +inf entry, so the next block starts on apply.  The matvecs
    past the cut are discarded, and only they run with overflow and
    invalid-value warnings silenced.
    """
    matvec = K.entries.dot      # the bits of K.entries @ t, called faster
    rows = _block_rows(K.n)
    while count > 0:
        block = np.empty((min(rows, count), K.n))
        t, first = term, 0
        if np.isinf(term).any():
            t = apply(K, term)
            block[0], first = t, 1
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(first, len(block)):
                t = matvec(t)
                block[i] = t
        finite = np.isfinite(block).all(axis=1)
        if finite.all():
            term = t
        else:
            cut = int(np.argmin(finite))
            if cut >= first:
                # a finite term overflowed into this row: its matvec is
                # kept, so run it again for its warnings
                matvec(block[cut - 1] if cut else term)
            block = block[:cut + 1]
            term = block[-1]
        count -= len(block)
        yield block


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
    series bound sum_n K^n f <= c^2 f on A.  The hypothesis is checked
    on the summed series, so a series that did not converge raises.
    Every bound is formed with 0 * inf = 0.  The series and the rows
    f, Kf, ..., K^n_max f come from K's memo, so the checks of one
    (K, f) on every set of a chain sum the series once."""
    f = np.asarray(f, dtype=float)
    if not is_absorbing(K, A):
        raise PreconditionError("set is not absorbing")
    if not c >= 1:                      # also catches NaN
        raise ValueError("c must be at least 1")
    series = neumann_series(K, f)
    if series.status != "converged":
        raise PreconditionError(
            f"series hypothesis unchecked: the series is {series.status} "
            f"after {series.n_terms} terms")
    g = series.value
    cf = _times(c, f)
    viol = A.mask & (g > cf * (1 + 1e-12))
    if np.any(viol):
        raise PreconditionError(
            "series hypothesis fails at state "
            f"{int(np.flatnonzero(viol)[0])}: sum={g[viol][0]:.6g} "
            f"> c*f={cf[viol][0]:.6g}")
    slack = 1 + 1e-12
    rho = 1.0 - 1.0 / c
    f_a = f[A.mask]
    terms = _term_rows(K, f, n_max)[:, A.mask]
    decay = np.array([c * rho ** n for n in range(n_max + 1)])
    if not (terms <= _times(decay[:, None], f_a) * slack + 1e-300).all():
        return False
    return bool(np.all(g[A.mask] <= _times(c * c, f_a) * slack + 1e-300))


def _term_rows(K: MatrixKernel, f: np.ndarray, n_max: int) -> np.ndarray:
    """The rows f, Kf, ..., K^n_max f of a checked f, memoised on K: a
    larger n_max carries on from the last row held, which _term_blocks
    continues with the bits of one unbroken run."""
    memo = _f_memo(K, f)
    rows = memo.get("rows", f[None])
    if len(rows) <= n_max:
        rows = np.vstack((rows, *_term_blocks(K, rows[-1],
                                              n_max + 1 - len(rows))))
        rows.flags.writeable = False
        memo["rows"] = rows
    return rows[:n_max + 1]


def _times(a, f):
    """a * f with 0 * inf = 0."""
    return np.multiply(a, f, out=np.zeros(np.broadcast(a, f).shape),
                       where=(a != 0) & (f != 0))


def random_absorbing_instance(rng, contractive: bool = False):
    """Random dyadic kernel with an absorbing chain that holds by construction.

    Between 2 and 8 states are grouped into k <= 4 consecutive slices;
    entries, multiples of 1/16 in [0, 1], live only in blocks where the
    column's slice index does not exceed the row's, i.e. the matrix is
    block lower triangular, so every prefix union of slices is
    absorbing.  A random relabeling hides the structure.  With
    contractive=True each row is scaled by a power of two so row sums stay
    below one (entries remain dyadic, the series converges).
    """
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, min(4, n) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n]])
    slice_of = np.zeros(n, dtype=int)
    for j in range(k):
        slice_of[bounds[j]:bounds[j + 1]] = j
    e = rng.integers(0, 17, size=(n, n)).astype(float) / 16
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
    sets = {}
    for name, idx in doc.get("sets", {}).items():
        try:
            sets[name] = StateSet.from_indices(n, idx)
        except ValueError as exc:
            raise ValueError(f"set {name!r}: {exc}") from exc
    f = np.asarray(doc["f"], dtype=float) if "f" in doc else np.ones(n)
    return K, sets, f
