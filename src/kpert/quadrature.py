"""Shared numerical integration engine.

Adaptive 1-d quadrature built on the embedded 7-point Gauss / 15-point
Kronrod pair, with declared endpoint substitutions for integrable power
singularities and a rational map for unbounded axes.  Tensorized nd
integration iterates the 1-d rule (up to four dimensions).  Fixed rules:
Gauss-Legendre on an interval, and the tan-substituted peak rule for
integrands peaked at a point of the real line; both cache their base
rule per size.  Sample points come from ``Halton``, the scrambled Halton
sequence of A. B. Owen, "A randomized Halton algorithm in R"
(arXiv:1706.02808, 2017).

Every result carries (value, error_estimate); callers express downstream
tolerances in units of that estimate.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# 15-point Kronrod extension of the 7-point Gauss-Legendre rule on [-1, 1].
# Gauss nodes are the odd-indexed Kronrod nodes, so one function sweep feeds
# both rules and |K15 - G7| is a usable (conservative) error estimate.
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros_like(_WGK)
_WG[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
# renormalize the truncated published constants so constants integrate exactly
_WGK *= 2.0 / _WGK.sum()
_WG *= 2.0 / _WG.sum()


class QuadResult(NamedTuple):
    value: float
    error: float
    converged: bool
    subdivisions: int


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and singularity declaration for adaptive integration.

    ``substitution`` declares an integrable power singularity at
    ``singular_end``: "sqrt" maps z = end +/- w**2 (order-1/2), "power"
    uses the caller-declared order ``power`` in (0, 1) and maps
    z = end +/- w**(1/(1-power)), which renders the transformed integrand
    bounded.  ``truncation_radius`` is a fallback cutoff for unbounded
    axes; by default they are mapped rationally onto (0, 1).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 400
    substitution: str | None = None      # None | "sqrt" | "power"
    power: float | None = None           # singularity order for "power"
    singular_end: str = "lower"          # "lower" | "upper"
    truncation_radius: float | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.substitution not in (None, "sqrt", "power"):
            raise ValueError(f"unknown substitution {self.substitution!r}")
        if self.substitution == "power":
            if self.power is None or not 0.0 < self.power < 1.0:
                raise ValueError("power substitution needs singularity order in (0,1)")
        if self.singular_end not in ("lower", "upper"):
            raise ValueError("singular_end must be 'lower' or 'upper'")


def _gk15(g, a, b):
    """One Gauss-Kronrod pass of the (vectorized) integrand g on [a, b]."""
    h = 0.5 * (b - a)
    c = 0.5 * (b + a)
    fx = np.asarray(g(c + h * _XGK), dtype=float)
    vk = h * float(np.dot(_WGK, fx))
    vg = h * float(np.dot(_WG, fx))
    return vk, abs(vk - vg)


def _adaptive(g, panels, rel_tol, abs_tol, max_subdivisions):
    """Adaptive subdivision over initial panels, worst-error-first."""
    heap = []
    total_v = 0.0
    total_e = 0.0
    for i, (a, b) in enumerate(panels):
        if not b > a:
            continue
        v, e = _gk15(g, a, b)
        total_v += v
        total_e += e
        heapq.heappush(heap, (-e, a, b, v))
    nsub = 0
    while heap and total_e > max(abs_tol, rel_tol * abs(total_v)):
        if nsub >= max_subdivisions:
            return QuadResult(total_v, total_e, False, nsub)
        neg_e, a, b, v = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:        # interval exhausted at double precision
            heapq.heappush(heap, (math.inf, a, b, v))  # park it; inf sorts last
            if all(item[0] == math.inf for item in heap):
                break
            continue
        vl, el = _gk15(g, a, m)
        vr, er = _gk15(g, m, b)
        total_v += vl + vr - v
        total_e += el + er - (-neg_e)
        heapq.heappush(heap, (-el, a, m, vl))
        heapq.heappush(heap, (-er, m, b, vr))
        nsub += 1
    return QuadResult(total_v, total_e, True, nsub)


def _substituted(f, a, b, spec):
    """Apply the declared endpoint substitution, returning (g, lo, hi).

    Lower-end "power" with order gamma: z = a + w**e, e = 1/(1-gamma),
    dz = e * w**(e-1) dw, so f(z) ~ (z-a)**-gamma becomes bounded.
    """
    if spec.substitution is None:
        return f, a, b
    gamma = 0.5 if spec.substitution == "sqrt" else spec.power
    e = 1.0 / (1.0 - gamma)
    if spec.singular_end == "lower":
        def g(w, _f=f, _a=a, _e=e):
            w = np.maximum(w, 0.0)
            return _f(_a + w ** _e) * _e * w ** (_e - 1.0)
        return g, 0.0, (b - a) ** (1.0 / e)
    def g(w, _f=f, _b=b, _e=e):
        w = np.maximum(w, 0.0)
        return _f(_b - w ** _e) * _e * w ** (_e - 1.0)
    return g, 0.0, (b - a) ** (1.0 / e)


def integrate_1d(f, a, b, spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate the vectorized callable f over (a, b).

    Endpoints may be +-inf; unless spec.truncation_radius requests a plain
    cutoff, infinite ends are mapped rationally (x = a + w/(1-w)) so heavy
    power tails are integrated rather than discarded.  A declared endpoint
    substitution is applied before any unbounded map.
    """
    spec = spec or QuadratureSpec()
    if a >= b:
        return QuadResult(0.0, 0.0, True, 0)

    lo_inf = math.isinf(a)
    hi_inf = math.isinf(b)
    if (lo_inf or hi_inf) and spec.truncation_radius is not None:
        r = spec.truncation_radius
        a = max(a, -r)
        b = min(b, r)
        lo_inf = hi_inf = False
        if a >= b:
            return QuadResult(0.0, 0.0, True, 0)

    if lo_inf and hi_inf:
        left = integrate_1d(f, a, 0.0, replace(spec, substitution=None))
        right = integrate_1d(f, 0.0, b, replace(spec, substitution=None))
        return QuadResult(left.value + right.value, left.error + right.error,
                          left.converged and right.converged,
                          left.subdivisions + right.subdivisions)

    if hi_inf:
        if spec.substitution is not None and spec.singular_end == "lower":
            # substitution owns [a, a+1]; the mapped tail takes the rest
            head = integrate_1d(f, a, a + 1.0, spec)
            tail = integrate_1d(f, a + 1.0, np.inf, replace(spec, substitution=None))
            return QuadResult(head.value + tail.value, head.error + tail.error,
                              head.converged and tail.converged,
                              head.subdivisions + tail.subdivisions)

        def g(w, _f=f, _a=a):
            w = np.clip(w, 0.0, np.nextafter(1.0, 0.0))
            x = _a + w / (1.0 - w)
            return _f(x) / (1.0 - w) ** 2
        return _adaptive(g, [(0.0, 1.0)], spec.rel_tol, spec.abs_tol,
                         spec.max_subdivisions)

    if lo_inf:
        def fr(x, _f=f):
            return _f(-x)
        return integrate_1d(fr, -b, np.inf,
                            replace(spec, singular_end="lower")
                            if spec.singular_end == "upper" else spec)

    g, lo, hi = _substituted(f, a, b, spec)
    return _adaptive(g, [(lo, hi)], spec.rel_tol, spec.abs_tol,
                     spec.max_subdivisions)


def integrate_nd(f, box, spec=None) -> QuadResult:
    """Iterated 1-d integration of f over a box; f maps (n, d) -> (n,).

    The box has 1 to 4 dimensions; ``spec`` may be a single QuadratureSpec
    or one per axis.  Error estimates propagate conservatively: outer rule
    error plus the box measure times the worst inner estimate.
    """
    box = [tuple(map(float, ab)) for ab in box]
    d = len(box)
    if not 1 <= d <= 4:
        raise ValueError(f"integrate_nd takes 1 to 4 dimensions, not {d}")
    for a, b in box:
        if a >= b:
            return QuadResult(0.0, 0.0, True, 0)
    if isinstance(spec, QuadratureSpec) or spec is None:
        specs = [spec or QuadratureSpec()] * d
    else:
        specs = list(spec)
        if len(specs) != d:
            raise ValueError("need one spec per axis")

    if d == 1:
        a, b = box[0]
        return integrate_1d(lambda x: f(np.asarray(x)[:, None]), a, b, specs[0])

    inner_errs = [0.0]
    not_conv = [False]

    def outer_integrand(xs):
        xs = np.atleast_1d(xs)
        out = np.empty_like(xs, dtype=float)
        for i, x0 in enumerate(xs):
            def inner(pts, _x0=x0):
                pts = np.asarray(pts)
                full = np.concatenate(
                    [np.full((pts.shape[0], 1), _x0), pts], axis=1)
                return f(full)
            r = integrate_nd(inner, box[1:], specs[1:])
            inner_errs[0] = max(inner_errs[0], r.error)
            not_conv[0] |= not r.converged
            out[i] = r.value
        return out

    a, b = box[0]
    outer = integrate_1d(outer_integrand, a, b, specs[0])
    width = min(b - a, specs[0].truncation_radius or (b - a)) if not math.isinf(b - a) else 1.0
    err = outer.error + abs(width) * inner_errs[0]
    return QuadResult(outer.value, err, outer.converged and not not_conv[0],
                      outer.subdivisions)


# n -> read-only (nodes, weights) of the n-point rule on [-1, 1]
_GL_BASE: dict = {}


def gauss_legendre_rule(a, b, n):
    """Plain n-point Gauss-Legendre nodes and weights on [a, b].

    The [-1, 1] rule is computed once per n (``leggauss`` solves an
    eigenproblem); the map to [a, b] returns fresh arrays on every call.
    """
    base = _GL_BASE.get(n)
    if base is None:
        base = np.polynomial.legendre.leggauss(n)
        for arr in base:
            arr.flags.writeable = False
        _GL_BASE[n] = base
    x, w = base
    h = 0.5 * (b - a)
    return 0.5 * (a + b) + h * x, h * w


# n -> read-only (tan theta, w, cos(theta)**2) of the peak rule's base,
# theta the n-point Gauss-Legendre nodes on each half of (-pi/2, pi/2)
_PEAK_BASE: dict = {}


def peak_rule(center, scale, n):
    """Nodes/weights for int F(z) dz with F peaked at ``center`` on scale
    ``scale``: z = center + scale * tan(theta), weights
    w * scale / cos(theta)**2, with n Gauss-Legendre nodes theta on each
    half-axis.  For a Cauchy peak of that scale the substituted density is
    constant, so the rule is exact for it at any scale.

    ``scale`` is floored at 1e-300; an array ``scale`` gives one rule per
    entry along a new last axis (shape scale.shape + (2 n,)).
    """
    base = _PEAK_BASE.get(n)
    if base is None:
        th, w = gauss_legendre_rule(0.0, 0.5 * math.pi, n)
        tan, cos2 = np.tan(th), np.cos(th) ** 2
        base = (np.concatenate([-tan[::-1], tan]),
                np.concatenate([w[::-1], w]),
                np.concatenate([cos2[::-1], cos2]))
        for arr in base:
            arr.flags.writeable = False
        _PEAK_BASE[n] = base
    tan, w, cos2 = base
    scale = np.maximum(scale, 1e-300)[..., None]
    return center + scale * tan, scale * w / cos2


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class Halton:
    """Owen's randomly scrambled Halton sequence in [0, 1)**d, seeded.

    Coordinate i is a van der Corput sequence in the i-th prime base b:
    digit j of the point index goes through its own random permutation of
    range(b), for every j with b**-(j+1) > 2**-54.  ``random(n)`` returns
    the next n points, so repeated calls continue one sequence.

    The permutations come from ``numpy.random.default_rng(seed)`` and the
    digit sum runs in the order of j with the same floating-point steps
    as SciPy's scrambled ``Halton`` engine seeded with the same integer,
    whose points it reproduces bit for bit.
    """

    _CHUNK = 4096       # points per digit matrix in ``random``

    def __init__(self, d: int, seed: int):
        if not 1 <= d <= len(_PRIMES):
            raise ValueError(f"Halton dimension must be in 1..{len(_PRIMES)}")
        if seed < 0:
            raise ValueError("Halton seed must be a non-negative integer")
        rng = np.random.default_rng(seed)
        self.d = d
        self._drawn = 0
        self._bases = []
        for b in _PRIMES[:d]:
            count = math.ceil(54 / math.log2(b)) - 1
            # one shuffle per row, drawn in row order
            perm = rng.permuted(np.repeat(np.arange(b)[None], count, 0), axis=1)
            scale = np.empty(count)
            step = 1.0 / b
            for j in range(count):
                scale[j] = step
                step /= b
            powers = np.array([b ** j for j in range(count)], dtype=np.int64)
            # terms[j * b + r] = perm[j, r] * b**-(j+1); digit 0 at [::b]
            terms = (perm * scale[:, None]).ravel()
            self._bases.append((b, powers, terms, terms[::b]))

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` points, shape (n, d)."""
        start = self._drawn
        self._drawn += n
        out = np.empty((n, self.d))
        for lo in range(0, n, self._CHUNK):
            hi = min(lo + self._CHUNK, n)
            index = np.arange(start + lo, start + hi, dtype=np.int64)
            for i, (b, powers, terms, digit0) in enumerate(self._bases):
                # digits j >= m are 0 at every index in the chunk
                m = int(np.searchsorted(powers, start + hi - 1, side="right"))
                rows = np.empty((len(powers), hi - lo))
                digits = index // powers[:m, None] % b
                digits += np.arange(0, m * b, b)[:, None]
                rows[:m] = terms[digits]
                rows[m:] = digit0[m:, None]
                # cumsum adds the digits' terms one at a time in order of j
                out[lo:hi, i] = rows.cumsum(0)[-1]
        return out
