"""Exponential bounds for iterated-kernel series on sliced absorbing chains.

Given an increasing chain of absorbing sets with slices S_j and sliced
operators K_j = K 1_{S_j}, local smallness (K_j f <= eta f on S_j) and
global boundedness (K_j f <= beta f on the top set) force

    sum_m K^m f <= (1 / (1 - eta)) * (1 + beta / (1 - eta))**(j - 1) * f

on S_j.  That bound is the closed form alpha (1 + delta)**(j - 1) of the
discrete Gronwall recursion gamma_j <= alpha + delta sum_{i<j} gamma_i,
written once in ``gronwall_bound``; ``theorem_bound`` takes alpha =
1/(1-eta), delta = beta/(1-eta), and ``corollary_bound`` scales it for
per-slice summability.  The module also estimates the constants from
samples (refined around each slice's argmax only for a problem with
local points) or exact enumeration and writes certificates comparing the
bound against an independently summed series.  A slice problem holds no
state that this module reads back: ``certify`` keeps its own running
quadrature error.

Certificates never silently trust the theorem: a certificate is VALID
only when the measured series ratio stays below the bound within a
relative tolerance of ten times the largest quadrature error of the
series summed for this slice and the slices before it, and at least 1e-9
(``quad_rel_tol``); exact matrix arithmetic reports no quadrature error,
so it gets the 1e-9.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from kpert.errors import DomainError, SmallnessError
from kpert import matrix_kernels as mk

EXACT_REL_TOL = 1e-9
QUAD_TOL_FACTOR = 10.0


def gronwall_bound(alpha: float, delta: float, j: int) -> float:
    """Closed form alpha * (1 + delta)**(j-1) dominating the recursion
    gamma_j <= alpha + delta * sum_{i<j} gamma_i; DomainError when it
    exceeds the largest float."""
    if j < 1 or int(j) != j:
        raise ValueError("index j must be a positive integer")
    if alpha < 0 or delta < 0:
        raise ValueError("alpha and delta must be nonnegative")
    try:
        bound = alpha * (1.0 + delta) ** (j - 1)
    except OverflowError:
        bound = math.inf
    if bound == math.inf:
        raise DomainError(f"the slice bound overflows a float at slice {j}")
    return bound


def theorem_bound(eta: float, beta: float, j: int) -> float:
    """Slice-j series bound (1/(1-eta)) * (1 + beta/(1-eta))**(j-1)."""
    if not 0.0 <= eta < 1.0:
        raise DomainError(f"local smallness fails: eta={eta} must lie in [0, 1)")
    return gronwall_bound(1.0 / (1.0 - eta), beta / (1.0 - eta), j)


def corollary_bound(c: float, N: int, beta: float, j: int) -> float:
    """Series bound from per-slice summability sum_m K_j^m f <= c f.

    Uses eta = c (1 - 1/c)**N, which must fall below one (else: pick a
    larger N), and returns (sum_{n<N} beta**n) * theorem_bound(eta, beta, j).
    """
    if c <= 1.0:
        raise ValueError("c must exceed 1")
    if N < 1 or int(N) != N:
        raise ValueError("N must be a positive integer")
    eta = c * (1.0 - 1.0 / c) ** N
    if eta >= 1.0:
        raise DomainError(f"eta={eta:.6g} >= 1: choose larger N")
    geom = sum(beta ** n for n in range(int(N)))
    return geom * theorem_bound(eta, beta, j)


def smallest_admissible_N(c: float) -> int:
    """Least N with c (1 - 1/c)**N < 1 (c >= 1; N=1 works at c = 1)."""
    if c < 1.0:
        raise ValueError("c must be at least 1")
    if c == 1.0:
        return 1
    N = 1
    while c * (1.0 - 1.0 / c) ** N >= 1.0:
        N += 1
    return N


@dataclass(frozen=True)
class SliceConstants:
    per_slice_eta: tuple
    per_slice_beta: tuple
    sample_counts: tuple = ()

    @property
    def eta(self) -> float:
        return max(self.per_slice_eta)

    @property
    def beta(self) -> float:
        return max(self.per_slice_beta)


@dataclass
class TruncationReport:
    max_index: int = 0
    status: str = "converged"
    tail_estimate: float = 0.0
    quad_error: float = 0.0

    def to_dict(self):
        return {"max_index": int(self.max_index), "status": self.status,
                "tail_estimate": float(self.tail_estimate),
                "quad_error": float(self.quad_error)}


@dataclass
class BoundCertificate:
    slice_index: int
    eta: float
    beta: float
    theorem_bound: float
    measured_ratio: float
    status: str                  # VALID | INVALID | INCONCLUSIVE | HYPOTHESIS_FAIL
    sample_count: int
    truncation: TruncationReport = field(default_factory=TruncationReport)
    note: str = ""

    @property
    def margin(self) -> float:
        return self.theorem_bound - self.measured_ratio

    def to_dict(self):
        return {
            "slice": int(self.slice_index),
            "eta": float(self.eta),
            "beta": float(self.beta),
            "bound": float(self.theorem_bound),
            "measured_ratio": float(self.measured_ratio),
            "margin": float(self.margin),
            "status": self.status,
            "samples": int(self.sample_count),
            "truncation": self.truncation.to_dict(),
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# Slice problems: anything exposing k slices, a control function, the sliced
# operator K_j applied to the control, and an independently computed series.
# Continuous problems sample; the matrix problem enumerates states exactly.
# ---------------------------------------------------------------------------

class MatrixSliceProblem:
    """Finite-state problem: exact enumeration, exact summation."""

    exact = True

    def __init__(self, K: mk.MatrixKernel, f, chain: mk.AbsorbingChain):
        chain.validate_for(K)
        self.K = K
        self.f = np.asarray(f, dtype=float)
        if self.f.shape != (K.n,):
            raise ValueError(f"control function has shape {self.f.shape}, "
                             f"kernel has {K.n} states")
        if not (self.f >= 0).all():          # also catches NaN
            raise ValueError("control function must be nonnegative")
        self.chain = chain
        self._slices = chain.slices
        # K 1_S f as K (1_S f): the same products, with the zeros in the
        # same places, and no restricted copy of K
        self._Kjf = [mk.apply(K, np.where(S.mask, self.f, 0.0))
                     for S in self._slices]

    @property
    def k(self):
        return self.chain.k

    def slice_points(self, j, rng=None, n=None):
        return self._slices[j - 1].indices()

    def top_points(self, rng=None, n=None):
        return self.chain.sets[-1].indices()

    def control(self, pts):
        return self.f[pts]

    def slice_apply(self, j, pts):
        return self._Kjf[j - 1][pts]

    def series(self, pts):
        """The series at pts; K's memo sums it once for all slices."""
        res = mk.neumann_series(self.K, self.f)
        rep = TruncationReport(res.n_terms, res.status, res.tail_estimate, 0.0)
        return res.value[pts], rep


def _ratios(num, den):
    """num/den with the 0/0 = 0 and x/0 = inf conventions."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.zeros_like(num)
    pos = den > 0
    out[pos] = num[pos] / den[pos]
    out[~pos & (num > 0)] = np.inf
    return out


def _sup_ratio(num, den):
    """sup num/den with the conventions of _ratios; 0 for no points."""
    out = _ratios(num, den)
    return float(np.max(out)) if out.size else 0.0


def estimate_constants(problem, rng=None,
                       n_samples: int = 64) -> SliceConstants:
    """Per-slice sup of K_j f / f over S_j (eta) and over the top set (beta).

    Matrix problems enumerate every state, so the sup is exact.  Sampled
    problems report a lower estimate of the sup; the certificate records
    the sample count so the provenance is visible.  A problem with
    local_points (the diagonal-level one) is refined in two rounds that
    jitter around each slice's argmax with rng; the others (matrix and
    time slices) are not.  Points where f = 0 but K_j f > 0 force
    eta = inf (hypothesis unverifiable there).
    """
    etas, betas, counts = [], [], []
    refine = hasattr(problem, "local_points")
    top = problem.top_points(rng, n_samples)
    for j in range(1, problem.k + 1):
        pts = problem.slice_points(j, rng, n_samples)
        vals = _ratios(problem.slice_apply(j, pts), problem.control(pts))
        best = float(np.max(vals)) if len(vals) else 0.0
        count = len(pts)
        if refine and len(vals):
            # local refinement: jitter around the running argmax with a
            # shrinking radius; a sampled sup only ever under-estimates
            center = pts[int(np.argmax(vals))]
            radius = 0.25
            for _ in range(2):
                pts2 = problem.local_points(j, center, radius,
                                            max(n_samples // 2, 4), rng)
                vals2 = _ratios(problem.slice_apply(j, pts2),
                                problem.control(pts2))
                count += len(pts2)
                if len(vals2) and float(np.max(vals2)) > best:
                    best = float(np.max(vals2))
                    center = pts2[int(np.argmax(vals2))]
                radius *= 0.4
        etas.append(best)
        betas.append(_sup_ratio(problem.slice_apply(j, top),
                                problem.control(top)))
        counts.append(count)
    return SliceConstants(tuple(etas), tuple(betas), tuple(counts))


def quad_rel_tol(err: float) -> float:
    """Relative certificate tolerance for a number carrying quadrature
    error ``err``: QUAD_TOL_FACTOR times that error, at least
    EXACT_REL_TOL."""
    return max(EXACT_REL_TOL, QUAD_TOL_FACTOR * err)


def verdict(status: str, ratio: float, bound: float, tol: float) -> str:
    """INCONCLUSIVE when the series did not converge (never INVALID);
    otherwise VALID when ratio <= bound (1 + tol), else INVALID."""
    if status != "converged":
        return "INCONCLUSIVE"
    return "VALID" if ratio <= bound * (1.0 + tol) else "INVALID"


def certify(problem, eta: float, beta: float, n_samples: int = 64):
    """One certificate per slice: measured series ratio vs the bound for
    the slice constants eta and beta (measured or declared).

    The series is computed by the problem's own engine (exact summation
    for matrices, quadrature-backed series otherwise) at the slice's
    points; INCONCLUSIVE when that series did not converge, never INVALID
    in that case, and for a sampled slice that no sample point falls in,
    where no series is computed.  An eta of one or more raises
    SmallnessError, and a bound past the largest float DomainError, both
    before any series is summed.  Each slice's tolerance reads the
    largest quadrature error of the series summed so far, its own
    included.
    """
    if not eta < 1.0:
        raise SmallnessError(eta)
    theorem_bound(eta, beta, problem.k)     # the largest; raises first
    certs = []
    quad_error = 0.0
    for j in range(1, problem.k + 1):
        pts = problem.slice_points(j, None, n_samples)
        bound = theorem_bound(eta, beta, j)
        if not problem.exact and len(pts) == 0:
            certs.append(BoundCertificate(
                slice_index=j, eta=eta, beta=beta, theorem_bound=bound,
                measured_ratio=0.0, status="INCONCLUSIVE", sample_count=0,
                note="no sample point in the slice"))
            continue
        f = problem.control(pts)
        series, rep = problem.series(pts)
        ratio = _sup_ratio(series, f)
        quad_error = max(quad_error, rep.quad_error)
        tol = quad_rel_tol(quad_error)
        certs.append(BoundCertificate(
            slice_index=j, eta=eta, beta=beta, theorem_bound=bound,
            measured_ratio=ratio, status=verdict(rep.status, ratio, bound, tol),
            sample_count=len(pts), truncation=rep,
            note="" if problem.exact else
            "sampled sup; an undersampled eta can hide violations"))
    return certs


# ---------------------------------------------------------------------------
# Slicing helpers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Half-open real interval [lo, hi)."""

    lo: float
    hi: float

    def contains(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return (u >= self.lo) & (u < self.hi)

    @property
    def length(self) -> float:
        return max(0.0, self.hi - self.lo)


def time_uniform_slices(r: float, t: float, h: float):
    """Split [r, t) into half-open width-h intervals I_1, ..., I_k ordered
    from the target time downward: I_1 = [t-h, t), I_j below I_{j-1}."""
    if not (r < t and h > 0):
        raise ValueError("need r < t and h > 0")
    k = math.ceil((t - r) / h)
    out = []
    for j in range(1, k + 1):
        lo = max(r, t - j * h)
        out.append(Interval(lo, t - (j - 1) * h))
    return out


def diagonal_levels(t: float, y: float, h: float):
    """Level values a_0 > a_1 > ... > a_k = 0 for diagonal slices
    {a_j <= u + z < a_{j-1}} below the target level t + y.

    k satisfies (k-1) h <= t + y < k h; slice k is everything below a_{k-1}.
    """
    if h <= 0:
        raise ValueError("slice width must be positive")
    omega = t + y
    if omega <= 0:
        raise ValueError("target level must be positive")
    k = math.floor(omega / h) + 1
    return [(k - j) * h for j in range(k + 1)], k
