"""Concrete transition densities and potential kernels, with their
comparison inequalities and residual checks.

Kernels are evaluators p(s, x, t, y) >= 0 on R x R^d that vanish for
s >= t (causality).  Their operands broadcast: a time operand may be a
column with one entry per time, narrower than the space operands, and
the time factors are then computed once per entry, with the bits that
materialised operands give.  The registry makes them addressable by
name from the CLI: "gaussian", "cauchy", "kappa"; the cone kernel
``KAPPA`` is the one instance of "kappa".

Singular integrands here ((u+z)**-3/2 cones, z**-1/2 and z**-3/2 Weyl
weights) get power-law endpoint substitutions so the transformed
integrand is bounded; plain adaptive subdivision stalls at such
endpoints.  Each evaluator documents its substitution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from kpert import matrix_kernels as mk
from kpert.errors import PreconditionError
from kpert.quadrature import (Halton, QuadratureSpec, gauss_legendre_rule,
                              integrate_1d, peak_rule, peak_rule_2d)

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
_INV_SQRT_4PI = (4.0 * math.pi) ** -0.5


def _sqdist(x, y, dim):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if dim != 2:
        d = x - y
        d **= 2
        return d if dim == 1 else np.sum(d, axis=-1)
    # d = 2 goes per coordinate plane, with no (..., 2) temporary; two
    # squares added directly have the bits np.sum gives them
    d = x[..., 0] - y[..., 0]
    d **= 2
    e = x[..., 1] - y[..., 1]
    e **= 2
    d += e
    return d


class GaussianKernel:
    """Heat-semigroup density [4 pi (t-s)]**(-d/2) exp(-|x-y|^2 / 4(t-s))."""

    kind = "peak"

    def __init__(self, dim: int = 1):
        self.dim = int(dim)
        self.name = "gaussian"

    def __call__(self, s, x, t, y):
        dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        r2 = _sqdist(x, y, self.dim)
        live = dt > 0
        dt_safe = np.where(live, dt, 1.0)
        # r2 / (-4 dt) has the bits of -r2 / (4 dt) without negating r2
        val = np.asarray(r2 / (-4.0 * dt_safe))
        np.exp(val, out=val)
        val *= (4.0 * math.pi * dt_safe) ** (-self.dim / 2.0)
        return val if live.all() else np.where(live, val, 0.0)

    def peak_scale(self, dt):
        # transition variance is 2*dt
        return np.sqrt(2.0 * np.maximum(dt, 0.0))

    def bridge(self, s, x, v, t, y):
        """Mean and standard deviation of the Brownian bridge from (s, x)
        to (t, y) at the time v, s < v < t: p(s, x, v, z) p(v, z, t, y) /
        p(s, x, t, y) is the normal density in z with mean
        x + (v - s) / (t - s) (y - x) and variance 2 (v - s)(t - v) / (t - s)
        per coordinate (Karatzas and Shreve, Brownian Motion and
        Stochastic Calculus, sec. 5.6.B).  Operands broadcast."""
        frac = (v - s) / (t - s)
        return x + frac * (y - x), np.sqrt(2.0 * frac * (t - v))


class CauchyKernel:
    """Cauchy semigroup density c_d (t-s) [(t-s)^2 + |y-x|^2]**(-(d+1)/2).

    The normalizer c_d is computed once per dimension by radial
    quadrature of the spatial integral and cached (for d=1 it equals
    1/pi, which the tests cross-check).
    """

    kind = "peak"
    _c_cache: dict = {}

    def __init__(self, dim: int = 1):
        self.dim = int(dim)
        self.name = "cauchy"
        self.c_d = self._normalizer(self.dim)

    @classmethod
    def _normalizer(cls, d):
        if d not in cls._c_cache:
            surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

            def radial(r):
                return surface * r ** (d - 1) * (1.0 + r * r) ** (-(d + 1) / 2.0)

            total = integrate_1d(radial, 0.0, np.inf,
                                 QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14))
            cls._c_cache[d] = 1.0 / total.value
        return cls._c_cache[d]

    def __call__(self, s, x, t, y):
        dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        r2 = _sqdist(x, y, self.dim)
        live = dt > 0
        dt_safe = np.where(live, dt, 1.0)
        val = dt_safe ** 2 + r2
        val **= -(self.dim + 1) / 2.0
        val *= self.c_d * dt_safe
        return val if live.all() else np.where(live, val, 0.0)

    def peak_scale(self, dt):
        return np.maximum(dt, 0.0)


class KappaKernel:
    """Potential kernel of two independent right-moving 1/2-stable motions:
    (4 pi)**(-1/2) (u - s + z - x)**(-3/2) on the forward cone u > s, z > x.

    Singular on the cone tip; integrals against it use sqrt substitutions
    at the (s, x) endpoints.
    """

    kind = "cone"
    dim = 1

    def __init__(self):
        self.name = "kappa"

    def __call__(self, s, x, u, z):
        s = np.asarray(s, dtype=float)
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        z = np.asarray(z, dtype=float)
        ok = (u > s) & (z > x)
        inside = ok.all()
        w = np.asarray((u - s) + (z - x)) if inside else \
            np.where(ok, (u - s) + (z - x), 1.0)
        w **= -1.5
        w *= _INV_SQRT_4PI
        return w if inside else np.where(ok, w, 0.0)

    def peak_scale(self, dt):
        return np.maximum(dt, 0.0)


_GAUSSIANS: dict = {}
_CAUCHYS: dict = {}


def gaussian_kernel(dim: int = 1) -> GaussianKernel:
    if dim not in _GAUSSIANS:
        _GAUSSIANS[dim] = GaussianKernel(dim)
    return _GAUSSIANS[dim]


def cauchy_kernel(dim: int = 1) -> CauchyKernel:
    if dim not in _CAUCHYS:
        _CAUCHYS[dim] = CauchyKernel(dim)
    return _CAUCHYS[dim]


KAPPA = KappaKernel()


def resolve_kernel(name: str, dim: int = 1):
    """Registry lookup: gaussian | cauchy | kappa."""
    if name == "gaussian":
        return gaussian_kernel(dim)
    if name == "cauchy":
        return cauchy_kernel(dim)
    if name == "kappa":
        return KAPPA
    raise ValueError(f"unknown kernel {name!r}")


# ---------------------------------------------------------------------------
# Residual and inequality checks
# ---------------------------------------------------------------------------

class CKResidual(NamedTuple):
    residual: float
    quad_error: float


def check_chapman_kolmogorov(kernel, s, x, u, t, y) -> CKResidual:
    """|int p(s,x,u,z) p(u,z,t,y) dz - p(s,x,t,y)| by quadrature (d = 1)."""
    if not s < u < t:
        raise ValueError("need s < u < t")
    if getattr(kernel, "dim", 1) != 1:
        raise ValueError("the Chapman-Kolmogorov check takes d = 1")

    def f(z):
        return kernel(s, x, u, z) * kernel(u, z, t, y)
    res = integrate_1d(f, -np.inf, np.inf,
                       QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13))
    target = float(kernel(s, x, t, y))
    return CKResidual(abs(res.value - target), res.error)


class ThreeGCheck(NamedTuple):
    lower_ok: object
    upper_ok: object
    ratio: object
    product_upper_ok: object
    product_lower_ok: object


def check_3g(s, x, u, z, t, y) -> ThreeGCheck:
    """Comparison of the cone kernel through an intermediate point.

    For s < u < t and x < z < y the minimum of the two legs lies between
    the direct kernel and 2 sqrt(2) times it; the product forms follow
    from a*b = (a v b)(a ^ b).  Vectorized; ratio = (leg ^ leg) / direct.
    """
    s, x, u, z, t, y = map(lambda a: np.asarray(a, dtype=float),
                           (s, x, u, z, t, y))
    if not (np.all(s < u) and np.all(u < t) and np.all(x < z) and np.all(z < y)):
        raise ValueError("need s < u < t and x < z < y")
    k0 = KAPPA(s, x, t, y)
    k1 = KAPPA(s, x, u, z)
    k2 = KAPPA(u, z, t, y)
    m = np.minimum(k1, k2)
    slack = 1.0 + 1e-12
    ratio = m / k0
    lower_ok = k0 <= m * slack
    upper_ok = m <= TWO_SQRT2 * k0 * slack
    prod_up = k1 * k2 <= TWO_SQRT2 * k0 * np.maximum(k1, k2) * slack
    prod_lo = k1 * k2 * slack >= k0 * (k1 + k2) / 2.0
    return ThreeGCheck(lower_ok, upper_ok, ratio, prod_up, prod_lo)


def sample_3g(rng, n: int) -> ThreeGCheck:
    """check_3g on n random tuples: times s <= u <= t sorted from uniform
    draws on [0, 2), then places x <= z <= y from [-1, 2); a tuple with a
    tie is dropped, so ratio.size counts the tuples checked."""
    times = np.sort(rng.uniform(0.0, 2.0, size=(n, 3)), axis=1)
    space = np.sort(rng.uniform(-1.0, 2.0, size=(n, 3)), axis=1)
    ok = (np.diff(times, axis=1) > 0).all(axis=1) & \
        (np.diff(space, axis=1) > 0).all(axis=1)
    times, space = times[ok], space[ok]
    return check_3g(times[:, 0], space[:, 0], times[:, 1], space[:, 1],
                    times[:, 2], space[:, 2])


def check_3p_cauchy(s, x, u, z, t, y):
    """Ratio (p(s,x,u,z) ^ p(u,z,t,y)) / p(s,x,t,y) for the Cauchy density
    in d = 1.

    Zero denominator with zero numerator counts as 0; a positive numerator
    over a zero denominator is reported as inf (an unbounded sample, which
    causality rules out for s < t).  Vectorized.
    """
    ker = cauchy_kernel(1)
    p0 = np.asarray(ker(s, x, t, y), dtype=float)
    m = np.minimum(ker(s, x, u, z), ker(u, z, t, y))
    out = np.where(p0 > 0, m / np.where(p0 > 0, p0, 1.0),
                   np.where(m > 0, np.inf, 0.0))
    return out


def scan_3p_constant(seed: int = 0) -> float:
    """Empirical sup of the 3P ratio over 20 000 random tuples in d = 1.

    The true constant has no closed form here; the scan reports the
    largest finite ratio under a seeded Halton stream, with times in
    [-1, 2) and space in [-3, 3).
    """
    pts = Halton(6, seed).random(20_000)
    s, u, t = (-1.0 + 3.0 * pts[:, :3]).T
    x, z, y = (3.0 * (2.0 * pts[:, 3:] - 1.0)).T
    r3 = check_3p_cauchy(s, x, u, z, t, y)
    return float(np.max(r3[np.isfinite(r3)]))


# ---------------------------------------------------------------------------
# Weyl derivative of order 1/2 and left-inverse residuals
# ---------------------------------------------------------------------------

def weyl_half_derivative(phi, x, dphi=None,
                         form: str = "derivative") -> float:
    """Order-1/2 one-sided derivative of phi at x.

    derivative form: pi**(-1/2) int_0^inf z**(-1/2) phi'(x + z) dz,
    with the z**(-1/2) endpoint removed by the sqrt substitution.
    difference form: (4 pi)**(-1/2) int_0^inf z**(-3/2) (phi(x+z) - phi(x)) dz,
    which only needs phi itself.  Both require an integrable tail; a
    non-convergent quadrature raises.
    """
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, power=0.5)
    if form == "derivative":
        if dphi is None:
            raise ValueError("derivative form needs phi'")

        def f(z):
            z = np.asarray(z, dtype=float)
            zs = np.where(z > 0, z, 1.0)
            return np.where(z > 0, dphi(x + z) * zs ** -0.5, 0.0)
        res = integrate_1d(f, 0.0, np.inf, spec)
        if not res.converged:
            raise PreconditionError("tail of the Weyl integral did not converge")
        return res.value / math.sqrt(math.pi)
    if form == "difference":
        px = float(phi(x))

        def f(z):
            z = np.asarray(z, dtype=float)
            zs = np.where(z > 0, z, 1.0)
            return np.where(z > 0, (phi(x + z) - px) * zs ** -1.5, 0.0)
        res = integrate_1d(f, 0.0, np.inf, spec)
        if not res.converged:
            raise PreconditionError("tail of the Weyl integral did not converge")
        return res.value * _INV_SQRT_4PI
    raise ValueError("form must be 'derivative' or 'difference'")


@dataclass(frozen=True)
class Bump1D:
    """Polynomial bump (1 - r^2)^4 on |v - center| < halfwidth: cheap,
    exactly differentiable, compact support."""

    center: float = 1.5
    halfwidth: float = 0.5

    @property
    def lo(self):
        return self.center - self.halfwidth

    @property
    def hi(self):
        return self.center + self.halfwidth

    def __call__(self, v):
        r = (np.asarray(v, dtype=float) - self.center) / self.halfwidth
        inside = np.abs(r) < 1.0
        r = np.where(inside, r, 0.0)
        return np.where(inside, (1.0 - r * r) ** 4, 0.0)

    def deriv(self, v):
        r = (np.asarray(v, dtype=float) - self.center) / self.halfwidth
        inside = np.abs(r) < 1.0
        r = np.where(inside, r, 0.0)
        return np.where(inside, -8.0 * r * (1.0 - r * r) ** 3 / self.halfwidth, 0.0)


def weyl_of_bump(bump: Bump1D, v):
    """Exact (Gauss-Legendre) Weyl 1/2-derivative of a polynomial bump.

    After z = q**2 the integrand 2 bump'(v + q**2) is a polynomial of
    degree 14 in q, so a 64-point rule is exact; vectorized over v.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    lo = np.sqrt(np.maximum(bump.lo - v, 0.0))
    hi = np.sqrt(np.maximum(bump.hi - v, 0.0))
    xi, w = gauss_legendre_rule(-1.0, 1.0, 64)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    q = mid[None, :] + half[None, :] * xi[:, None]
    vals = bump.deriv(v[None, :] + q * q)
    integral = 2.0 * half * np.einsum("i,ij->j", w, vals)
    return integral / math.sqrt(math.pi)


def left_inverse_residual(s, x, phi_u: Bump1D, phi_z: Bump1D, q=None):
    """Residual |integral + phi(s, x)| of the left-inverse identity.

    Unperturbed (no q): the cone kernel integrated against
    (D_u^{1/2} + D_z^{1/2}) phi over (s, inf) x (x, inf) returns
    -phi(s, x).  Perturbed by the density q: the series kernel (a Neumann
    series on a clustered product grid) against
    (D_u^{1/2} + D_z^{1/2} + q) phi.

    The kernel is constant on level lines u + z = const, so the singular
    part collapses exactly to a 1-d integral of xi**(-3/2) against the
    cross-section integral of the test term (sqrt substitution at xi=0);
    the bounded series correction integrates on a product rule.  Returns
    (residual, quadrature error estimate).
    """
    u_hi = phi_u.hi
    z_hi = phi_z.hi
    if u_hi <= s or z_hi <= x:
        # kernel support and bump supports are disjoint
        return abs(float(phi_u(s) * phi_z(x))), 0.0

    def gfun(u, z):
        g = weyl_of_bump(phi_u, u) * phi_z(z) + phi_u(u) * weyl_of_bump(phi_z, z)
        if q is not None:
            g = g + q(u, z) * phi_u(u) * phi_z(z)
        return g

    gl_x, gl_w = gauss_legendre_rule(-1.0, 1.0, 64)

    def segment(xi):
        """Cross-section integral of gfun along u + z = s + x + xi."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        sigma = s + x + xi
        lo = np.maximum(s, sigma - z_hi)
        hi = np.minimum(u_hi, sigma - x)
        half = 0.5 * np.maximum(hi - lo, 0.0)
        mid = 0.5 * (hi + lo)
        u = mid[None, :] + half[None, :] * gl_x[:, None]
        z = sigma[None, :] - u
        vals = gfun(u.ravel(), z.ravel()).reshape(u.shape)
        return half * np.einsum("i,ij->j", gl_w, vals)

    def level_integrand(xi):
        xi = np.asarray(xi, dtype=float)
        ok = xi > 0
        xs = np.where(ok, xi, 1.0)
        return np.where(ok, _INV_SQRT_4PI * xs ** -1.5 * segment(xs), 0.0)

    xi_max = (u_hi - s) + (z_hi - x)
    res = integrate_1d(level_integrand, 0.0, xi_max,
                       QuadratureSpec(rel_tol=1e-7, abs_tol=1e-12, power=0.5))
    value = res.value
    err = res.error

    if q is not None:
        correction = _kappa_series_correction(s, x, u_hi, z_hi, q)
        cxi, cw = gauss_legendre_rule(0.0, 1.0, 32)
        cu = s + (u_hi - s) * cxi ** 2
        cwu = cw * 2.0 * cxi * (u_hi - s)
        cz = x + (z_hi - x) * cxi ** 2
        cwz = cw * 2.0 * cxi * (z_hi - x)
        U, Z = np.meshgrid(cu, cz, indexing="ij")
        W = np.outer(cwu, cwz)
        dvals = correction(U.ravel(), Z.ravel()).reshape(U.shape)
        gvals = gfun(U.ravel(), Z.ravel()).reshape(U.shape)
        corr_val = float(np.sum(W * dvals * gvals))
        value += corr_val
        err += 0.05 * abs(corr_val)   # grid-level accuracy of the correction

    value += float(phi_u(s) * phi_z(x))
    return abs(value), err


def _kappa_series_correction(s, x, u_hi, z_hi, q):
    """Series correction D with kappa~(s,x,.) = kappa(s,x,.) + D.

    D(u, z) = int kappa~(s,x,a,b) q(a,b) kappa(a,b,u,z) db da on a 24 x 24
    product grid clustered toward the cone tip (nodes a = s + (u_hi - s)
    w**2).
    On the grid kappa~ = kappa + M kappa~, with M the node-to-node
    propagator weighted by q and the rule: assembled once, summed as a
    Neumann series.
    """
    xi, wt = gauss_legendre_rule(0.0, 1.0, 24)
    a = s + (u_hi - s) * xi ** 2
    wa = wt * 2.0 * xi * (u_hi - s)
    b = x + (z_hi - x) * xi ** 2
    wb = wt * 2.0 * xi * (z_hi - x)
    A, B = np.meshgrid(a, b, indexing="ij")
    Ar, Br = A.ravel(), B.ravel()
    d = (q(A, B) * np.outer(wa, wb)).ravel()
    prop = KAPPA(Ar[:, None], Br[:, None], Ar[None, :], Br[None, :])
    res = mk.neumann_series(mk.MatrixKernel(prop.T * d), KAPPA(s, x, Ar, Br))
    if res.status != "converged":
        raise PreconditionError(f"the series correction is {res.status} "
                                f"after {res.n_terms} terms")
    src = res.value * d

    def correction(u, z):
        u = np.asarray(u, dtype=float)
        z = np.asarray(z, dtype=float)
        prop = KAPPA(Ar[:, None], Br[:, None], u.ravel()[None, :],
                     z.ravel()[None, :])
        return (src @ prop).reshape(u.shape)

    return correction


# ---------------------------------------------------------------------------
# Kato modulus
# ---------------------------------------------------------------------------

# (time node, spatial node) entries one block of a kato sweep holds:
# eight d = 2 time nodes of 768 points, 48 KB per factor.  Temporaries of
# this size are reused from the heap; a sample's 32 d = 2 nodes at once
# were returned to the system and faulted in again on every call.
_KATO_ENTRIES = 8 * 768


def _kato_node_sums(kernel, q, u, end_t, end_x, first: bool):
    """At each time node u_i, the sum over its peak rule in space of
    p(end_t_i, end_x_i, u_i, z) (first) or p(u_i, z, end_t_i, end_x_i),
    times q(u_i, z) unless q is None.

    Node i's rule sits on end_x_i (a point per row in d = 2), scaled on
    the factor's peak.  Nodes go in blocks of at most _KATO_ENTRIES
    (node, spatial node) entries, and each node's sum has the bits of
    its own rule alone."""
    scale = kernel.peak_scale((u - end_t) if first else (end_t - u))
    dim = getattr(kernel, "dim", 1)
    step = max(1, _KATO_ENTRIES // (64 if dim == 1 else 768))
    out = np.empty(len(u))
    for a in range(0, len(u), step):
        b = slice(a, a + step)
        uu, tt = u[b, None], end_t[b, None]
        if dim == 1:
            xx = end_x[b, None]
            z, w = peak_rule(xx, scale[b], 32)
        else:
            xx = end_x[b, None, :]
            z, w = peak_rule_2d(end_x[b], scale[b])
        vals = kernel(tt, xx, uu, z) if first else kernel(uu, z, tt, xx)
        if q is not None:
            vals *= q(uu, z)
        vals *= w
        out[b] = np.sum(vals, axis=-1)
    return out


def kato_inner_integral(kernel, mu, s, x, t, y):
    """int_s^t int [p(s,x,u,z) + p(u,z,t,y)] dmu(u,z).

    Per-time-node peak rules in space; 32 time nodes cluster (quadratically)
    at the endpoint where the respective p-factor concentrates, which
    also absorbs the u**(-1/2)-type endpoint growth that singular
    densities produce there.

    1-d arrays s and t give one sample per entry, with x and y one point
    per entry (per row in d = 2), and an array of the integrals: the two
    density pieces evaluate every sample's time nodes together, then the
    atoms every sample's atom times.  Each node's rule is reduced on its
    own, and each sample's nodes with its time weights in one vecdot
    call (the same BLAS dot on each sample's row), so a sample has the
    same bits alone and in a sweep.
    """
    s, t, x, y = (np.asarray(a, dtype=float) for a in (s, t, x, y))
    xi, wt = gauss_legendre_rule(0.0, 1.0, 32)
    n = len(s)
    total = np.zeros(n)
    if mu.density is not None:
        span = (t - s)[:, None]
        du = wt * 2.0 * xi * span
        owner = np.repeat(np.arange(n), len(xi))
        near = _kato_node_sums(kernel, mu.q,
                               (s[:, None] + span * xi ** 2).ravel(),
                               s[owner], x[owner], True).reshape(du.shape)
        far = _kato_node_sums(kernel, mu.q,
                              (t[:, None] - span * xi ** 2).ravel(),
                              t[owner], y[owner], False).reshape(du.shape)
        total = np.vecdot(near, du) + np.vecdot(far, du)
    atoms = mu.active_atoms()
    hits = [(i, atom) for i in range(n) for atom in atoms
            if s[i] < atom.time < t[i]]
    if hits:
        owner = np.array([i for i, _ in hits])
        u = np.array([atom.time for _, atom in hits])
        near = _kato_node_sums(kernel, None, u, s[owner], x[owner], True)
        far = _kato_node_sums(kernel, None, u, t[owner], y[owner], False)
        for k, (i, atom) in enumerate(hits):
            total[i] += atom.weight * float(near[k])
            total[i] += atom.weight * float(far[k])
    return total


def kato_profile(kernel, mu, h_values, n_samples: int = 24, seed: int = 0):
    """k(h) along a decreasing ladder of windows with a shared sample set.

    k(h) is the sampled sup of the inner double integral over x, y in
    [-2, 2]^d and 0 = s < t <= h (time-invariant measures), from a Halton
    stream plus each window's corner x = y = 0, t = h, the sup for
    densities concentrated at the origin.
    Samples are drawn once for the largest window; each smaller window
    takes the sup over the samples it still admits (t <= h), the natural
    nested estimator of a monotone quantity.  Every sample's inner
    integral comes from one call of kato_inner_integral, a sweep over
    all samples in blocks of time nodes.
    """
    h_values = sorted(h_values, reverse=True)
    if not h_values or not all(0.0 < h < math.inf for h in h_values):
        raise ValueError("windows must be finite and positive")
    h_max = h_values[0]
    d = getattr(kernel, "dim", 1)
    eng = Halton(1 + 2 * d, seed)
    pts = eng.random(max(n_samples - len(h_values), 1))
    samples = []
    for h in h_values:
        zero = 0.0 if d == 1 else np.zeros(d)
        samples.append((h, zero, zero))
    for row in pts:
        t = h_max * (0.02 + 0.98 * row[0])
        if d == 1:
            samples.append((t, 2.0 * (2 * row[1] - 1), 2.0 * (2 * row[2] - 1)))
        else:
            samples.append((t, 2.0 * (2 * row[1:1 + d] - 1),
                            2.0 * (2 * row[1 + d:] - 1)))
    ts, xs, ys = (np.array(col, dtype=float) for col in zip(*samples))
    values = kato_inner_integral(kernel, mu, np.zeros(len(ts)), xs, ts,
                                 ys).tolist()
    out = {}
    for h in h_values:
        out[h] = max(v for t, v in zip(ts.tolist(), values)
                     if t <= h * (1 + 1e-12))
    return out


# ---------------------------------------------------------------------------
# Two-subordinator example: slice constants in closed form and measured
# ---------------------------------------------------------------------------

def eta_for_kappa(c: float, p_exp: float, h: float) -> float:
    """Analytic slice constant 2 sqrt(2) c [B(1/2-p, 1) + B(1/2, 1-p)] h**(1/2-p)
    for the cone kernel under the density c (u+z)**(-p) on diagonal slices
    of width h."""
    if not 0.0 < p_exp < 0.5:
        raise ValueError("exponent must lie in (0, 1/2)")
    if c <= 0 or h <= 0:
        raise ValueError("coefficient and width must be positive")
    return TWO_SQRT2 * c * _beta_sum(p_exp) * h ** (0.5 - p_exp)


def _beta_sum(p_exp):
    """B(1/2 - p, 1) + B(1/2, 1 - p): the first is 1 / (1/2 - p), the
    second Gamma(1/2) Gamma(1 - p) / Gamma(3/2 - p), formed from
    log-gammas."""
    return 1.0 / (0.5 - p_exp) + math.exp(
        math.lgamma(0.5) + math.lgamma(1.0 - p_exp) - math.lgamma(1.5 - p_exp))


def solve_h(c: float, p_exp: float, eta_target: float) -> float:
    """Invert eta_for_kappa for the slice width delivering eta_target."""
    if not 0.0 < eta_target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    return (eta_target / (TWO_SQRT2 * c * _beta_sum(p_exp))) ** \
        (1.0 / (0.5 - p_exp))


def kappa_slice_ratio(s, x, t, y, a_lo, a_hi, c, p_exp) -> float:
    """K_j f(s,x) / f(s,x) for the cone kernel, f = kappa(., ., t, y),
    K_j the kernel cut to the diagonal slice a_lo <= u + z < a_hi under
    the density c (u + z)**(-p).

    The integrand is constant on level lines u + z = xi, so the double
    integral collapses exactly to one dimension: the level-line
    cross-section length is integrated against
    (xi - s - x)**(-3/2) (t + y - xi)**(-3/2) xi**(-p).  Endpoint
    singularities get sqrt / power substitutions.
    """
    alpha = s + x
    omega = t + y
    f = KAPPA(s, x, t, y)
    if f == 0.0:
        return 0.0
    lo = max(a_lo, alpha, 0.0)
    hi = min(a_hi, omega)
    if hi <= lo:
        return 0.0

    def integrand(xi):
        xi = np.asarray(xi, dtype=float)
        upper = np.minimum(np.minimum(t, xi - max(x, 0.0)), xi)
        lower = np.maximum(np.maximum(s, xi - y), 0.0)
        length = np.maximum(upper - lower, 0.0)
        da = np.maximum(xi - alpha, 0.0)
        db = np.maximum(omega - xi, 0.0)
        good = (da > 0) & (db > 0) & (xi > 0)
        da = np.where(good, da, 1.0)
        db = np.where(good, db, 1.0)
        xs = np.where(good, xi, 1.0)
        val = da ** -1.5 * db ** -1.5 * xs ** (-p_exp) * length
        return np.where(good, val, 0.0)

    mid = 0.5 * (lo + hi)
    lower_sub = None
    if lo == alpha and lo == 0.0:
        lower_sub = QuadratureSpec(rel_tol=1e-9,
                                   power=min(0.5 + p_exp, 0.95))
    elif lo == alpha or lo == 0.0:
        order = 0.5 if lo == alpha else p_exp
        lower_sub = QuadratureSpec(rel_tol=1e-9, power=max(order, 0.05))
    upper_sub = None
    if hi == omega:
        upper_sub = QuadratureSpec(rel_tol=1e-9, power=0.5,
                                   singular_end="upper")
    plain = QuadratureSpec(rel_tol=1e-9)
    left = integrate_1d(integrand, lo, mid, lower_sub or plain)
    right = integrate_1d(integrand, mid, hi, upper_sub or plain)
    total = (left.value + right.value) * c / (4.0 * math.pi)
    return total / float(f)
