import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kpert.quadrature import (BoxSampler, GaussianSampler, MCSpec,
                              QuadratureSpec, gauss_legendre_rule,
                              integrate_1d, integrate_nd, mc_integrate)
from kpert.spacetime import stable_subordinator_density


def test_constant_is_exact():
    r = integrate_1d(lambda x: np.ones_like(x), 0.0, 1.0)
    assert abs(r.value - 1.0) < 1e-14
    assert r.converged


def test_inverse_sqrt_with_substitution():
    r = integrate_1d(lambda x: x ** -0.5, 0.0, 1.0,
                     QuadratureSpec(substitution="sqrt"))
    assert abs(r.value - 2.0) < 1e-10


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
def test_power_substitution_battery(gamma):
    # analytic antiderivative: integral of x^-gamma over (0,1) is 1/(1-gamma)
    r = integrate_1d(lambda x: x ** -gamma, 0.0, 1.0,
                     QuadratureSpec(substitution="power", power=gamma))
    assert abs(r.value - 1.0 / (1.0 - gamma)) < 1e-9 / (1.0 - gamma)


def test_upper_endpoint_substitution():
    r = integrate_1d(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0,
                     QuadratureSpec(substitution="sqrt", singular_end="upper"))
    assert abs(r.value - 2.0) < 1e-10


def test_subordinator_laplace_transform():
    r = integrate_1d(lambda x: stable_subordinator_density(1.0, x) * np.exp(-x),
                     0.0, np.inf, QuadratureSpec(rel_tol=1e-9))
    assert abs(r.value - math.exp(-1.0)) < 1e-6


def test_unbounded_map_default():
    r = integrate_1d(lambda x: np.exp(-x), 0.0, np.inf)
    assert abs(r.value - 1.0) < 1e-9
    r = integrate_1d(lambda x: 1.0 / (1.0 + x * x), -np.inf, np.inf)
    assert abs(r.value - math.pi) < 1e-8


def test_truncation_radius_fallback():
    spec = QuadratureSpec(truncation_radius=3.0)
    r = integrate_1d(lambda x: np.ones_like(x), 0.0, np.inf, spec)
    assert abs(r.value - 3.0) < 1e-12


def test_not_converged_flag():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=2)
    r = integrate_1d(lambda x: np.abs(np.sin(50.0 / (x + 1e-3))), 0.0, 1.0, spec)
    assert not r.converged


@given(hst.lists(hst.floats(-3, 3), min_size=2, max_size=4),
       hst.lists(hst.floats(-3, 3), min_size=2, max_size=4))
@settings(max_examples=25, deadline=None)
def test_linearity(coeffs_f, coeffs_g):
    def poly(c):
        return lambda x: sum(ci * x ** i for i, ci in enumerate(c))
    rf = integrate_1d(poly(coeffs_f), 0.0, 1.0)
    rg = integrate_1d(poly(coeffs_g), 0.0, 1.0)
    combined = integrate_1d(
        lambda x: 2.0 * poly(coeffs_f)(x) + 3.0 * poly(coeffs_g)(x), 0.0, 1.0)
    assert abs(combined.value - (2 * rf.value + 3 * rg.value)) <= \
        combined.error + 2 * rf.error + 3 * rg.error + 1e-12


def test_nd_gaussian_normalization():
    r = integrate_nd(lambda p: np.exp(-p[:, 0] ** 2 - p[:, 1] ** 2) / math.pi,
                     [(-8.0, 8.0), (-8.0, 8.0)],
                     QuadratureSpec(rel_tol=1e-8))
    assert abs(r.value - 1.0) < 1e-6


def test_nd_empty_box():
    r = integrate_nd(lambda p: np.ones(len(p)), [(0.0, 1.0), (2.0, 2.0)])
    assert r.value == 0.0


def test_nd_slice_scaling_exponent():
    # corner-singular slice integral scales like h^(1/2 - p)
    p = 0.25
    vals = {}
    for h in (0.1, 0.05):
        def f(pts, _h=h):
            u, z = pts[:, 0], pts[:, 1]
            xi = u + z
            inside = xi < _h
            xi = np.where(inside, np.maximum(xi, 1e-300), 1.0)
            return np.where(inside, (xi ** -1.5 + (2.0 - xi) ** -1.5)
                            * xi ** -p, 0.0)
        spec = [QuadratureSpec(rel_tol=1e-7, substitution="power",
                               power=0.5 + p),
                QuadratureSpec(rel_tol=1e-7)]
        vals[h] = integrate_nd(f, [(0.0, h), (0.0, h)], spec).value
    measured = math.log2(vals[0.1] / vals[0.05])
    assert abs(measured - (0.5 - p)) < 0.02 * (0.5 - p)


def test_mc_constant_ratio_zero_variance():
    sampler = BoxSampler([0.0], [2.0])
    v, se = mc_integrate(lambda p: np.full(len(p), 0.5), sampler,
                         MCSpec(2000, seed=1))
    assert abs(v - 1.0) < 1e-12 and se < 1e-12


def test_mc_gaussian_3d():
    sampler = GaussianSampler([0.0, 0.0, 0.0], 1.6)
    target = (4.0 * math.pi) ** 1.5  # normalization of exp(-|x|^2/4) in R^3
    v, se = mc_integrate(lambda p: np.exp(-np.sum(p * p, axis=1) / 4.0),
                         sampler, MCSpec(100_000, seed=11))
    assert abs(v - target) < 3.0 * se


def test_mc_determinism():
    sampler = GaussianSampler([0.0], 1.0)
    spec = MCSpec(5000, seed=42)
    a = mc_integrate(lambda p: np.cos(p[:, 0]), sampler, spec)
    b = mc_integrate(lambda p: np.cos(p[:, 0]), sampler, spec)
    assert a == b


def test_mc_cross_check_with_nd():
    def f(p):
        return np.exp(-p[:, 0] ** 2 - 0.5 * p[:, 1] ** 2)
    exact = integrate_nd(f, [(-7.0, 7.0), (-9.0, 9.0)],
                         QuadratureSpec(rel_tol=1e-9))
    v, se = mc_integrate(f, GaussianSampler([0.0, 0.0], 1.5),
                         MCSpec(200_000, seed=5))
    assert abs(v - exact.value) < 3.0 * se + exact.error


class _DeadSampler(BoxSampler):
    """Proposal whose density vanishes everywhere the integrand lives."""

    def pdf(self, pts):
        return np.zeros(len(pts))


def test_mc_rejects_unsupported_sampler():
    with pytest.raises(ValueError):
        mc_integrate(lambda p: np.ones(len(p)),
                     _DeadSampler([0.0], [1.0]), MCSpec(100, seed=0))


def test_gauss_legendre_rule_polynomial_exactness():
    x, w = gauss_legendre_rule(0.0, 2.0, 8)
    assert abs(np.sum(w * x ** 5) - 2.0 ** 6 / 6) < 1e-12


def test_gauss_legendre_rule_matches_mapped_leggauss_bitwise():
    for a, b, n in ((0.0, 1.0, 32), (-1.0, 1.0, 64), (-1.0, 1.0, 7),
                    (0.0, 0.5 * math.pi, 24), (-3.5, 2.25, 9)):
        base_x, base_w = np.polynomial.legendre.leggauss(n)
        h = 0.5 * (b - a)
        for _ in range(2):          # the second call reads the cached rule
            x, w = gauss_legendre_rule(a, b, n)
            assert x.tobytes() == (0.5 * (a + b) + h * base_x).tobytes()
            assert w.tobytes() == (h * base_w).tobytes()


def test_gauss_legendre_rule_computes_each_size_once(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    for a, b in ((0.0, 1.0), (-2.0, 3.0), (0.0, 1.0)):
        gauss_legendre_rule(a, b, 41)
    assert calls.count(41) <= 1


def test_gauss_legendre_rule_returns_fresh_arrays():
    x, w = gauss_legendre_rule(-1.0, 1.0, 12)
    x_ref, w_ref = x.copy(), w.copy()
    x[:] = 0.0
    w *= 2.0
    x2, w2 = gauss_legendre_rule(-1.0, 1.0, 12)
    assert x2.tobytes() == x_ref.tobytes()
    assert w2.tobytes() == w_ref.tobytes()
