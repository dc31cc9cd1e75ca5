import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kpert.quadrature import (Halton, QuadratureSpec, gauss_legendre_rule,
                              integrate_1d, integrate_nd, peak_rule)
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


def test_nd_rejects_more_than_four_dimensions():
    with pytest.raises(ValueError):
        integrate_nd(lambda p: np.ones(len(p)), [(0.0, 1.0)] * 5)


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


# -- the peak rule ---------------------------------------------------------------
# Test-local copies of the tan rules peak_rule replaced; the series
# engine's unit rule is the tan(theta), w / cos(theta)**2 pair checked
# further down.  Each copy takes n nodes per half-axis (its former callers
# passed 2 n).

def _old_tan_rule(n_full):
    th, w = gauss_legendre_rule(0.0, 0.5 * math.pi, max(n_full // 2, 4))
    return np.concatenate([-th[::-1], th]), np.concatenate([w[::-1], w])


def _old_chain_rule(center, scale, n):
    """_tan_rule plus the ``rule`` closure of perturbation._chain_value."""
    th, tw = _old_tan_rule(2 * n)
    scale = max(float(scale), 1e-300)
    return (center + scale * np.tan(th), scale * tw / np.cos(th) ** 2)


def _old_alt_atom_rule(x, scale, n):
    """The inline rule of perturbation.alt_atom_kernel_apply."""
    th, tw = _old_tan_rule(2 * n)
    scale = max(float(scale), 1e-300)
    z = x + scale * np.tan(th)
    w = scale * tw / np.cos(th) ** 2
    return z, w


def _old_peak_bridge(center, scale, n):
    """perturbation._peak_bridge once the narrower factor is chosen."""
    theta, theta_w = _old_tan_rule(2 * n)
    scale = max(scale, 1e-300)
    zp = center + scale * np.tan(theta)
    wp = scale * theta_w / np.cos(theta) ** 2
    return zp, wp


def _old_peak_rule_1d(center, scale, n):
    """spacetime._peak_rule_1d after the floor its caller applied."""
    th, w = gauss_legendre_rule(0.0, 0.5 * math.pi, n)
    scale = np.asarray(np.maximum(scale, 1e-300), dtype=float)[..., None]
    zp = scale * np.tan(th)
    wp = w * scale / np.cos(th) ** 2
    z = center + np.concatenate([-zp[..., ::-1], zp], axis=-1)
    return z, np.concatenate([wp[..., ::-1], wp], axis=-1)


PEAK_NODES = (4, 16, 24, 32, 48)
PEAK_SCALES = (0.0, 1e-3, 0.37, 1.0, 5.5)


def _same_bits(got, want):
    assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("old", [_old_chain_rule, _old_alt_atom_rule,
                                 _old_peak_bridge, _old_peak_rule_1d])
@pytest.mark.parametrize("n", PEAK_NODES)
def test_peak_rule_matches_the_rules_it_replaced_bitwise(old, n):
    for center in (0.0, 0.3, -2.5):
        for scale in PEAK_SCALES:
            _same_bits(peak_rule(center, scale, n), old(center, scale, n))


@pytest.mark.parametrize("n", PEAK_NODES)
def test_peak_rule_array_scale_gives_one_rule_per_entry(n):
    scales = np.array([[0.0, 1e-3, 0.37], [1.0, 5.5, 2.0]])
    z, w = peak_rule(0.3, scales, n)
    assert z.shape == w.shape == scales.shape + (2 * n,)
    _same_bits((z, w), _old_peak_rule_1d(0.3, scales, n))
    for idx in np.ndindex(scales.shape):
        _same_bits((z[idx], w[idx]), peak_rule(0.3, scales[idx], n))


@pytest.mark.parametrize("n", PEAK_NODES)
def test_unit_peak_rule_is_tan_and_weight_over_cos_squared(n):
    th, w = gauss_legendre_rule(0.0, 0.5 * math.pi, n)
    theta = np.concatenate([-th[::-1], th])
    w_full = np.concatenate([w[::-1], w])
    _same_bits(peak_rule(0.0, 1.0, n),
               (np.tan(theta), w_full / np.cos(theta) ** 2))


def test_peak_rule_integrates_a_cauchy_peak_exactly():
    for center, scale in ((0.0, 1.0), (1.5, 0.02), (-3.0, 40.0)):
        z, w = peak_rule(center, scale, 16)
        dens = scale / (math.pi * (scale ** 2 + (z - center) ** 2))
        assert abs(np.sum(dens * w) - 1.0) < 1e-13


# The sampler must give SciPy's scrambled Halton points bit for bit: every
# certificate, Kato ladder and golden hash was recorded with them.
@pytest.mark.parametrize("seed", [0, 1, 977, 2 ** 31 - 1, 2 ** 40])
@pytest.mark.parametrize("d", [2, 3, 5, 6, 9])
def test_halton_matches_scipy_bit_for_bit(d, seed):
    from scipy.stats import qmc
    ours = Halton(d, seed)
    ref = qmc.Halton(d=d, scramble=True, seed=seed)
    for n in (1, 7, 13, 32, 96, 5000):     # successive draws continue
        assert np.array_equal(ours.random(n), ref.random(n))


def test_halton_large_draw_matches_scipy():
    from scipy.stats import qmc
    ref = qmc.Halton(d=9, scramble=True, seed=5).random(20_000)
    assert np.array_equal(Halton(9, 5).random(20_000), ref)


def test_halton_points_in_unit_cube():
    pts = Halton(3, 2).random(500)
    assert pts.shape == (500, 3)
    assert ((pts >= 0.0) & (pts < 1.0)).all()
    assert Halton(2, 0).random(0).shape == (0, 2)


def test_halton_rejects_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        Halton(2, -1)


def test_cli_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter: this test process has loaded scipy.stats
    code = "import sys, kpert.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
