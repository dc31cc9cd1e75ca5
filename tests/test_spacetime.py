import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kpert import spacetime as st
from kpert.errors import PreconditionError
from kpert.measures import (Atom, ConstDensity, CornerPowerDensity,
                            PerturbingMeasure, PowerLawSpaceDensity,
                            ZERO_MEASURE)
from kpert.quadrature import QuadratureSpec, gauss_legendre_rule, integrate_1d

INV_SQRT_4PI = (4.0 * math.pi) ** -0.5


# -- densities -----------------------------------------------------------------

def test_gaussian_point_values():
    assert st.gaussian_density(1.0, 0.0, 0.5, 0.0) == 0.0    # causality
    assert st.gaussian_density(1.0, 0.0, 1.0, 0.0) == 0.0
    assert st.gaussian_density(0, 0.0, 1, 0.0) == pytest.approx(INV_SQRT_4PI,
                                                                rel=1e-15)


def test_gaussian_normalization_by_quadrature():
    for s, x, t in ((0.0, 0.3, 1.0), (0.2, -1.0, 0.7), (-1.0, 2.0, 2.5)):
        r = integrate_1d(lambda z: st.gaussian_density(s, x, t, z),
                         -np.inf, np.inf, QuadratureSpec(rel_tol=1e-10))
        assert abs(r.value - 1.0) < 1e-8


def test_cauchy_normalizer_d1():
    assert st.cauchy_kernel(1).c_d == pytest.approx(1.0 / math.pi, rel=1e-10)


def test_cauchy_normalization_by_quadrature():
    r = integrate_1d(lambda z: st.cauchy_density(0.0, 0.4, 1.2, z),
                     -np.inf, np.inf, QuadratureSpec(rel_tol=1e-10))
    assert abs(r.value - 1.0) < 1e-8


def test_cauchy_power_asymptotics():
    # density comparable to (t-s)/|y-x|^(d+1) ^ (t-s)^-d over a sample
    rng = np.random.default_rng(0)
    s = np.zeros(500)
    t = rng.uniform(0.1, 2.0, 500)
    x = rng.uniform(-3, 3, 500)
    y = rng.uniform(-3, 3, 500)
    p = st.cauchy_density(s, x, t, y)
    comp = np.minimum((t - s) / np.maximum(np.abs(y - x), 1e-12) ** 2,
                      (t - s) ** -1.0)
    ratio = p / comp
    assert np.all(ratio > 1e-2) and np.all(ratio < 1e2)


def test_causality_grid():
    rng = np.random.default_rng(1)
    s, t = rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200)
    x, y = rng.uniform(-2, 2, 200), rng.uniform(-2, 2, 200)
    for ker in (st.gaussian_kernel(1), st.cauchy_kernel(1), st.KAPPA):
        vals = ker(np.maximum(s, t), x, np.minimum(s, t), y)
        assert np.all(vals == 0.0)
        assert np.all(ker(s, x, t, y) >= 0.0)


def test_subordinator_density_values():
    assert float(st.stable_subordinator_density(1.0, -0.5)) == 0.0
    assert float(st.stable_subordinator_density(1.0, 1.0)) == pytest.approx(
        INV_SQRT_4PI * math.exp(-0.25), rel=1e-14)
    with pytest.raises(ValueError):
        st.stable_subordinator_density(0.0, 1.0)


def test_subordinator_laplace_transform_grid():
    for u in (0.5, 1.0, 2.0):
        r = integrate_1d(lambda z: st.stable_subordinator_density(1.0, z)
                         * np.exp(-u * z), 0.0, np.inf,
                         QuadratureSpec(rel_tol=1e-10))
        assert abs(r.value - math.exp(-math.sqrt(u))) < 1e-6


def test_stable_potential_values():
    assert float(st.stable_potential_kernel(1.0, 0.5, 0.2)) == 0.0
    assert float(st.stable_potential_kernel(1.0, 0.0, 1.0)) == pytest.approx(
        math.pi ** -0.5, rel=1e-14)
    with pytest.raises(ValueError):
        st.stable_potential_kernel(2.0, 0.0, 1.0)


def test_potential_equals_time_integral_of_density():
    # the 1/2-stable density integrates in time to the potential with
    # exponent alpha/2 - 1 = -1/2
    r = integrate_1d(lambda t: st.stable_subordinator_density(t, 1.0),
                     0.0, np.inf, QuadratureSpec(rel_tol=1e-10))
    assert abs(r.value - float(st.stable_potential_kernel(1.0, 0.0, 1.0))) \
        < 1e-4


def test_kappa_values_and_time_integral():
    assert float(st.kappa(0, 0, 1, 1)) == pytest.approx(0.09973557010035818,
                                                        rel=1e-13)
    assert float(st.kappa(0, 0, 0.5, -0.1)) == 0.0
    assert float(st.kappa(0.5, 0, 0.5, 1)) == 0.0
    for sx in ((1.0, 1.0), (0.5, 2.0), (0.2, 0.3)):
        r = integrate_1d(lambda t: st.stable_subordinator_density(t, sx[0])
                         * st.stable_subordinator_density(t, sx[1]),
                         0.0, np.inf, QuadratureSpec(rel_tol=1e-10))
        assert abs(r.value - float(st.kappa_density(sx[0], sx[1]))) < 1e-6


def test_registry():
    assert st.resolve_kernel("gaussian", 2).dim == 2
    assert st.resolve_kernel("cauchy").name == "cauchy"
    assert st.resolve_kernel("kappa") is st.KAPPA
    for name in ("heat", "stable-potential:1.0"):
        with pytest.raises(ValueError):
            st.resolve_kernel(name)


# -- composition identity --------------------------------------------------------

def test_ck_gaussian():
    r = st.check_chapman_kolmogorov(st.gaussian_kernel(1), 0, 0.0, 0.5, 1, 0.0)
    assert r.residual <= 1e-6


def test_ck_cauchy_random():
    rng = np.random.default_rng(4)
    for _ in range(5):
        s, u, t = np.sort(rng.uniform(0, 1.5, 3))
        if u - s < 1e-3 or t - u < 1e-3:
            continue
        x, y = rng.uniform(-2, 2, 2)
        r = st.check_chapman_kolmogorov(st.cauchy_kernel(1), s, x, u, t, y)
        assert r.residual <= 1e-5


def test_ck_rejects_bad_ordering():
    with pytest.raises(ValueError):
        st.check_chapman_kolmogorov(st.gaussian_kernel(1), 0.5, 0, 0.2, 1, 0)


# -- comparison inequalities ------------------------------------------------------

def test_3g_midpoint_equality():
    chk = st.check_3g(0.0, 0.0, 0.5, 0.5, 1.0, 1.0)
    assert abs(float(chk.ratio) - st.TWO_SQRT2) < 1e-12
    assert bool(chk.lower_ok) and bool(chk.upper_ok)


def test_3g_near_corner_limit():
    chk = st.check_3g(0.0, 0.0, 1e-3, 1e-3, 1.0, 1.0)
    assert abs(float(chk.ratio) - 1.0) < 5e-3


def test_3g_random_sample_in_range():
    rng = np.random.default_rng(9)
    times = np.sort(rng.uniform(0, 2, size=(20_000, 3)), axis=1)
    space = np.sort(rng.uniform(-1, 2, size=(20_000, 3)), axis=1)
    ok = (np.diff(times, axis=1) > 0).all(axis=1) & \
         (np.diff(space, axis=1) > 0).all(axis=1)
    times, space = times[ok], space[ok]
    chk = st.check_3g(times[:, 0], space[:, 0], times[:, 1], space[:, 1],
                      times[:, 2], space[:, 2])
    assert np.all(chk.ratio >= 1.0 - 1e-12)
    assert np.all(chk.ratio <= st.TWO_SQRT2 * (1 + 1e-12))
    assert np.all(chk.product_upper_ok) and np.all(chk.product_lower_ok)


def test_3g_rejects_unordered():
    with pytest.raises(ValueError):
        st.check_3g(0.0, 0.0, 1.5, 0.5, 1.0, 1.0)


def test_3p_conventions_and_stability():
    assert float(st.check_3p_cauchy(1.0, 0.0, 0.5, 0.0, 0.5, 0.0)) == 0.0
    m1, _ = st.scan_3p_constant(1, 20_000, seed=3)
    m2, _ = st.scan_3p_constant(1, 40_000, seed=3)
    assert m2 <= m1 * 1.25 + 0.5    # stable under doubling
    assert math.isfinite(m2)


def test_5p_bounded_by_3p():
    # product form never exceeds the min form constant
    rng = np.random.default_rng(12)
    s = rng.uniform(0, 1, 500)
    u = s + rng.uniform(0.01, 1, 500)
    t = u + rng.uniform(0.01, 1, 500)
    x, z, y = (rng.uniform(-2, 2, 500) for _ in range(3))
    r5 = st.five_p_ratio(s, x, u, z, t, y)
    r3 = st.check_3p_cauchy(s, x, u, z, t, y)
    assert np.all(r5 <= r3 + 1e-12)


# -- Weyl derivative ---------------------------------------------------------------

def test_weyl_constant_is_zero():
    v = st.weyl_half_derivative(lambda x: np.ones_like(np.asarray(x, float)),
                                1.0, dphi=lambda x: np.zeros_like(
                                    np.asarray(x, float)))
    assert abs(v) < 1e-12


def test_weyl_exponential_fixed_point():
    for x in np.linspace(0.0, 5.0, 11):
        v = st.weyl_half_derivative(lambda z: np.exp(-z), float(x),
                                    dphi=lambda z: -np.exp(-z))
        assert abs(v + math.exp(-x)) < 1e-6


def test_weyl_forms_agree_on_bump():
    b = st.Bump1D(1.5, 0.5)
    for x in (0.7, 1.2, 1.5, 1.9):
        d1 = st.weyl_half_derivative(b, x, dphi=b.deriv)
        d2 = st.weyl_half_derivative(b, x, form="difference")
        assert abs(d1 - d2) < 1e-5
        assert abs(d1 - float(st.weyl_of_bump(b, x)[0])) < 1e-7


def test_weyl_semigroup_generator():
    # d/dt of the subordinator average at t=0+ matches the half derivative
    b = st.Bump1D(1.5, 0.5)
    x = 1.2
    eps = 1e-5

    def averaged(tt):
        r = integrate_1d(lambda z: b(x + z)
                         * st.stable_subordinator_density(tt, z),
                         0.0, np.inf, QuadratureSpec(rel_tol=1e-10))
        return r.value
    slope = (averaged(eps) - b(x)) / eps
    assert abs(slope - st.weyl_half_derivative(b, x, dphi=b.deriv)) < 1e-3


# -- left-inverse residuals -----------------------------------------------------

def test_left_inverse_trivial_support():
    b = st.Bump1D(-1.5, 0.5)      # support entirely behind the cone tip
    res, err = st.left_inverse_residual(0.0, 0.0, b, b)
    assert res == 0.0 and err == 0.0


def test_left_inverse_unperturbed():
    b = st.Bump1D(1.5, 0.5)
    res, err = st.left_inverse_residual(0.0, 0.0, b, b)
    assert res <= 5e-3
    res_in, _ = st.left_inverse_residual(1.2, 1.3, b, b)
    assert res_in <= 5e-3


def test_left_inverse_perturbed():
    b = st.Bump1D(1.5, 0.5)
    q = CornerPowerDensity(0.05, 0.25)
    res, err = st.left_inverse_residual(0.0, 0.0, b, b, q=q, perturbed=True)
    assert res <= 1e-2
    res_in, _ = st.left_inverse_residual(1.2, 1.3, b, b, q=q, perturbed=True)
    assert res_in <= 1e-2


# -- window modulus ---------------------------------------------------------------

def test_kato_zero_measure():
    r = st.kato_modulus(st.cauchy_kernel(1), ZERO_MEASURE, 0.5, n_samples=4)
    assert r.value == 0.0


def test_kato_lebesgue_exact():
    mu = PerturbingMeasure(ConstDensity(1.0))
    for h in (0.1, 0.5, 1.0):
        r = st.kato_modulus(st.cauchy_kernel(1), mu, h, n_samples=8, seed=0)
        assert abs(r.value - 2.0 * h) < 1e-4
        assert r.samples == 8


# The per-time-node loop kato_inner_integral ran before it evaluated each
# piece in one broadcast: one peak rule, one kernel call and one reduction
# per node.  The broadcast must reproduce it bit for bit.

def _peak_rule_1d_scalar(center, scale, n=64):
    th, w = gauss_legendre_rule(0.0, 0.5 * math.pi, n // 2)
    zp = scale * np.tan(th)
    wp = w * scale / np.cos(th) ** 2
    z = center + np.concatenate([-zp[::-1], zp])
    return z, np.concatenate([wp[::-1], wp])


def _peak_rule_2d_scalar(center, scale, n_theta=48, n_phi=16):
    th, wt = gauss_legendre_rule(0.0, 0.5 * math.pi, n_theta)
    ph, wp = gauss_legendre_rule(0.0, 2.0 * math.pi, n_phi)
    r = scale * np.tan(th)
    dr = wt * scale / np.cos(th) ** 2
    R, PH = np.meshgrid(r, ph, indexing="ij")
    DR, WP = np.meshgrid(dr, wp, indexing="ij")
    pts = np.stack([np.asarray(center)[0] + (R * np.cos(PH)).ravel(),
                    np.asarray(center)[1] + (R * np.sin(PH)).ravel()], axis=1)
    return pts, (R * DR * WP).ravel()


def _factor_at(kernel, s, x, u, t, y, first):
    end = x if first else y
    scale = max(float(kernel.peak_scale((u - s) if first else (t - u))),
                1e-300)
    if kernel.dim == 1:
        z, w = _peak_rule_1d_scalar(float(end), scale)
        ends = np.full(len(w), float(end))
    else:
        z, w = _peak_rule_2d_scalar(end, scale)
        ends = np.tile(np.asarray(end, dtype=float), (len(w), 1))
    uu = np.full(len(w), u)
    vals = kernel(s, ends, uu, z) if first else kernel(uu, z, t, ends)
    return uu, z, vals, w


def _kato_inner_per_node(kernel, mu, s, x, t, y, time_nodes=32):
    xi, wt = gauss_legendre_rule(0.0, 1.0, time_nodes)

    def piece(first):
        u = s + (t - s) * xi ** 2 if first else t - (t - s) * xi ** 2
        du = wt * 2.0 * xi * (t - s)
        vals = []
        for ui in u:
            uu, z, v, w = _factor_at(kernel, s, x, ui, t, y, first)
            vals.append(float(np.sum(v * mu.q(uu, z) * w)))
        return float(np.array(vals) @ du)

    total = 0.0
    if mu.density is not None:
        total = piece(True) + piece(False)
    for atom in mu.active_atoms():
        if s < atom.time < t:
            for first in (True, False):
                _, _, v, w = _factor_at(kernel, s, x, atom.time, t, y, first)
                total += atom.weight * float(np.sum(v * w))
    return total


@pytest.mark.parametrize("name", ["gaussian", "cauchy"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("density", ["const", "power"])
def test_kato_inner_broadcast_matches_per_node_loop(name, d, density):
    kernel = st.resolve_kernel(name, d)
    q = ConstDensity(0.7, d) if density == "const" else \
        PowerLawSpaceDensity(0.4, d)
    rng = np.random.default_rng([d, len(name), len(density)])
    for _ in range(3):
        s = rng.uniform(-0.5, 0.5)
        t = s + rng.uniform(0.05, 1.2)
        x, y = rng.uniform(-2.0, 2.0, size=(2, d)) if d > 1 else \
            rng.uniform(-2.0, 2.0, size=2)
        atom = Atom(rng.uniform(s, t), 0.3)
        for mu in (PerturbingMeasure(q), PerturbingMeasure(q, (atom,))):
            got = st.kato_inner_integral(kernel, mu, s, x, t, y)
            want = _kato_inner_per_node(kernel, mu, s, x, t, y)
            assert got.hex() == want.hex()


def test_kato_profile_monotone():
    mu = PerturbingMeasure(PowerLawSpaceDensity(0.5, dim=2))
    prof = st.kato_profile(st.cauchy_kernel(2), mu, [1.0, 0.5],
                           n_samples=8, seed=0)
    assert prof[1.0] > prof[0.5] > 0.0


@pytest.mark.parametrize("windows", [[], [0.5, -0.25], [0.0], [math.nan],
                                     [math.inf]])
def test_kato_profile_rejects_bad_windows(windows):
    # [] ended in an IndexError and [0.0] returned k(0) = 0.0
    mu = PerturbingMeasure(PowerLawSpaceDensity(0.5, dim=1))
    with pytest.raises(ValueError, match="finite and positive"):
        st.kato_profile(st.cauchy_kernel(1), mu, windows, n_samples=4)


# -- two-subordinator slice constants -----------------------------------------------

def test_eta_for_kappa_beta_values():
    # B(1/4, 1) = 4 makes the p = 1/4 value easy to pin
    val = st.eta_for_kappa(1.0, 0.25, 1.0)
    expected = 2.0 * math.sqrt(2.0) * (4.0 + 2.3962804694711837)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val == pytest.approx(18.09141317733659, rel=1e-12)
    with pytest.raises(ValueError):
        st.eta_for_kappa(1.0, 0.75, 1.0)


def test_solve_h_inverts():
    for c, p, target in ((1.0, 0.25, 0.5), (0.05, 0.1, 0.5), (0.2, 0.3, 0.9)):
        h = st.solve_h(c, p, target)
        assert st.eta_for_kappa(c, p, h) == pytest.approx(target, rel=1e-12)


def test_kappa_slice_ratio_below_closed_form():
    c, p = 0.05, 0.1
    h = st.solve_h(c, p, 0.5)
    bound = st.eta_for_kappa(c, p, h)
    rng = np.random.default_rng(2)
    a_lo = h
    a_hi = 2 * h
    for _ in range(25):
        s = rng.uniform(0, 0.99)
        x = rng.uniform(0, 0.99)
        r = st.kappa_slice_ratio(s, x, 1.0, 1.0, a_lo, a_hi, c, p)
        assert 0.0 <= r <= bound


def test_kappa_slice_ratio_zero_off_support():
    assert st.kappa_slice_ratio(1.5, 0.0, 1.0, 1.0, 0.0, 0.5, 0.05, 0.1) == 0.0
