import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kpert import spacetime as st
from kpert.bounds import Interval
from kpert.errors import PreconditionError
from kpert.measures import (Atom, ConstDensity, CornerPowerDensity,
                            PerturbingMeasure, PowerLawSpaceDensity)
from kpert.quadrature import QuadratureSpec, integrate_1d

INV_SQRT_4PI = (4.0 * math.pi) ** -0.5


def subordinator_density(t, x):
    """(4 pi)**(-1/2) t x**(-3/2) exp(-t^2 / 4x), the density of the
    1/2-stable subordinator at time t > 0 (zero for x <= 0)."""
    x = np.asarray(x, dtype=float)
    x_safe = np.where(x > 0, x, 1.0)
    return np.where(x > 0, INV_SQRT_4PI * t * x_safe ** -1.5
                    * np.exp(-t * t / (4.0 * x_safe)), 0.0)


# -- densities -----------------------------------------------------------------

def test_gaussian_point_values():
    g = st.gaussian_kernel(1)
    assert g(1.0, 0.0, 0.5, 0.0) == 0.0    # causality
    assert g(1.0, 0.0, 1.0, 0.0) == 0.0
    assert g(0, 0.0, 1, 0.0) == pytest.approx(INV_SQRT_4PI, rel=1e-15)


def test_gaussian_normalization_by_quadrature():
    for s, x, t in ((0.0, 0.3, 1.0), (0.2, -1.0, 0.7), (-1.0, 2.0, 2.5)):
        r = integrate_1d(lambda z: st.gaussian_kernel(1)(s, x, t, z),
                         -np.inf, np.inf, QuadratureSpec(rel_tol=1e-10))
        assert abs(r.value - 1.0) < 1e-8


def test_gaussian_bridge_is_the_normal_density_of_the_kernel_product():
    # p(s, x, v, z) p(v, z, t, y) / p(s, x, t, y) is the Brownian-bridge
    # density in z: normal with the mean and scale bridge() gives
    g = st.gaussian_kernel(1)
    s, x, t, y = 0.1, -0.4, 1.3, 2.0
    v = np.array([0.2, 0.7, 1.25])
    z = np.linspace(-3.0, 5.0, 17)[:, None]
    mean, sd = g.bridge(s, x, v, t, y)
    want = g(s, x, v, z) * g(v, z, t, y) / g(s, x, t, y)
    got = np.exp(-0.5 * ((z - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-300)
    assert np.all(want > 0)


def test_cauchy_normalizer_d1():
    assert st.cauchy_kernel(1).c_d == pytest.approx(1.0 / math.pi, rel=1e-10)


def test_cauchy_normalization_by_quadrature():
    r = integrate_1d(lambda z: st.cauchy_kernel(1)(0.0, 0.4, 1.2, z),
                     -np.inf, np.inf, QuadratureSpec(rel_tol=1e-10))
    assert abs(r.value - 1.0) < 1e-8


def test_cauchy_power_asymptotics():
    # density comparable to (t-s)/|y-x|^(d+1) ^ (t-s)^-d over a sample
    rng = np.random.default_rng(0)
    s = np.zeros(500)
    t = rng.uniform(0.1, 2.0, 500)
    x = rng.uniform(-3, 3, 500)
    y = rng.uniform(-3, 3, 500)
    p = st.cauchy_kernel(1)(s, x, t, y)
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


def test_subordinator_laplace_transform_grid():
    for u in (0.5, 1.0, 2.0):
        r = integrate_1d(lambda z: subordinator_density(1.0, z)
                         * np.exp(-u * z), 0.0, np.inf,
                         QuadratureSpec(rel_tol=1e-10))
        assert abs(r.value - math.exp(-math.sqrt(u))) < 1e-6


def test_potential_equals_time_integral_of_density():
    # the 1/2-stable density integrates in time to the potential
    # Gamma(1/2)**-1 y**(-1/2), which is pi**(-1/2) at y = 1
    r = integrate_1d(lambda t: subordinator_density(t, 1.0),
                     0.0, np.inf, QuadratureSpec(rel_tol=1e-10))
    assert abs(r.value - math.pi ** -0.5) < 1e-4


def test_kappa_values_and_time_integral():
    assert float(st.KAPPA(0, 0, 1, 1)) == pytest.approx(0.09973557010035818,
                                                        rel=1e-13)
    assert float(st.KAPPA(0, 0, 0.5, -0.1)) == 0.0
    assert float(st.KAPPA(0.5, 0, 0.5, 1)) == 0.0
    for sx in ((1.0, 1.0), (0.5, 2.0), (0.2, 0.3)):
        r = integrate_1d(lambda t: subordinator_density(t, sx[0])
                         * subordinator_density(t, sx[1]),
                         0.0, np.inf, QuadratureSpec(rel_tol=1e-10))
        assert abs(r.value - float(st.KAPPA(0, 0, *sx))) < 1e-6


def test_registry():
    assert st.resolve_kernel("gaussian", 2).dim == 2
    assert st.resolve_kernel("cauchy").name == "cauchy"
    assert st.resolve_kernel("kappa") is st.KAPPA
    for name in ("heat", "stable-potential:1.0"):
        with pytest.raises(ValueError):
            st.resolve_kernel(name)


# -- column time operands ------------------------------------------------------

def _frozen_kernel(name, d):
    """The kernel formulas as written for operands of the full result
    shape: every factor at that shape, out of place, r2 negated."""
    c_d = st.cauchy_kernel(d).c_d

    def p(s, x, t, y):
        s, x, t, y = (np.asarray(a, dtype=float) for a in (s, x, t, y))
        if name == "kappa":
            ok = (t > s) & (y > x)
            w_safe = np.where(ok, (t - s) + (y - x), 1.0)
            return np.where(ok, INV_SQRT_4PI * w_safe ** -1.5, 0.0)
        dt = t - s
        r2 = (x - y) ** 2 if d == 1 else np.sum((x - y) ** 2, axis=-1)
        dt_safe = np.where(dt > 0, dt, 1.0)
        if name == "gaussian":
            val = (4.0 * math.pi * dt_safe) ** (-d / 2.0) * \
                np.exp(-r2 / (4.0 * dt_safe))
        else:
            val = c_d * dt_safe * (dt_safe ** 2 + r2) ** (-(d + 1) / 2.0)
        return np.where(dt > 0, val, 0.0)
    return p


def _materialised(d, args):
    """(s, x, t, y) with each operand broadcast to the result's shape (plus
    the trailing spatial axis in d >= 2)."""
    args = [np.asarray(a, dtype=float) for a in args]
    trail = (d,) if d > 1 else ()
    shape = np.broadcast_shapes(*(a.shape[:a.ndim - len(trail)] if i % 2
                                  else a.shape for i, a in enumerate(args)))
    return [np.broadcast_to(a, shape + (trail if i % 2 else ())).copy()
            for i, a in enumerate(args)]


@pytest.mark.bits
@pytest.mark.parametrize("name, d", [("gaussian", 1), ("gaussian", 2),
                                     ("cauchy", 1), ("cauchy", 2),
                                     ("kappa", 1)])
def test_kernel_column_operands_match_materialised_bits(name, d):
    kernel = st.resolve_kernel(name, d)
    frozen = _frozen_kernel(name, d)
    rng = np.random.default_rng([d, len(name)])

    def space(*shape):
        return rng.normal(size=shape + ((d,) if d > 1 else ()))

    # source time 0.3, target 1.0: the columns hold dt < 0, dt = 0 and
    # dt > 0 against each
    u0, t = 0.3, 1.0
    v = np.array([-0.2, 0.3, np.nextafter(0.3, 1.0), 0.45, 0.8, 1.0, 1.3])
    vc = v[:, None]
    y = space()
    cases = [
        (u0, space(4, 1, 1), vc, space(4, len(v), 6)),   # p(u0, z0, v, z')
        (u0, space(4, 1, 1), vc, space(1, len(v), 6)),   # z0-free group
        (vc, space(1, len(v), 6), t, y),                 # p(v, z', t, y)
        (vc, space(9), t, y),                            # a grid level
        (rng.uniform(-0.5, 1.5, (5, 9)), space(9), t, y),  # r2 narrower
        # every dt > 0, and for kappa every point inside the cone
        (u0, space(4, 1, 1) - 3.0, vc[3:5], space(4, 2, 6) + 3.0),
        (u0, space(), t, y), (t, space(), u0, y), (u0, space(), u0, y),
    ]
    for args in cases:
        full = _materialised(d, args)
        got = kernel(*args)
        want = kernel(*full)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert np.array_equal(got, frozen(*full))
    assert np.all(kernel(*cases[5]) > 0)


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


def _3p_ratio(s, x, u, z, t, y):
    """min(p(s,x,u,z), p(u,z,t,y)) / p(s,x,t,y), the Cauchy kernel in d = 1."""
    ker = st.cauchy_kernel(1)
    return np.minimum(ker(s, x, u, z), ker(u, z, t, y)) / ker(s, x, t, y)


def test_3p_constant_of_the_cauchy_kernel_is_two():
    assert st.CAUCHY_3P == 2.0
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(4):      # 10^6 tuples in four blocks
        s, u, t = np.sort(rng.uniform(-1.0, 2.0, size=(3, 250_000)), axis=0)
        x, z, y = rng.uniform(-3.0, 3.0, size=(3, 250_000))
        keep = (s < u) & (u < t)
        r = _3p_ratio(s[keep], x[keep], u[keep], z[keep], t[keep], y[keep])
        worst = max(worst, float(np.max(r)))
    assert worst <= st.CAUCHY_3P * (1 + 1e-12)
    assert worst > 1.99
    # the midpoint family u = (s + t) / 2, z = (x + y) / 2 attains it
    s, x = rng.uniform(-1.0, 1.0, size=(2, 1000))
    t, y = s + rng.uniform(1e-3, 3.0, 1000), rng.uniform(-3.0, 3.0, 1000)
    r = _3p_ratio(s, x, 0.5 * (s + t), 0.5 * (x + y), t, y)
    assert np.all(np.abs(r - st.CAUCHY_3P) <= 1e-12)


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
                         * subordinator_density(tt, z),
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
    res, err = st.left_inverse_residual(0.0, 0.0, b, b, q=q)
    assert res <= 1e-2
    res_in, _ = st.left_inverse_residual(1.2, 1.3, b, b, q=q)
    assert res_in <= 1e-2


# -- window modulus ---------------------------------------------------------------

def _kato_corner(name, d, eps, t):
    """int_0^t int [p(0,0,u,z) + p(u,z,t,0)] |z|^(eps-1) dz du in closed
    form.  With a = 1 - eps and c_d = E|N_d|^(-a) = 2^(-a/2)
    Gamma((d-a)/2) / Gamma(d/2), the Gaussian (variance 2u per coordinate)
    gives c_d (2u)^(-a/2) at each u; the Cauchy kernel, the Gaussian mixed
    over its Levy subordinator, gives c_d 2^(a/2) Gamma((1+a)/2) / sqrt(pi)
    u^(-a)."""
    a = 1.0 - eps
    c = 2.0 ** (-a / 2) * math.gamma((d - a) / 2) / math.gamma(d / 2)
    if name == "gaussian":
        return 2 * c * 2.0 ** (-a / 2) * t ** (1 - a / 2) / (1 - a / 2)
    return 2 * c * 2.0 ** (a / 2) * math.gamma((1 + a) / 2) \
        / math.sqrt(math.pi) * t ** (1 - a) / (1 - a)


# power eps with a finite k(h): every eps <= 1 above 1 - d, but Cauchy in
# d = 2 needs a = 1 - eps < 1
KATO_POWER_EPS = {(1, "gaussian"): (1.0, 0.8, 0.5, 0.2, 0.01),
                  (1, "cauchy"): (1.0, 0.8, 0.5, 0.2, 0.01),
                  (2, "gaussian"): (1.0, 0.5, 0.2, -0.5, -0.9),
                  (2, "cauchy"): (1.0, 0.8, 0.5, 0.2, 0.01)}


@pytest.mark.parametrize("d,name", sorted(KATO_POWER_EPS))
def test_kato_modulus_is_the_corner_closed_form(d, name):
    kernel = st.resolve_kernel(name, d)
    for h in (1.0, 0.25, 0.1, 1e-12, 1e12):
        mu = PerturbingMeasure(ConstDensity(0.7, d))
        assert st.kato_modulus(kernel, mu, h) == \
            pytest.approx(1.4 * h, rel=1e-12)
        for eps in KATO_POWER_EPS[d, name]:
            mu = PerturbingMeasure(PowerLawSpaceDensity(eps, d))
            assert st.kato_modulus(kernel, mu, h) == \
                pytest.approx(_kato_corner(name, d, eps, h), rel=1e-12)


@pytest.mark.parametrize("h,eps", [(1.0, 0.5), (0.25, 0.2), (0.1, 0.8)])
def test_kato_modulus_matches_scipy_for_the_gaussian(h, eps):
    # 2 int_0^h E q(X_u) du, X_u ~ N(0, 2u), with the expectation
    # 2 int_0^inf z^-a phi(z) dz taken by quad: an algebraic weight on
    # [0, sd] and a plain rule on [sd, inf)
    from scipy.integrate import quad
    a = 1.0 - eps

    def expect(u):
        sd = math.sqrt(2.0 * u)

        def phi(z):
            return math.exp(-z * z / (4.0 * u)) / math.sqrt(4.0 * math.pi * u)
        near = quad(phi, 0.0, sd, weight="alg", wvar=(-a, 0.0),
                    epsabs=0.0, epsrel=1e-13)[0]
        far = quad(lambda z: z ** -a * phi(z), sd, math.inf,
                   epsabs=0.0, epsrel=1e-13)[0]
        return 2.0 * (near + far)

    want = 2.0 * quad(expect, 0.0, h, epsabs=0.0, epsrel=1e-12,
                      limit=200)[0]
    mu = PerturbingMeasure(PowerLawSpaceDensity(eps, 1))
    got = st.kato_modulus(st.gaussian_kernel(1), mu, h)
    assert got == pytest.approx(want, rel=1e-12)


def _radial_moment(kernel, a):
    """E|X_1|^-a for X_1 ~ p(0, 0, 1, .), kpert's own kernel, by one scipy
    quad of its radial density: 2 p(0,0,1,r) in d = 1, 2 pi r
    p(0,0,1,(r,0)) in d = 2, against the algebraic weight r^-a on [0, 1]
    and with a plain rule on [1, inf).  a = 0 gives the kernel's mass."""
    from scipy.integrate import quad
    if kernel.dim == 1:
        def radial(r):
            return 2.0 * float(kernel(0.0, 0.0, 1.0, r))
    else:
        def radial(r):
            return 2.0 * math.pi * r * float(
                kernel(0.0, np.zeros(2), 1.0, np.array([r, 0.0])))
    near = quad(radial, 0.0, 1.0, weight="alg", wvar=(-a, 0.0),
                epsabs=0.0, epsrel=1e-13)[0]
    far = quad(lambda r: r ** -a * radial(r), 1.0, math.inf,
               epsabs=0.0, epsrel=1e-13)[0]
    return near + far


@pytest.mark.parametrize("d,name", sorted(KATO_POWER_EPS))
def test_kato_modulus_matches_scipy_moments(d, name):
    # at the corner x = y = 0, s = 0, t = h, self-similarity gives
    # E q(X_u) = u^-b E q(X_1), b = a/2 (Gaussian) or a (Cauchy), so
    # k(h) = int_0^h [E q(X_u) + E q(X_(h-u))] du = 2 h^(1-b) / (1-b)
    # E q(X_1); const lambda and an atom eta read the kernel's mass
    kernel = st.resolve_kernel(name, d)
    mass = _radial_moment(kernel, 0.0)
    moments = {eps: _radial_moment(kernel, 1.0 - eps)
               for eps in (0.8, 0.5, 0.2)}
    for h in (1.0, 0.25):
        mu = PerturbingMeasure(ConstDensity(0.7, d))
        assert st.kato_modulus(kernel, mu, h) == \
            pytest.approx(2.0 * 0.7 * h * mass, rel=1e-12)
        mu = PerturbingMeasure(atoms=(Atom(0.1, 0.3),))
        assert st.kato_modulus(kernel, mu, h) == \
            pytest.approx(2.0 * 0.3 * mass, rel=1e-12)
        for eps, moment in moments.items():
            a = 1.0 - eps
            b = a / 2 if name == "gaussian" else a
            mu = PerturbingMeasure(PowerLawSpaceDensity(eps, d))
            assert st.kato_modulus(kernel, mu, h) == pytest.approx(
                2.0 * h ** (1 - b) / (1 - b) * moment, rel=1e-12), (h, eps)


def test_kato_modulus_time_support_and_growing_densities():
    g = st.gaussian_kernel(1)
    lam = PerturbingMeasure(ConstDensity(1.0), time_support=Interval(0.5, 1.0))
    assert [st.kato_modulus(g, lam, h) for h in (1.0, 0.5, 0.25)] == \
        [1.0, 1.0, 0.5]
    # the window (0.5, 1.0) attains it: twice lambda (1 - 0.5) times the
    # kernel's mass
    assert st.kato_modulus(g, lam, 0.5) == \
        pytest.approx(2.0 * 0.5 * _radial_moment(g, 0.0), rel=1e-12)
    # a support shorter than h: the corner value at L bounds k(h)
    power = PerturbingMeasure(PowerLawSpaceDensity(0.5),
                              time_support=Interval(0.0, 0.25))
    assert st.kato_modulus(g, power, 1.0) == \
        pytest.approx(_kato_corner("gaussian", 1, 0.5, 0.25), rel=1e-12)
    # q grows when eps > 1, and the Cauchy time integral of r^-a diverges
    # for a >= 1
    for kernel, eps in ((g, 2.0), (st.gaussian_kernel(2), 1.5),
                        (st.cauchy_kernel(2), 0.0),
                        (st.cauchy_kernel(2), -0.5)):
        mu = PerturbingMeasure(PowerLawSpaceDensity(eps, kernel.dim))
        assert st.kato_modulus(kernel, mu, 0.125) == math.inf, (kernel, eps)


def test_kato_modulus_atoms_in_one_open_window():
    g = st.gaussian_kernel(1)
    mu = PerturbingMeasure(ConstDensity(0.5), (Atom(0.3, 0.4),))
    assert st.kato_modulus(g, mu, 0.25) == pytest.approx(1.05, abs=1e-12)
    # the window (0.2, 0.45) holds the atom: 2 (0.5 x 0.25 + 0.4) times
    # the kernel's mass
    assert st.kato_modulus(g, mu, 0.25) == \
        pytest.approx(2.0 * (0.5 * 0.25 + 0.4) * _radial_moment(g, 0.0),
                      rel=1e-12)
    # atoms exactly h apart share no open window (s < u < t); a hair
    # wider, they do
    two = PerturbingMeasure(atoms=(Atom(0.25, 0.3), Atom(0.5, 0.2)))
    assert st.kato_modulus(g, two, 0.25) == 0.6
    assert st.kato_modulus(g, two, math.nextafter(0.25, 1.0)) == 1.0
    # an atom at the support's upper end is outside it, one at its lower
    # end inside (half-open [lo, hi))
    three = PerturbingMeasure(atoms=(Atom(0.0, 0.1), Atom(0.1, 0.2),
                                     Atom(1.0, 0.9)),
                              time_support=Interval(0.0, 1.0))
    assert st.kato_modulus(g, three, 2.0) == pytest.approx(0.6, abs=1e-15)
    assert st.kato_modulus(g, three, 0.1) == pytest.approx(0.4, abs=1e-15)


def test_kato_modulus_rejects_what_it_has_no_closed_form_for():
    mu = PerturbingMeasure(CornerPowerDensity(0.1, 0.25))
    with pytest.raises(ValueError, match="density kind 'q0'"):
        st.kato_modulus(st.gaussian_kernel(1), mu, 0.5)
    with pytest.raises(ValueError, match="kernel 'kappa'"):
        st.kato_modulus(st.KAPPA, PerturbingMeasure(ConstDensity(1.0)), 0.5)
    for h in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            st.kato_modulus(st.cauchy_kernel(1),
                            PerturbingMeasure(ConstDensity(1.0)), h)


@pytest.mark.bits
def test_plane_distance_and_power_density_match_the_sum_forms():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 1, 2))
    z = rng.normal(size=(5, 40, 2))
    z[0, :3] = x[0, 0]                  # zero distance
    z[1, :3] = 0.0                      # the density's singular point
    want = np.sum((x - z) ** 2, axis=-1)
    assert st._sqdist(x, z, 2).tobytes() == want.tobytes()
    assert st._sqdist(x[0, 0], z[0, 0], 2) == 0.0
    r = np.sqrt(np.sum(z * z, axis=-1))
    u = np.zeros((5, 1))
    for eps in (-0.5, 0.4, 1.0, 1.5):
        base = np.where(r > 0, r, np.inf) if eps < 1 else r
        got = PowerLawSpaceDensity(eps, 2)(u, z)
        assert got.tobytes() == (base ** (eps - 1.0)).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_power_density_at_the_origin(d):
    # q(0) = |0|**(eps - 1) for eps >= 1; eps < 1 drops the singular point
    zero = 0.0 if d == 1 else np.zeros(d)
    at_zero = {eps: float(PowerLawSpaceDensity(eps, d)(0.0, zero))
               for eps in (0.5, 1.0, 1.5, 3.0)}
    assert at_zero == {0.5: 0.0, 1.0: 1.0, 1.5: 0.0, 3.0: 0.0}


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


def test_beta_constants_match_scipy():
    # B(1/2 - p, 1) + B(1/2, 1 - p) once came from scipy.special.beta.
    # On this grid each side lies within about 4 ulp of the exact sum
    # (4.0 and 3.9 against 40-digit values), so the two may differ by 8;
    # solve_h raises the sum to the power 1 / (1/2 - p), which scales
    # that difference.
    from scipy.special import beta
    eps = np.finfo(float).eps
    checked = 0
    for p in np.linspace(0.001, 0.499, 499):
        p = float(p)
        s = beta(0.5 - p, 1.0) + beta(0.5, 1.0 - p)
        want = st.TWO_SQRT2 * 0.7 * s * 0.3 ** (0.5 - p)
        assert math.isclose(st.eta_for_kappa(0.7, p, 0.3), want,
                            rel_tol=8 * eps)
        want = (0.5 / (st.TWO_SQRT2 * 0.05 * s)) ** (1.0 / (0.5 - p))
        if want >= np.finfo(float).tiny:       # else it underflows
            checked += 1
            assert math.isclose(st.solve_h(0.05, p, 0.5), want,
                                rel_tol=8 * eps / (0.5 - p))
    assert checked > 400


@pytest.mark.parametrize("d", [1, 2])
def test_cauchy_normalizer_bits_match_scipy_gamma(d):
    from scipy.special import gamma
    surface = 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)
    total = integrate_1d(
        lambda r: surface * r ** (d - 1) * (1.0 + r * r) ** (-(d + 1) / 2.0),
        0.0, np.inf, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14))
    assert st.cauchy_kernel(d).c_d == 1.0 / total.value


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
