import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.integrate import quad

from kpert import matrix_kernels as mk
from kpert import perturbation as pt
from kpert import spacetime as st
from kpert.bounds import Interval, time_uniform_slices
from kpert.errors import DomainError, SmallnessError
from kpert.measures import (Atom, ConstDensity, CornerPowerDensity,
                            PerturbingMeasure, PowerLawSpaceDensity,
                            measure_from_config, restrict_measure)
from kpert.quadrature import gauss_legendre_rule

G = st.gaussian_kernel(1)


# -- measures ----------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        Atom(0.5, 0.0)
    with pytest.raises(ValueError):
        PerturbingMeasure(atoms=(Atom(0.5, 1.0), Atom(0.5, 1.0)))


def test_measure_from_config_kinds():
    mu = measure_from_config({"density": {"kind": "const", "lambda": 2.0},
                              "atoms": [{"u": 0.25, "eta": 0.5}],
                              "support": [0.0, 1.0]}, 1)
    assert float(mu.q(0.5, 0.0)) == 2.0
    assert float(mu.q(1.5, 0.0)) == 0.0       # outside the support
    assert len(mu.active_atoms()) == 1
    with pytest.raises(ValueError):
        measure_from_config({"density": {"kind": "nope"}}, 1)


def test_restrict_measure_cases():
    mu = PerturbingMeasure(ConstDensity(1.0), (Atom(1.0, 0.5),))
    assert restrict_measure(mu, Interval(-np.inf, np.inf)).active_atoms()
    empty = restrict_measure(mu, Interval(5.0, 5.0))
    assert not empty.active_atoms()
    assert float(empty.q(0.5, 0.0)) == 0.0
    # intervals are [lo, hi): an atom at the upper end is dropped, one at
    # the lower end kept
    dropped = restrict_measure(mu, Interval(0.0, 1.0))
    kept = restrict_measure(mu, Interval(1.0, 2.0))
    assert not dropped.active_atoms()
    assert kept.active_atoms()
    # disjoint restrictions leave the empty support [0, 0)
    assert restrict_measure(dropped, Interval(2.0, 3.0)).time_support == \
        Interval(0.0, 0.0)


def test_restrict_measure_idempotent():
    mu = PerturbingMeasure(ConstDensity(1.0), (Atom(0.4, 0.5),))
    once = restrict_measure(mu, Interval(0.0, 1.0))
    twice = restrict_measure(once, Interval(0.0, 1.0))
    assert once.time_support == twice.time_support
    assert once.atoms == twice.atoms


# -- terms --------------------------------------------------------------------

def _at(mu, s, x, **kw):
    """The series of G perturbed by mu at the one point (s, x), target
    (1, 0)."""
    return pt.series_batch(G, mu, [s], [x], 1.0, 0.0, **kw)[0]


def _term(mu, n, s, x, **kw):
    """p_n(s, x, 1, 0) as the series reports it; 0 past its last term."""
    terms = _at(mu, s, x, **kw).terms
    return terms[n] if n < len(terms) else 0.0


def test_pn_zero_measure():
    mu = PerturbingMeasure()
    assert _term(mu, 3, 0.0, 0.0) == 0.0
    assert _term(mu, 0, 0.0, 0.0) == \
        float(G(0.0, 0.0, 1.0, 0.0))


def test_pn_causality():
    mu = PerturbingMeasure(ConstDensity(1.0))
    for n in range(3):
        assert _term(mu, n, 1.0, 0.0) == 0.0
        assert _term(mu, n, 2.0, 0.0) == 0.0


def test_pn_atomless_factorial():
    mu = PerturbingMeasure(ConstDensity(1.0))
    p = float(G(0.0, 0.3, 1.0, 0.0))
    p2 = _term(mu, 2, 0.0, 0.3)
    assert p2 == pytest.approx(p / 2.0, rel=1e-3)


def test_pn_single_atom():
    mu = PerturbingMeasure(atoms=(Atom(0.5, 0.7),))
    p = float(G(0.0, 0.2, 1.0, 0.0))
    assert _term(mu, 1, 0.0, 0.2) == \
        pytest.approx(0.7 * p, rel=1e-7)
    assert _term(mu, 2, 0.0, 0.2) <= 1e-12 * p
    # atom outside the window contributes nothing
    assert _term(mu, 1, 0.6, 0.2) == 0.0
    assert _term(mu, 1, 0.5, 0.2) == 0.0   # boundary


def test_pn_first_term_builds_no_grid(monkeypatch):
    # row n reads grid level n - 1 only: the level at max_terms went unread
    built = []
    level = pt.SeriesEngine._grid_level
    monkeypatch.setattr(pt.SeriesEngine, "_grid_level",
                        lambda eng, spl: built.append(1) or level(eng, spl))
    mu = PerturbingMeasure(ConstDensity(0.5), (Atom(0.6, 0.2),))
    p = float(G(0.1, 0.3, 1.0, 0.0))
    p1 = _term(mu, 1, 0.1, 0.3, max_terms=1)
    assert built == []
    assert p1 == pytest.approx(
        _frozen_p1_ratio(G, mu, 1.0, 0.0, 0.1, 0.3) * p, rel=1e-14)


def test_ratios_build_only_the_levels_their_rows_read(monkeypatch):
    # terms (lambda (t - s))^n / n!: from s = 0.6 the tail is small at
    # row 4, which reads grid level 3; level 4 would go unread
    built = []
    level = pt.SeriesEngine._grid_level
    monkeypatch.setattr(pt.SeriesEngine, "_grid_level",
                        lambda eng, spl: built.append(1) or level(eng, spl))
    mu = PerturbingMeasure(ConstDensity(0.5))

    def engine():
        return pt.SeriesEngine(G, mu, 1.0, 0.0, s_min=0.0,
                               x_range=(-1.0, 1.0), resolution=1.0,
                               quad_tol=1e-3, max_terms=14)

    eng = engine()
    first = eng.ratios([0.6], [0.1])
    n = first.shape[0] - 1
    assert n == 4
    assert first[n, 0] <= eng.quad_tol * np.sum(first[:, 0])
    assert len(built) == n - 1
    # a later call that needs more rows builds the rest lazily, with the
    # values a fresh engine gives
    s, x = [0.0, 0.1], [0.3, -0.2]
    later = eng.ratios(s, x)
    assert later.shape[0] > first.shape[0]
    assert len(built) == later.shape[0] - 2
    assert np.array_equal(later, engine().ratios(s, x))


# -- series ---------------------------------------------------------------------

def test_series_causality():
    mu = PerturbingMeasure(ConstDensity(1.0))
    r = _at(mu, 1.5, 0.0)
    assert r.value == 0.0 and r.status == "converged"


def test_series_window_ignores_dead_points():
    # a point at s >= t (p = 0) widened the engine's window to x = 100:
    # the live point's error grew from 9.5e-6 to 1.0e-4, still converged
    mu = PerturbingMeasure(ConstDensity(0.3))
    kw = dict(quad_tol=1e-3, max_terms=10)
    alone, = pt.series_batch(G, mu, [0.1], [0.0], 1.0, 0.0, **kw)
    live, dead = pt.series_batch(G, mu, [0.1, 1.5], [0.0, 100.0], 1.0, 0.0,
                                 **kw)
    assert live == alone
    assert abs(live.ratio - math.exp(0.27)) / math.exp(0.27) < 2e-5
    assert dead.value == 0.0 and dead.status == "converged"


@pytest.mark.parametrize("far", [1000.0, 1e300])
def test_series_window_ignores_points_whose_p_underflows(far):
    # a point whose p underflows to 0 still widened the window: with x =
    # 1000 the live points read 5.3e-3-6.5e-3 off (converged), with
    # x = 1e300 they read NaN (truncated)
    mu = PerturbingMeasure(ConstDensity(0.25))
    s, x = [0.0] * 3, [-1.0, 0.0, 1.0]
    alone = pt.series_batch(G, mu, s, x, 1.0, 0.0)
    with np.errstate(over="ignore"):      # |x - y|^2 overflows at 1e300
        *live, dead = pt.series_batch(G, mu, s + [0.0], x + [far], 1.0, 0.0)
    assert live == alone
    assert dead.value == 0.0 and dead.status == "converged"


GAUSSIAN_SWEEP = {   # measure, closed-form ratio at (s, x), target (1, 0)
    "const": (PerturbingMeasure(ConstDensity(0.25)),
              lambda s: math.exp(0.25 * (1.0 - s))),
    "readme": (measure_from_config(
        {"density": {"kind": "const", "lambda": 0.25},
         "atoms": [{"u": 0.5, "eta": 0.5}], "support": [0.0, 1.0]}, 1),
        lambda s: math.exp(0.25 * (1.0 - s)) * (1.5 if s < 0.5 else 1.0)),
}


@pytest.mark.parametrize("case", sorted(GAUSSIAN_SWEEP))
def test_gaussian_far_field_within_stated_error(case):
    # the bridge rule sat on the narrower kernel factor, and the bridge's
    # peak moved off it as |x - y| grew: at x = 40 the const case was off
    # by 9.8e-2 against a stated 1.4e-2, and the README config at x = 20
    # by 2.1e-1 against 7.6e-2, both converged
    mu, truth = GAUSSIAN_SWEEP[case]
    xs = [0.5, 5.0, 20.0, 40.0]
    batch = pt.series_batch(G, mu, [0.0] * 4, xs, 1.0, 0.0)
    for x, r in zip(xs, batch + [_at(mu, 0.0, x) for x in xs]):
        assert r.status == "converged"
        assert abs(r.ratio - truth(0.0)) / truth(0.0) <= \
            r.quad_error_estimate, x


def test_density_plus_two_atoms_within_stated_error():
    # (0.5, 0.1) read 2.1e-7 off against a stated 1.8e-7, converged: the
    # two resolutions agreed closer than either was to the truth
    atoms = ((0.35, 0.4), (0.7, 0.3))
    mu = PerturbingMeasure(ConstDensity(0.3), tuple(Atom(u, e)
                                                    for u, e in atoms))
    s, x = [0.0, 0.1, 0.2, 0.5], [0.3, -0.6, 0.5, 0.1]
    for si, r in zip(s, pt.series_batch(G, mu, s, x, 1.0, 0.0)):
        want = math.exp(0.3 * (1.0 - si)) * math.prod(
            1.0 + e for u, e in atoms if u > si)
        assert r.status == "converged"
        assert abs(r.ratio - want) / want <= r.quad_error_estimate, si


def test_series_atomless_oracle():
    mu = PerturbingMeasure(ConstDensity(1.0))
    r = _at(mu, 0.0, 0.5, quad_tol=1e-4)
    assert r.ratio == pytest.approx(math.e, rel=1e-3)
    assert r.status == "converged"
    assert r.quad_error_estimate < 1e-3


def test_series_dirac_oracle_both_branches():
    mu = PerturbingMeasure(atoms=(Atom(0.5, 0.7),))
    inside = _at(mu, 0.0, 0.1)
    assert inside.ratio == pytest.approx(1.7, rel=1e-6)
    outside = _at(mu, 0.6, 0.1)
    assert outside.ratio == pytest.approx(1.0, rel=1e-12)


def test_series_restriction_consistency():
    # only the measure inside (s, t) can matter
    mu = PerturbingMeasure(ConstDensity(0.5), (Atom(1.5, 0.9), Atom(2.5, 0.4)))
    r_full = _at(mu, 0.2, 0.1, quad_tol=1e-4)
    window = Interval(0.2, 1.0)
    r_cut = _at(restrict_measure(mu, window), 0.2, 0.1, quad_tol=1e-4)
    assert r_full.value == pytest.approx(r_cut.value, rel=1e-6)


def test_series_measure_monotonicity():
    pts = [(0.0, 0.0), (0.1, 0.4)]
    small = PerturbingMeasure(ConstDensity(0.25))
    large = PerturbingMeasure(ConstDensity(0.5))
    for s, x in pts:
        lo = _at(small, s, x, quad_tol=1e-4)
        hi = _at(large, s, x, quad_tol=1e-4)
        assert lo.value <= hi.value * (1 + 1e-6)
    small_atoms = PerturbingMeasure(atoms=(Atom(0.5, 0.3),))
    large_atoms = PerturbingMeasure(atoms=(Atom(0.25, 0.2), Atom(0.5, 0.4)))
    for s, x in pts:
        lo = _at(small_atoms, s, x)
        hi = _at(large_atoms, s, x)
        assert lo.value <= hi.value * (1 + 1e-6)


def test_series_growing_terms_are_truncated_not_diverging():
    # terms 30^n / n! grow until n = 30: fourteen of them prove nothing
    mu = PerturbingMeasure(ConstDensity(30.0))
    r = _at(mu, 0.0, 0.0)
    assert r.status == "truncated"
    assert r.truncation_index == 14
    assert all(b > a for a, b in zip(r.terms, r.terms[1:]))


@pytest.mark.parametrize("terms, value", [
    ((1.0, math.inf), math.inf), ((1.0, math.nan, 0.0), math.nan),
    ((1.0, 1e300), math.inf)])       # finite ratios times p = 1e10
def test_non_finite_series_is_truncated(terms, value):
    # inf <= tol * inf had read converged
    assert pt._verdict(np.array(terms), value, 1e-4, 14) == \
        ("truncated", math.inf)


def test_series_kappa_single_atom_matches_quad():
    # the cone kernel lives on z > x; the atom's bridge rule must keep to it
    u, eta, t, y = 0.5, 0.4, 1.0, 1.0
    mu = PerturbingMeasure(atoms=(Atom(u, eta),))
    pts = [(0.0, 0.1), (0.1, 0.3), (0.2, 0.5)]
    res = pt.series_batch(st.KAPPA, mu, [p[0] for p in pts],
                          [p[1] for p in pts], t, y)
    for (s, x), r in zip(pts, res):
        bridge, _ = quad(lambda z: float(st.KAPPA(s, x, u, z) *
                                         st.KAPPA(u, z, t, y)),
                         x, y, limit=200)
        want = 1.0 + eta * bridge / float(st.KAPPA(s, x, t, y))
        assert r.status == "converged"
        assert r.ratio == pytest.approx(want, rel=1e-6)


ATOM_POINTS = ([0.0, 0.1, 0.0, 0.1, 0.6, 0.6], [-1.5, 0.0, 0.8, 1.5, 0.3, 1.5])


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("kernel, rel", [(G, 1e-6), (st.cauchy_kernel(1), 1e-3)],
                         ids=["gaussian", "cauchy"])
def test_series_atoms_match_product_closed_form(kernel, rel, L):
    # composition identity: every chain of atoms in (s, t) adds one
    # product of weights, so the series is prod(1 + eta_i) p
    times, etas = (0.25, 0.5, 0.75)[3 - L:], (0.5, 0.3, 0.7)[3 - L:]
    mu = PerturbingMeasure(atoms=tuple(map(Atom, times, etas)))
    res = pt.series_batch(kernel, mu, *ATOM_POINTS, 1.0, 0.0)
    for s, r in zip(ATOM_POINTS[0], res):
        want = math.prod(1.0 + e for u, e in zip(times, etas) if u > s)
        err = abs(r.ratio - want) / want
        assert r.status == "converged"
        assert err <= r.quad_error_estimate
        # From s = 0.6 one atom is left 0.15 ahead: the bridge rule,
        # centred on the narrower factor, misses the far peak of the
        # Cauchy product at |x - y| = 1.5 (off by 1.9e-2, inside the
        # error bar above).
        if s < 0.5:
            assert err <= rel


def test_series_density_plus_atom_left_limit():
    # README config: the grid row of the panel ending at the atom sat at the
    # atom time, where the atom is not ahead, so the panel's spline ran
    # across the jump: 1.924433 against e**0.25 * 1.5 = 1.926038, off by
    # 8.3e-4 against a stated 5.7e-4 and marked converged
    mu = measure_from_config({"density": {"kind": "const", "lambda": 0.25},
                              "atoms": [{"u": 0.5, "eta": 0.5}],
                              "support": [0.0, 1.0]}, 1)
    s = [0.0, 0.1]
    for si, r in zip(s, pt.series_batch(G, mu, s, [-0.5, 0.5], 1.0, 0.0)):
        want = math.exp(0.25 * (1.0 - si)) * 1.5
        assert r.status == "converged"
        assert abs(r.ratio - want) / want <= r.quad_error_estimate


def test_series_term_positivity_and_causality_grid():
    mu = PerturbingMeasure(ConstDensity(0.5), (Atom(0.6, 0.2),))
    res = pt.series_batch(G, mu, [0.0, 0.3, 1.2], [0.0, -0.5, 0.3], 1.0, 0.0,
                          quad_tol=1e-3)
    for r in res:
        assert all(term >= 0.0 for term in r.terms)
    assert res[2].value == 0.0


# -- spline -------------------------------------------------------------------

@pytest.mark.parametrize("nx,ny", itertools.product((7, 11, 18), (9, 15, 24)))
def test_spline_matches_fitpack_interpolant(nx, ny):
    from scipy.interpolate import RectBivariateSpline as FitpackSpline
    rng = np.random.default_rng(nx * 100 + ny)
    x = np.linspace(0.13, 0.71, nx)
    y = np.linspace(-3.2, 2.9, ny)
    vals = 1.0 + np.exp(-(x[:, None] - 0.4) ** 2) * np.cos(y) ** 2 + \
        0.5 * rng.random((nx, ny))
    ref = FitpackSpline(x, y, vals, kx=3, ky=3, s=0)
    spl = pt.RectBivariateSpline(x, y, vals)
    # columns at every node, both ends and inside; per column the nodes,
    # both ends, points beyond them (clamped) and points inside
    v = np.concatenate([x, rng.uniform(x[0], x[-1], 12)])
    z = np.concatenate([y, [y[0] - 0.7, y[-1] + 2.0],
                        rng.uniform(y[0], y[-1], 25)])
    zz = np.stack([rng.permutation(z) for _ in v])
    got = spl(v, zz)
    want = ref(np.broadcast_to(v[:, None], zz.shape),
               np.clip(zz, y[0], y[-1]), grid=False)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    # a leading axis of points per column, as a grid row passes them
    got3 = spl(v, np.stack([zz, zz[:, ::-1]]))
    assert np.array_equal(got3[0], got) and np.array_equal(got3[1],
                                                           got[:, ::-1])
    # a column's values do not depend on the columns that share the call:
    # the engine looks up the same column alone or in different groups
    for i in range(len(v)):
        assert np.array_equal(spl(v[i:i + 1], zz[i:i + 1])[0], got[i])


# -- grid rows ----------------------------------------------------------------

def _scalar_time_nodes(eng, lo, hi, u0):
    """Time rule on (lo, hi) from one source time, as the engine once
    built it."""
    xi, w = eng._gl_t
    if eng.kind == "cone" and lo <= u0 + 1e-300:
        return u0 + (hi - u0) * xi ** 2, w * 2.0 * (hi - u0) * xi
    return lo + (hi - lo) * xi, w * (hi - lo)


def _on_source(eng, u0, v):
    """Whether the bridge rule at the time nodes v sits on the source."""
    return eng.kernel.peak_scale(v - u0) <= eng.kernel.peak_scale(eng.t - v)


def _scalar_bridge(eng, u0, z0, v, n_half):
    """Bridge rule for one source node, as the engine once built it, with
    n_half tan nodes per half-axis."""
    if eng.kind == "cone":
        if not eng.y > z0:
            n = len(eng._gl_half[0]) * 2
            return np.zeros((len(v), n)), np.zeros((len(v), n))
        xi, w = eng._gl_half
        zm = 0.5 * (z0 + eng.y)
        half = zm - z0
        left = z0 + half * xi ** 2
        wl = w * 2.0 * half * xi
        right = eng.y - half * xi[::-1] ** 2
        wr = (w * 2.0 * half * xi)[::-1]
        zp = np.concatenate([left, right])
        wp = np.concatenate([wl, wr])
        return (np.broadcast_to(zp, (len(v), len(zp))).copy(),
                np.broadcast_to(wp, (len(v), len(wp))).copy())
    th, w = gauss_legendre_rule(0.0, 0.5 * math.pi, n_half)
    theta = np.concatenate([-th[::-1], th])
    theta_w = np.concatenate([w[::-1], w])
    s1 = np.asarray(eng.kernel.peak_scale(v - u0), dtype=float)
    s2 = np.asarray(eng.kernel.peak_scale(eng.t - v), dtype=float)
    use1 = s1 <= s2
    center = np.where(use1, z0, eng.y)
    scale = np.maximum(np.where(use1, s1, s2), 1e-300)
    zp = center[:, None] + scale[:, None] * np.tan(theta)[None, :]
    wp = scale[:, None] * (theta_w / np.cos(theta) ** 2)[None, :]
    return zp, wp


def _closed_form(eng):
    """Whether the engine sums the Gaussian bridge in closed form."""
    return getattr(eng.kernel, "name", None) == "gaussian"


def _scalar_normal_bridge(eng, u0, z0, v, n_half):
    """Closed-form Gaussian bridge rule for one source node: nodes at the
    bridge mean z0 + (v - u0) / (t - u0) (y - z0) plus its standard
    deviation sqrt(2 (v - u0)(t - v) / (t - u0)) times tan(theta), weights
    the tan rule's times the standard normal density, without the nodes
    whose weight is 0."""
    th, w = gauss_legendre_rule(0.0, 0.5 * math.pi, n_half)
    theta = np.concatenate([-th[::-1], th])
    tan = np.tan(theta)
    wn = np.concatenate([w[::-1], w]) / np.cos(theta) ** 2
    wn = wn * np.exp(-0.5 * tan ** 2) / math.sqrt(2.0 * math.pi)
    keep = wn > 0
    frac = (v - u0) / (eng.t - u0)
    mean = z0 + frac * (eng.y - z0)
    sd = np.sqrt(2.0 * frac * (eng.t - v))
    return mean[:, None] + sd[:, None] * tan[keep], wn[keep]


def _scalar_point_value(eng, u0, z0, f0, splines):
    """Reference: one grid node per call, the engine's former scalar path,
    with the base density f0 there.  The Gaussian integrates against the
    bridge density, already a ratio to f0, with no kernel factor."""
    if not f0 > 0 or u0 >= eng.t:
        return 0.0
    closed = _closed_form(eng)
    bridge = _scalar_normal_bridge if closed else _scalar_bridge

    def kernels(vv, zp):
        if closed:
            return 1.0
        return eng.kernel(u0, z0, vv, zp) * eng.kernel(vv, zp, eng.t, eng.y)

    total = 0.0
    for lo, hi in eng.segments:
        if hi <= u0:
            continue
        v, dv = _scalar_time_nodes(eng, max(lo, u0), hi, u0)
        zp, wp = bridge(eng, u0, z0, v, eng.nodes_z // 2)
        vv = np.broadcast_to(v[:, None], zp.shape)
        qv = eng.mu.q(vv, zp)
        rv = 1.0 if splines is None else eng._lookup(splines, v, zp)
        total += float(dv @ np.sum(kernels(vv, zp) * qv * rv * wp, axis=1))
    for atom in eng.mu.active_atoms():
        if u0 < atom.time < eng.t:
            v = np.array([atom.time])
            zp, wp = bridge(eng, u0, z0, v, eng.nodes_atom // 2)
            vv = np.broadcast_to(v[:, None], zp.shape)
            rv = 1.0 if splines is None else eng._lookup(splines, v, zp)
            total += atom.weight * float(np.sum(kernels(vv, zp) * rv * wp))
    return total if closed else total / f0


ROW_CASES = {       # kernel, measure, target point y, x_range
    "gaussian-atom": (G, PerturbingMeasure(ConstDensity(0.5),
                                           (Atom(0.45, 0.4),)),
                      0.0, (-1.0, 1.0)),
    # an atom at 0.8 with t = 1: its bridge sits on the target from the
    # rows with u0 < 0.6 and on the source node from the later ones
    "gaussian-late-atom": (G, PerturbingMeasure(ConstDensity(0.5),
                                                (Atom(0.8, 0.4),)),
                           0.0, (-1.0, 1.0)),
    "cauchy-late-atom": (st.cauchy_kernel(1),
                         PerturbingMeasure(ConstDensity(0.5),
                                           (Atom(0.8, 0.4),)),
                         0.0, (-0.5, 0.5)),
    "cauchy-support-edge": (st.cauchy_kernel(1),
                            PerturbingMeasure(ConstDensity(1.0),
                                              time_support=Interval(0.3, 2.0)),
                            0.0, (-0.5, 0.5)),
    "kappa-cone": (st.KAPPA, PerturbingMeasure(CornerPowerDensity(0.05, 0.1)),
                   1.0, (0.0, 1.0)),
}


class _EntryCounter:
    """A kernel that records the arguments of each call and the size of
    each value it returns."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.args = []
        self.sizes = []

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def __call__(self, *args):
        out = self.kernel(*args)
        self.args.append(args)
        self.sizes.append(np.size(out))
        return out


def _row_times(eng):
    """Source times of a batch: rows of every panel, the left limit a panel
    ending at an atom holds, just before and after each atom and support
    edge, and the dead times t and past t."""
    times = [u for u_nodes, u_rows, *_ in eng._panel_rows
             for u in (*u_nodes[[0, 3, -2]], u_rows[-1])]
    edges = [a.time for a in eng.mu.atoms] + [eng.mu.time_support.lo]
    times += [e + d for e in edges if 0.0 < e < eng.t for d in (-1e-3, 1e-3)]
    return np.array(times + [eng.t, eng.t + 0.5])


@pytest.mark.bits
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_row_values_match_scalar_nodes(case, monkeypatch):
    # a batch of rows gives every node the bits of that node evaluated
    # alone: rows sharing the z-grid, rows of one node each, mixed source
    # times across panels, atoms and support edges, dead nodes, and blocks
    # of columns that split rows (the small cap)
    kernel, mu, y, x_range = ROW_CASES[case]
    for cap in (pt._BATCH_ENTRIES, 17 * 28 * 5):
        monkeypatch.setattr(pt, "_BATCH_ENTRIES", cap)
        _check_batches_against_scalar_nodes(kernel, mu, y, x_range)


def _check_batches_against_scalar_nodes(kernel, mu, y, x_range):
    eng = pt.SeriesEngine(kernel, mu, 1.0, y, s_min=0.0, x_range=x_range,
                          resolution=1.0, quad_tol=1e-4, max_terms=14)
    # nodes past the target point are dead for the cone kernel
    z0 = np.concatenate([eng.z_nodes, [y + 0.25, y + 1.0]])
    assert len(z0) == 17
    level1, _ = eng._grid_level(None)
    u0 = _row_times(eng)
    # readout points: every source time against several nodes, live ones
    # first; batch sizes 1, one block's worth of points - 1 and + 1
    per_block = pt._BATCH_ENTRIES // len(eng._rule[0]) // eng.nodes_t
    s_pts, x_pts = (a.ravel() for a in np.meshgrid(
        np.union1d(u0, np.linspace(0.0, 1.4, 15)), z0))
    f_pts = np.asarray(kernel(s_pts, x_pts, eng.t, eng.y), dtype=float)
    order = np.argsort(~((f_pts > 0) & (s_pts < eng.t)), kind="stable")
    assert np.count_nonzero(f_pts > 0) > per_block + 1
    counter = _EntryCounter(kernel)
    eng.kernel = counter
    for splines in (None, level1):
        f0 = np.asarray(kernel(u0[:, None], z0, eng.t, eng.y), dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = eng._apply(u0, z0[None, :], f0, splines)
        for u, row, f in zip(u0, rows, f0):
            ref = np.array([_scalar_point_value(eng, u, z, fz, splines)
                            for z, fz in zip(z0, f)])
            assert np.array_equal(row, ref)
        assert np.all(np.isfinite(rows))
        assert np.all(rows[f0 <= 0] == 0.0) and np.any(f0 <= 0)
        for n in (1, per_block - 1, per_block + 1, len(s_pts)):
            i = order[:n]
            got = eng._apply(s_pts[i], x_pts[i, None], f_pts[i, None],
                             splines)[:, 0]
            ref = [_scalar_point_value(eng, s, x, f, splines)
                   for s, x, f in zip(s_pts[i], x_pts[i], f_pts[i])]
            assert got.tobytes() == np.array(ref).tobytes()
    if _closed_form(eng):
        # the Gaussian bridge sums evaluate no kernel
        assert counter.sizes == []
        return
    assert 0 < max(counter.sizes) <= pt._BATCH_ENTRIES
    if kernel.kind == "peak":
        # time rules that mix both sides, and atoms on either side
        sides = set()
        for u in u0[u0 < eng.t]:
            for lo, hi in eng.segments:
                if hi > u:
                    v, _ = _scalar_time_nodes(eng, max(lo, u), hi, u)
                    sides.add((False, frozenset(_on_source(eng, u, v))))
            for a in mu.atoms:
                if u < a.time:
                    sides.add((True, bool(_on_source(eng, u, a.time))))
        assert (False, frozenset({True, False})) in sides
        if mu.atoms:
            assert (True, True) in sides
        if any(a.time == 0.8 for a in mu.atoms):     # the late atoms
            assert (True, False) in sides


@pytest.mark.bits
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_ratios_in_one_batch_match_one_point_at_a_time(case):
    kernel, mu, y, x_range = ROW_CASES[case]
    eng = pt.SeriesEngine(kernel, mu, 1.0, y, s_min=0.0, x_range=x_range,
                          resolution=1.0, quad_tol=1e-5, max_terms=14)
    s = np.array([0.0, 0.1, 0.3, 0.45, 0.5, 0.79, 0.81, 0.95, 1.0, 1.5])
    x = x_range[0] + (x_range[1] - x_range[0]) * \
        np.array([0.5, 0.1, 0.9, 0.3, 0.6, 0.75, 0.2, 0.5, 0.5, 0.4])
    x[-3] = y + 0.5 if kernel is st.KAPPA else x[-3]   # past the cone tip
    batch = eng.ratios(s, x)
    assert batch.shape[0] >= 3
    for i in range(len(s)):
        alone = eng.ratios(s[i:i + 1], x[i:i + 1])[:, 0]
        assert alone.tobytes() == batch[:len(alone), i].tobytes()


def _frozen_spline_eval(spl, x, y):
    """RectBivariateSpline.__call__ as first written, with minimum/maximum
    clamps and out-of-place index math."""
    xs, ys = spl.x, spl.y
    x = np.minimum(np.maximum(x, xs[0]), xs[-1])
    k = np.minimum(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2)
    dx = (x - xs[k])[:, None]
    c = spl._x_pieces[k]
    w = ((c[:, 3] * dx + c[:, 2]) * dx + c[:, 1]) * dx + c[:, 0]
    pieces = (w[:, None, :] @ spl._rows).reshape(-1, 4).T.copy()
    y = np.minimum(np.maximum(y, ys[0]), ys[-1])
    k = np.minimum(((y - ys[0]) * spl._inv_dy).astype(np.intp), len(ys) - 2)
    d = y - ys.take(k)
    k += (np.arange(len(x)) * (len(ys) - 1))[:, None]
    c0, c1, c2, c3 = pieces
    return ((c3.take(k) * d + c2.take(k)) * d + c1.take(k)) * d + c0.take(k)


def _frozen_bridge(eng, u0, z0, v, atom=False):
    """The engine's bridge rule for one source time as first written, as
    (cols, zp, wp) groups over the columns of v; the group on the target
    has zp of leading size 1."""
    if eng.kind == "cone":
        xi, w = eng._gl_half
        zm = 0.5 * (z0 + eng.y)
        half = (zm - z0)[:, None]
        left = z0[:, None] + half * xi ** 2
        wl = w * 2.0 * half * xi
        right = eng.y - half * xi[::-1] ** 2
        wr = (w * 2.0 * half * xi)[:, ::-1]
        zp = np.concatenate([left, right], axis=1)
        wp = np.concatenate([wl, wr], axis=1)
        shape = (len(z0), len(v), zp.shape[1])
        return [(slice(None), np.broadcast_to(zp[:, None, :], shape),
                 wp[:, None, :])]
    s1 = np.asarray(eng.kernel.peak_scale(v - u0), dtype=float)
    s2 = np.asarray(eng.kernel.peak_scale(eng.t - v), dtype=float)
    use1 = s1 <= s2
    scale = np.maximum(np.where(use1, s1, s2), 1e-300)
    tan, tan_w = eng._atom_rule if atom else eng._rule
    groups = []
    for cols, center in ((use1, z0[:, None, None]),
                         (~use1, np.full((1, 1, 1), eng.y))):
        if np.any(cols):
            groups.append((cols, center + scale[cols][:, None] * tan,
                           scale[cols][:, None] * tan_w))
    return groups


def _frozen_bridge_sums(eng, u0, z0, v, splines, atom=False):
    """SeriesEngine._bridge_sums as first written: every operand
    materialised at the rule's full shape, r_0 = 1 as an array of ones and
    the product out of place."""
    inner = np.empty((len(z0), len(v)))
    zc = z0[:, None, None]
    for cols, zp, wp in _frozen_bridge(eng, u0, z0, v, atom):
        vv = np.broadcast_to(v[cols, None], zp.shape)
        p1 = eng.kernel(u0, zc, vv, zp)
        p2 = eng.kernel(vv, zp, eng.t, eng.y)
        if splines is None:
            rv = np.ones(zp.shape)
        else:
            vc = v[cols]
            idx = np.clip(np.searchsorted(eng._panel_los, vc, side="right")
                          - 1, 0, len(eng.panels) - 1)
            rv = np.empty(zp.shape)
            for i, spl in enumerate(splines):
                m = idx == i
                if m.any():
                    rv[..., m, :] = _frozen_spline_eval(spl, vc[m],
                                                        zp[..., m, :])
        if atom:
            inner[:, cols] = np.sum(p1 * p2 * rv * wp, axis=-1)
        else:
            qv = eng.mu.q(vv, zp)
            inner[:, cols] = np.sum(p1 * p2 * qv * rv * wp, axis=-1)
    return inner


def _frozen_row_values(eng, u0, z0, f0, splines):
    """The engine's evaluator when it took one source time per call (the
    nodes z0, base density f0 there); the Gaussian's closed-form bridge
    has the scalar reference."""
    if _closed_form(eng):
        return np.array([_scalar_point_value(eng, u0, z, f, splines)
                         for z, f in zip(z0, f0)])
    out = np.zeros(len(z0))
    live = f0 > 0
    if u0 >= eng.t or not np.any(live):
        return out
    z0, f0 = z0[live], f0[live]
    total = np.zeros(len(z0))
    for lo, hi in eng.segments:
        if hi <= u0:
            continue
        v, dv = _scalar_time_nodes(eng, max(lo, u0), hi, u0)
        inner = _frozen_bridge_sums(eng, u0, z0, v, splines)
        total += [float(dv @ row) for row in inner]
    for atom in eng.mu.active_atoms():
        if u0 < atom.time < eng.t:
            inner = _frozen_bridge_sums(eng, u0, z0, np.array([atom.time]),
                                        splines, atom=True)
            total += atom.weight * inner[:, 0]
    out[live] = total / f0
    return out


def _frozen_apply(eng, u0, z0, f0, splines):
    """SeriesEngine._apply one row at a time through the frozen path."""
    return np.array([_frozen_row_values(eng, u, z0[0] if len(z0) == 1
                                        else z0[i], f0[i], splines)
                     for i, u in enumerate(u0)]).reshape(f0.shape)


FROZEN_CASES = {    # kernel, measure, target point y, x_range
    "two-panel-density-edge": (G, PerturbingMeasure(
        ConstDensity(0.8), time_support=Interval(0.4, 2.0)), 0.0, (-1.0, 1.0)),
    "density-plus-atom": (G, PerturbingMeasure(ConstDensity(0.5),
                                               (Atom(0.45, 0.4),)),
                          0.0, (-1.0, 1.0)),
    "atoms-only": (st.cauchy_kernel(1), PerturbingMeasure(
        None, (Atom(0.3, 0.4), Atom(0.6, 0.3))), 0.0, (-0.5, 0.5)),
    "power-law-density": (G, PerturbingMeasure(PowerLawSpaceDensity(0.5)),
                          0.2, (-1.0, 1.0)),
    "cone": (st.KAPPA, PerturbingMeasure(CornerPowerDensity(0.05, 0.1)),
             1.0, (0.0, 1.0)),
}


@pytest.mark.bits
@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_ratios_match_frozen_bridge_sums(case):
    kernel, mu, y, x_range = FROZEN_CASES[case]

    def engine():
        return pt.SeriesEngine(kernel, mu, 1.0, y, s_min=0.0,
                               x_range=x_range, resolution=1.0,
                               quad_tol=1e-6, max_terms=14)

    s = np.array([0.0, 0.15, 0.35, 0.5, 0.7, 0.9])
    x = x_range[0] + (x_range[1] - x_range[0]) * \
        np.array([0.1, 0.9, 0.5, 0.3, 0.75, 0.6])
    frozen, batched = engine(), engine()
    frozen._apply = functools.partial(_frozen_apply, frozen)
    frozen.kernel, batched.kernel = (_EntryCounter(kernel),
                                     _EntryCounter(kernel))
    got, want = batched.ratios(s, x), frozen.ratios(s, x)
    assert got.shape == want.shape
    assert got.shape[0] >= 3 or mu.density is None
    assert np.array_equal(got, want)
    # the same kernel entries, dead nodes skipped alike, in fewer calls;
    # the Gaussian evaluates p only at the points and grid rows
    assert sum(batched.kernel.sizes) == sum(frozen.kernel.sizes)
    if kernel is G:
        assert all(args[2:] == (1.0, y) for args in batched.kernel.args)
    else:
        assert len(batched.kernel.sizes) < len(frozen.kernel.sizes)


@pytest.mark.bits
@pytest.mark.parametrize("nx,ny", itertools.product((7, 11, 18), (9, 15, 24)))
def test_spline_lookup_matches_frozen_eval(nx, ny):
    # one gather of each point's four coefficients has the bits of the
    # four takes it replaced: columns at and beyond both time ends, points
    # at the knots and clamped on both sides, one column and many, and a
    # leading axis of source nodes
    rng = np.random.default_rng(nx * 100 + ny)
    x = np.linspace(0.13, 0.71, nx)
    y = np.linspace(-3.2, 2.9, ny)
    vals = 1.0 + np.exp(-(x[:, None] - 0.4) ** 2) * np.cos(y) ** 2 + \
        0.5 * rng.random((nx, ny))
    spl = pt.RectBivariateSpline(x, y, vals)
    v = np.concatenate([x, [x[0] - 0.2, x[-1] + 0.3],
                        rng.uniform(x[0], x[-1], 12)])
    z = np.concatenate([y, [y[0] - 0.7, y[-1] + 2.0],
                        rng.uniform(y[0], y[-1], 25)])
    zz = np.stack([rng.permutation(z) for _ in v])
    for cols in (slice(0, 1), slice(nx, nx + 1), slice(None)):
        for pts in (zz[cols], np.stack([zz[cols], zz[cols, ::-1],
                                        zz[cols] + 0.1])):
            got = spl(v[cols], pts)
            assert got.shape == pts.shape
            assert got.tobytes() == \
                _frozen_spline_eval(spl, v[cols], pts).tobytes()


@pytest.mark.bits
def test_node_sums_match_per_node_dots():
    # one vecdot per segment has the bits of one dot per node, at the
    # engine's layout: inner is (nodes, rows x time nodes), reshaped
    rng = np.random.default_rng(29)
    for nt in range(8, 23):
        for nrows in range(1, 19):
            dv = rng.random((nrows, nt))
            for nz in range(1, 25):
                inner = (rng.standard_normal((nz, nrows * nt))
                         * 10.0 ** rng.uniform(-3, 3, (nz, nrows * nt))
                         ).reshape(nz, nrows, nt)
                want = [[float(d @ node) for node in inner[:, i]]
                        for i, d in enumerate(dv)]
                assert pt._node_sums(inner, dv).tobytes() == \
                    np.array(want).tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_grid_splines_from_cached_bases_match_fresh_splines(case):
    # the engine builds the space basis once and each panel's time basis
    # once; a grid level's splines equal splines built from scratch
    kernel, mu, y, x_range = FROZEN_CASES[case]
    for res in (1.0, 1.6):
        eng = pt.SeriesEngine(kernel, mu, 1.0, y, s_min=0.0,
                              x_range=x_range, resolution=res,
                              quad_tol=1e-4, max_terms=14)
        splines = None
        for _ in range(2):
            built, _ = eng._grid_level(splines)
            assert len(built) == len(eng.panels)
            for (u_nodes, u_rows, f0, _), spl in zip(eng._panel_rows, built):
                vals = eng._apply(u_rows, eng.z_nodes[None, :], f0, splines)
                fresh = pt.RectBivariateSpline(u_nodes, eng.z_nodes, vals)
                for name in ("x", "y", "_x_pieces", "_rows", "_inv_dy"):
                    assert np.asarray(getattr(spl, name)).tobytes() == \
                        np.asarray(getattr(fresh, name)).tobytes(), name
            splines = built


def test_narrow_panel_spline_reads_its_rows_at_node_times():
    # a panel one ulp wide repeats its time nodes, and not-a-knot divided
    # by a zero step; it is read only at its node times, where its spline
    # reads the row of that time
    lo = 0.35
    x = np.linspace(lo, np.nextafter(lo, 1.0), 11)
    assert len(set(x)) == 2
    rng = np.random.default_rng(5)
    y = np.linspace(-2.0, 2.0, 9)
    vals = rng.random((len(x), len(y)))
    vals[x == lo] = vals[0]              # rows at one time hold one value
    vals[x > lo] = vals[-1]
    spl = pt.RectBivariateSpline(x, y, vals)
    ref = pt.RectBivariateSpline(np.arange(len(x), dtype=float), y, vals)
    z = np.stack([rng.uniform(-2.5, 2.5, 13)] * 2)
    got = spl(np.array([lo, x[-1]]), z)
    assert np.array_equal(got, ref(np.array([0.0, 9.0]), z))


def test_slice_problem_reuses_engine_pair_bit_for_bit():
    mu = PerturbingMeasure(ConstDensity(0.5))
    intervals = time_uniform_slices(0.0, 1.0, 0.5)
    probe = pt.TimeSliceProblem(G, mu, 0.0, 1.0, 0.0, intervals,
                                quad_tol=1e-3)
    pts = {"a": probe.slice_points(1, n=3), "b": probe.slice_points(2, n=4)}
    fresh = {}
    for key, p in pts.items():
        engines = pt._engine_pair(G, probe.mu, 1.0, 0.0, probe.r, probe.x_box,
                                  1e-3, 14)
        res = pt._sum_rows(engines, p[:, 0], p[:, 1], G(p[:, 0], p[:, 1],
                                                         1.0, 0.0), 1e-3, 14)
        fresh[key] = (np.array([r.ratio for r in res]),
                      (max(r.truncation_index for r in res),
                       max(r.tail_estimate for r in res),
                       max(r.quad_error_estimate for r in res)))
    for order in ("ab", "ba"):
        prob = pt.TimeSliceProblem(G, mu, 0.0, 1.0, 0.0, intervals,
                                   quad_tol=1e-3)
        engines = []
        for key in order:
            ratios, rep = prob.series(pts[key])
            engines.append(prob._engines)
            want_ratios, want_rep = fresh[key]
            assert np.array_equal(ratios, want_ratios)
            assert (rep.max_index, rep.tail_estimate, rep.quad_error) == \
                want_rep
        assert engines[0] is engines[1]


def _frozen_p1_ratio(kernel, mu, t, y, s, x, quad_tol=1e-5):
    """The first-term ratio p_1 / p at one point as a slice problem read it
    before it kept one engine per slice measure: a fresh engine for the
    point, on the window from s and between x and y."""
    f0 = float(kernel(s, x, t, y))
    if f0 <= 0 or mu.is_zero:
        return 0.0
    eng = pt.SeriesEngine(kernel, mu, t, y, s_min=min(s, t - 1e-9),
                          x_range=(min(x, y), max(x, y)), quad_tol=quad_tol,
                          max_terms=14, resolution=1.6)
    return float(_frozen_row_values(eng, float(s), np.array([float(x)]),
                                    np.array([f0]), None)[0])


# the README's run config and a Cauchy run off the axis: kernel, measure,
# target point y, slice width (4 slices each)
P1_CASES = {
    "gaussian-density-atom": (G, PerturbingMeasure(
        ConstDensity(0.25), (Atom(0.5, 0.5),),
        time_support=Interval(0.0, 1.0)), 0.0, 0.25),
    "cauchy-4-slices": (st.cauchy_kernel(1), PerturbingMeasure(
        ConstDensity(0.6), (Atom(0.7, 0.3),)), 0.2, 0.25),
}


@pytest.mark.bits
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(P1_CASES))
def test_slice_apply_matches_frozen_p1_ratio(case, seed):
    # the fine engine cut to each slice gives the bits of one engine per
    # point on the restricted measure mu|I_j, on each slice's own points and
    # on the top points, with no p multiplied in and divided out again
    kernel, mu, y, h = P1_CASES[case]
    prob = pt.TimeSliceProblem(kernel, mu, 0.0, 1.0, y,
                               time_uniform_slices(0.0, 1.0, h), seed=seed)
    assert prob.k == 4
    for j, I in enumerate(prob.intervals, start=1):
        mu_j = restrict_measure(prob.mu, I)
        for pts in (prob.slice_points(j, None, 16), prob.top_points(None, 16)):
            want = np.array([_frozen_p1_ratio(kernel, mu_j, 1.0, y, s, x,
                                              prob.quad_tol)
                             for s, x in pts])
            assert prob.slice_ratio(j, pts).tobytes() == want.tobytes()


def test_slice_ratio_evaluates_p_once_per_point():
    # the p a slice ratio divides by is one scalar call per point; nothing
    # evaluates p at the points again to multiply it back in
    kernel, mu, y, h = P1_CASES["cauchy-4-slices"]
    counter = _EntryCounter(kernel)
    prob = pt.TimeSliceProblem(counter, mu, 0.0, 1.0, y,
                               time_uniform_slices(0.0, 1.0, h))
    for j, n in ((1, 1), (2, 7), (4, 16)):
        pts = prob.slice_points(j, None, n)
        points = {(float(s), float(x)) for s, x in pts}
        counter.args.clear()
        prob.slice_ratio(j, pts)
        at_points, scalar = 0, True
        for args in counter.args:
            s, x, t, yy = np.broadcast_arrays(*args)
            hits = sum((float(a), float(b)) in points for a, b, c, d
                       in zip(s.flat, x.flat, t.flat, yy.flat)
                       if c == 1.0 and d == y)
            at_points += hits
            scalar = scalar and (hits == 0 or s.ndim == 0)
        assert (at_points, scalar) == (n, True)


def test_theorem46_builds_one_engine_pair(monkeypatch):
    # p_1 once took a fresh engine per sample point, 130 engines on the
    # README config, then one per slice besides the series pair (6); now
    # each slice reads it from the pair's fine engine
    built = []
    init = pt.SeriesEngine.__init__
    monkeypatch.setattr(pt.SeriesEngine, "__init__",
                        lambda eng, *a, **kw: built.append(1) or
                        init(eng, *a, **kw))
    kernel, mu, y, h = P1_CASES["gaussian-density-atom"]
    certs = pt.theorem46_certify(kernel, mu, 1.0, y,
                                 time_uniform_slices(0.0, 1.0, h),
                                 n_samples=4, quad_tol=1e-3)
    assert len(certs) == 4
    assert len(built) == 2


# -- multi-atom operator ----------------------------------------------------------

def test_multi_atom_iterate_counts():
    assert pt.multi_atom_iterate_count(2, 0) == 1
    assert pt.multi_atom_iterate_count(2, 3) == 4
    assert pt.multi_atom_iterate_count(1, 9) == 1
    for L in range(5):
        for n in range(6):
            brute = sum(1 for _ in itertools.combinations_with_replacement(
                range(L), n)) if L > 0 or n == 0 else 0
            assert pt.multi_atom_iterate_count(L, n) == brute


def test_multi_atom_series_factor():
    assert pt.multi_atom_series_factor(0.5, 0) == 1.0
    assert pt.multi_atom_series_factor(0.5, 3) == 8.0
    assert pt.multi_atom_series_factor(0.5, 1) == 2.0
    partial = sum(0.5 ** n * pt.multi_atom_iterate_count(3, n)
                  for n in range(60))
    assert partial == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(DomainError):
        pt.multi_atom_series_factor(1.0, 2)


def _iterate_ratio(op, n, s, x):
    """(K^n f)(s, x) / f(s, x) from the operator's matrix and readout row."""
    if n == 0:
        return 1.0
    g = np.ones(op.K.n)
    for _ in range(n - 1):
        g = mk.apply(op.K, g)
    return float(op._readout(s, x) @ g)


def test_multi_atom_operator_iterate_identity():
    op = pt.MultiAtomOperator(G, [0.5], 1.0, 0.0)
    for n in (1, 2, 4):
        assert _iterate_ratio(op, n, 0.2, 0.3) == pytest.approx(1.0, abs=1e-7)
    assert _iterate_ratio(op, 1, 0.7, 0.3) == 0.0      # no atom ahead


def test_multi_atom_series_matches_closed_form():
    op = pt.MultiAtomOperator(G, [1 / 6, 1 / 2, 5 / 6], 1.0, 0.0)
    for s, L in ((0.05, 3), (0.4, 2), (0.7, 1), (0.95, 0)):
        r = op.series_at(0.5, s, -0.2)
        assert r.ratio == pytest.approx(2.0 ** L, rel=1e-6)
    with pytest.raises(DomainError):
        op.series_at(1.5, 0.1, 0.0)


def test_multi_atom_series_counts_the_atom_at_s():
    # rho({s}) at an atom time, the s <= u0 convention of the alternative
    # single-atom series; the series once dropped that atom and the
    # iterate raised
    op = pt.MultiAtomOperator(G, [1 / 4, 1 / 2, 3 / 4], 1.0, 0.0)
    for s, L in ((0.25, 3), (0.5, 2), (0.75, 1)):
        assert op.series_at(0.5, s, 0.1).ratio == \
            pytest.approx(2.0 ** L, rel=1e-8)
    single = pt.MultiAtomOperator(G, [0.5], 1.0, 0.0)
    for n in (1, 2, 4):
        assert _iterate_ratio(single, n, 0.5, 0.3) == \
            pytest.approx(1.0, abs=1e-12)


def test_multi_atom_series_sums_its_iterates():
    op = pt.MultiAtomOperator(st.cauchy_kernel(1), [0.3, 0.6], 1.0, 0.0)
    eta = 0.4
    for s, x in ((0.1, 0.2), (0.3, -0.4), (0.45, 1.5)):
        r = op.series_at(eta, s, x)
        assert r.status == "converged"
        # f and the truncation_index + 1 summed terms of the perturbation
        direct = sum(eta ** n * _iterate_ratio(op, n, s, x)
                     for n in range(r.truncation_index + 2))
        assert r.ratio == pytest.approx(direct, rel=1e-12)


def test_multi_atom_transfer_rows_sum_to_later_atom_count():
    # Chapman-Kolmogorov: p(u, z, v, z') p(v, z', t, y) / p(u, z, t, y)
    # integrates to 1 over z', and the grid's hat functions sum to 1, so a
    # row of K without its identity block sums to the number of later
    # atoms.  The Gaussian rows, on the closed-form bridge rule, meet it
    # within 9.7e-10 at every z (the 32-node normal weights sum to 1 within
    # 4.9e-10).  The Cauchy rows miss by 5.6e-3 for |z| <= 2 and by 0.91 at
    # z = -6.17, where the narrower-factor tan rule misses the bridge's
    # peak (ROADMAP item 2): pinned here as a known defect
    times = (1 / 6, 1 / 2, 5 / 6)

    def misses(kernel):
        op = pt.MultiAtomOperator(kernel, times, 1.0, 0.0)
        later = np.repeat(np.arange(len(times))[::-1], len(op.z_grid))
        rows = np.sum(op.K.entries - np.eye(op.K.n), axis=1)
        return (np.abs(rows - later),
                np.tile(np.abs(op.z_grid) <= 2.0, len(times)))

    gauss, _ = misses(G)
    assert np.max(gauss) <= 1e-8
    cauchy, near = misses(st.cauchy_kernel(1))
    assert np.max(cauchy[near]) <= 6e-3
    assert np.max(cauchy) < 1.0


def test_multi_atom_cone_transfer_rows_match_adaptive_quadrature():
    # the cone kernel's bridges are integrated on the series engine's cone
    # rule, clustered at both ends of [z, y]: a transfer row from atom 0
    # to atom 1 sums to int kappa(u, z, v, z') kappa(v, z', t, y) dz' over
    # kappa(u, z, t, y), which vanishes where z >= y
    times = (1 / 6, 1 / 2, 5 / 6)
    op = pt.MultiAtomOperator(st.KAPPA, times, 1.0, 0.0)
    g = len(op.z_grid)
    rows = np.sum(op.K.entries[:g, g:2 * g], axis=1)
    u, v = times[:2]
    for z, row in zip(op.z_grid, rows):
        if z >= 0.0:
            assert row == 0.0
            continue
        ref = quad(lambda zp: st.KAPPA(u, z, v, zp) * st.KAPPA(v, zp, 1.0,
                                                               0.0),
                   z, 0.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert row == pytest.approx(ref / st.KAPPA(u, z, 1.0, 0.0),
                                    rel=1e-12)
    res = op.series_at(0.5, 0.0, -1.0)
    assert res.status == "converged" and math.isfinite(res.value)


# -- closed-form perturbed kernels ------------------------------------------------

def _atom_perturbed_kernel(u0, factor, closed_lo):
    """G times ``factor`` when the pair (s, t) straddles an atom at u0:
    s < u0 < t, or s <= u0 < t with ``closed_lo``."""
    def kernel(s, x, t, y):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        before = (s <= u0) if closed_lo else (s < u0)
        return np.where(before & (u0 < t), factor, 1.0) * G(s, x, t, y)
    return kernel


def test_dirac_perturbed_kernel_fails_composition_at_atom():
    # the single-atom series (1 + eta) p is not a semigroup: composing
    # through the atom time itself loses the factor
    pk = _atom_perturbed_kernel(0.5, 1.7, closed_lo=False)
    r = st.check_chapman_kolmogorov(pk, 0.2, 0.0, 0.5, 1.0, 0.3)
    base = float(G(0.2, 0.0, 1.0, 0.3))
    assert r.residual == pytest.approx(0.7 * base, rel=1e-7)


def test_alt_atom_perturbed_kernel_satisfies_composition():
    # (1 - eta)**-1 p for s <= u0 < t does compose, at the atom time too
    ak = _atom_perturbed_kernel(0.5, 1.0 / (1.0 - 0.3), closed_lo=True)
    for u in (0.3, 0.5, 0.8):
        r = st.check_chapman_kolmogorov(ak, 0.2, 0.0, u, 1.0, 0.3)
        assert r.residual <= 1e-8


# -- sliced certification ----------------------------------------------------------

def test_theorem46_zero_measure_trivial():
    intervals = time_uniform_slices(0.0, 1.0, 0.5)
    certs = pt.theorem46_certify(G, PerturbingMeasure(), 1.0, 0.0,
                                 intervals, n_samples=4)
    assert all(c.status == "VALID" for c in certs)
    assert all(c.theorem_bound == 1.0 for c in certs)


def test_theorem46_atomless_small():
    lam = 0.5
    intervals = time_uniform_slices(0.0, 1.0, 0.25)
    certs = pt.theorem46_certify(G, PerturbingMeasure(ConstDensity(lam)),
                                 1.0, 0.0, intervals, n_samples=8,
                                 quad_tol=1e-4)
    assert all(c.status == "VALID" for c in certs)
    # measured slice constant is lam * h
    assert certs[0].eta == pytest.approx(lam * 0.25, rel=1e-3)


def test_theorem46_hypothesis_fail_on_heavy_atom():
    # the atom sits in slice 1 = [0.5, 1): its constant exceeds eta there.
    # Slice 2 sees no measure, but its bound uses slice 1's (beta_21 = 1.5
    # > eta), so it gets no certificate either
    mu = PerturbingMeasure(atoms=(Atom(0.5, 1.5),))
    intervals = time_uniform_slices(0.0, 1.0, 0.5)
    certs = pt.theorem46_certify(G, mu, 1.0, 0.0, intervals, eta=0.5,
                                 n_samples=6, quad_tol=1e-3)
    assert [c.status for c in certs] == ["HYPOTHESIS_FAIL"] * 2
    # slice 1's own points lie at or after the atom: its series is p alone
    assert certs[0].measured_ratio == 1.0 and certs[0].theorem_bound == 2.0
    assert certs[0].note == "measured slice constant 1.5 exceeds eta=0.5"
    assert "slice 1" in certs[1].note
    # with eta measured it comes out above one: no certificate exists
    with pytest.raises(SmallnessError) as exc:
        pt.theorem46_certify(G, mu, 1.0, 0.0, intervals, n_samples=6,
                             quad_tol=1e-3)
    assert exc.value.eta > 1.0


def _cauchy_declared_eta(eta):
    mu = PerturbingMeasure(ConstDensity(0.6), (Atom(0.7, 0.3),))
    return pt.theorem46_certify(st.cauchy_kernel(1), mu, 1.0, 0.0,
                                time_uniform_slices(0.0, 1.0, 0.5),
                                eta=eta, n_samples=8, quad_tol=1e-3,
                                max_terms=10)


def test_theorem46_hypothesis_fail_covers_later_slices():
    # slice 1 fails (sup 0.60 > 0.32); slice 2's measured ratio 2.34 lies
    # above its bound 2.16 (the true ratio e^0.6 * 1.3 = 2.37 breaks it),
    # and only the quadrature tolerance (10 x 0.047) would pass it VALID
    certs = _cauchy_declared_eta(0.32)
    assert [c.status for c in certs] == ["HYPOTHESIS_FAIL"] * 2
    assert certs[0].note == "measured slice constant 0.6 exceeds eta=0.32"
    assert certs[1].measured_ratio > certs[1].theorem_bound
    assert certs[1].note.startswith("the bound rests on slice 1")


def test_theorem46_failing_slice_keeps_its_series_ratio():
    # the failing slice's own row once wrote its slice constant (0.60) as
    # measured_ratio with an empty truncation report; it keeps what
    # bounds.certify measured, as an eta that passes the slice shows
    failing = _cauchy_declared_eta(0.32)[0]
    passing = _cauchy_declared_eta(0.9)[0]
    assert passing.status != "HYPOTHESIS_FAIL"
    assert failing.measured_ratio == passing.measured_ratio > 1.0
    assert failing.truncation == passing.truncation
    assert failing.truncation.status == "converged"
    assert failing.sample_count == passing.sample_count == 8


def _slice_sups_by_loop(problem, n_samples):
    """The sampling loop theorem46_certify ran before it took its sups from
    estimate_constants: top and slice points together, per slice."""
    sups = []
    for j in range(1, problem.k + 1):
        pts = np.concatenate([problem.top_points(None, n_samples),
                              problem.slice_points(j, None, n_samples)])
        sups.append(float(np.max(problem.slice_ratio(j, pts))))
    return sups


def test_theorem46_sups_match_the_sampling_loop():
    # the sups never read the series, which each problem sums from its
    # own engine pair
    mu = PerturbingMeasure(ConstDensity(0.5), (Atom(0.6, 0.2),))
    intervals = time_uniform_slices(0.0, 1.0, 0.25)
    want = _slice_sups_by_loop(
        pt.TimeSliceProblem(G, mu, 0.0, 1.0, 0.0, intervals), 4)
    # measured eta: the largest sup, padded
    certs = pt.theorem46_certify(G, mu, 1.0, 0.0, intervals, n_samples=4)
    assert certs[0].eta == max(want) * (1.0 + 1e-6)
    # a tiny declared eta fails every slice on its own sup, which the
    # note names (the measured ratio stays the series ratio)
    certs = pt.theorem46_certify(G, mu, 1.0, 0.0, intervals, eta=1e-3,
                                 n_samples=4)
    assert [c.note for c in certs] == [
        f"measured slice constant {w:.4g} exceeds eta=0.001" for w in want]
    assert [c.status for c in certs] == ["HYPOTHESIS_FAIL"] * 4


def test_kato_certify_statuses():
    ck = st.cauchy_kernel(1)
    mu = PerturbingMeasure(ConstDensity(1.0))
    pts = np.array([[0.5, 0.0], [0.8, 0.3]])
    certs = pt.kato_certify(ck, mu, 0.1, 0.4, 1.0, 0.0, pts)
    assert all(c.status == "VALID" for c in certs)
    with pytest.raises(DomainError):
        pt.kato_certify(ck, mu, 0.1, 1.0, 1.0, 0.0, pts)


def test_kappa_slice_problem_constants():
    prob = pt.KappaSliceProblem(0.05, 0.1, 1.0, 1.0)
    assert prob.analytic_eta == pytest.approx(0.5, rel=1e-12)
    pts = prob.slice_points(1, n=6)
    assert np.all(pts[:, 0] + pts[:, 1] >= prob.levels[1])
    assert np.all(prob.slice_ratio(1, pts) <= prob.analytic_eta)


# -- sharpness of the attained bound (series equals closed form) -------------------

@given(hst.floats(0.1, 0.6), hst.floats(-1.0, 1.0))
@settings(max_examples=10, deadline=None)
def test_alt_series_never_exceeds_window_bound(s, x):
    times = (1 / 4, 1 / 2, 3 / 4)
    op = pt.MultiAtomOperator(G, times, 1.0, 0.0)
    eta = 0.5
    r = op.series_at(eta, s, x)
    L = sum(1 for u in times if u >= s)
    assert r.ratio <= (1 - eta) ** (-L) * (1 + 1e-6)
