import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kpert import matrix_kernels as mk
from kpert.errors import PreconditionError
from kpert.matrix_kernels import (AbsorbingChain, MatrixKernel, StateSet,
                                  apply, check_geometric_decay,
                                  exact_series_sum, is_absorbing,
                                  load_discrete_problem, neumann_series,
                                  random_absorbing_instance, restrict,
                                  save_discrete_problem, verify_power_identity,
                                  verify_slice_identity)


def _full(n):
    """The set of all n states."""
    return StateSet(np.ones(n, dtype=bool))


def dyadic_matrices(n, denom=16):
    return hst.lists(
        hst.lists(hst.integers(0, denom), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda rows: MatrixKernel(np.asarray(rows, dtype=float) / denom))


def dyadic_vectors(n, denom=16):
    return hst.lists(hst.integers(0, denom), min_size=n, max_size=n).map(
        lambda v: np.asarray(v, dtype=float) / denom)


# -- apply -------------------------------------------------------------------

def test_apply_single_entry():
    K = MatrixKernel([[0, 1], [0, 0]])
    np.testing.assert_array_equal(apply(K, [3, 5]), [5, 0])


def test_apply_zero_vector():
    K = MatrixKernel([[0.5, 0.25], [0.125, 0]])
    np.testing.assert_array_equal(apply(K, [0, 0]), [0, 0])


def test_apply_scaled_identity():
    K = MatrixKernel(0.5 * np.eye(2))
    np.testing.assert_array_equal(apply(K, [1, 1]), [0.5, 0.5])


def test_apply_saturating_infinity():
    # 0 * inf = 0 by convention; any positive weight on an inf entry saturates
    K = MatrixKernel([[0, 1], [0, 0]])
    np.testing.assert_array_equal(apply(K, [np.inf, 2]), [2, 0])
    np.testing.assert_array_equal(apply(K, [3, np.inf]), [np.inf, 0])


@pytest.mark.parametrize("bad", [[-1.0, 2.0], [np.nan, 2.0], [-np.inf, 2.0]])
def test_apply_rejects_negative_and_nan(bad):
    with pytest.raises(ValueError, match="nonnegative"):
        apply(MatrixKernel(np.eye(2)), bad)


def test_neumann_series_scale_ignores_infinite_entries():
    # the convergence test compares against the largest finite partial sum
    K = MatrixKernel([[0.5, 0.0], [0.0, 0.0]])
    res = neumann_series(K, [1.0, np.inf])
    assert res.status == "converged"
    assert res.value[0] == pytest.approx(2.0, rel=1e-13)
    assert res.value[1] == np.inf


def test_neumann_series_stops_on_the_finite_states_of_an_infinite_f():
    # the +inf state saturates every term; the finite one converges
    res = neumann_series(MatrixKernel([[0.25, 0.0], [0.0, 0.25]]),
                         [1.0, np.inf])
    assert res.status == "converged"
    assert res.n_terms < 36
    assert res.value[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert res.value[1] == np.inf


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(MatrixKernel(np.eye(2)), [1, 2, 3])


@given(dyadic_matrices(3), dyadic_vectors(3), dyadic_vectors(3))
@settings(max_examples=60, deadline=None)
def test_apply_additive_homogeneous_monotone(K, f, g):
    np.testing.assert_array_equal(apply(K, f + g), apply(K, f) + apply(K, g))
    np.testing.assert_array_equal(apply(K, 2.0 * f), 2.0 * apply(K, f))
    assert np.all(apply(K, f) <= apply(K, f + g))


# -- restrict / absorbing ----------------------------------------------------

def test_restrict_cases():
    K = MatrixKernel([[1, 2], [3, 4]])
    full = _full(2)
    np.testing.assert_array_equal(restrict(K, full, "left").entries, K.entries)
    np.testing.assert_array_equal(restrict(K, full, "right").entries, K.entries)
    empty = StateSet.empty(2)
    np.testing.assert_array_equal(restrict(K, empty, "right").entries,
                                  np.zeros((2, 2)))
    A = StateSet.from_indices(2, [0])
    np.testing.assert_array_equal(restrict(K, A, "right").entries,
                                  [[1, 0], [3, 0]])


def test_is_absorbing_basics():
    K = MatrixKernel([[0, 1], [0, 0]])
    assert is_absorbing(K, StateSet.empty(2))
    assert is_absorbing(K, _full(2))
    assert is_absorbing(K, StateSet.from_indices(2, [1]))
    assert not is_absorbing(K, StateSet.from_indices(2, [0]))


@given(dyadic_matrices(4), hst.lists(hst.booleans(), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_absorbing_iff_restriction_identity(K, mask):
    A = StateSet(np.asarray(mask))
    same = np.array_equal(restrict(K, A, "left").entries,
                          restrict(K, A, "both").entries)
    assert is_absorbing(K, A) == same


@given(hst.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_absorbing_algebra(seed):
    rng = np.random.default_rng(seed)
    K, chain = random_absorbing_instance(rng)
    A, B = chain.sets[0], chain.sets[-1]
    assert is_absorbing(K, StateSet(A.mask | B.mask))
    assert is_absorbing(K, StateSet(A.mask & B.mask))
    # a dominated kernel inherits every absorbing set
    L = MatrixKernel(K.entries * 0.5)
    assert is_absorbing(L, A)


# -- the restriction identities ----------------------------------------------

def test_power_identity_m1_reduces_to_definition():
    K = MatrixKernel([[0, 1], [0, 0]])
    assert verify_power_identity(K, StateSet.from_indices(2, [1]), 1)


def test_power_identity_block_triangular():
    rng = np.random.default_rng(3)
    # block upper triangular: the last two states only reach themselves
    e = np.triu(rng.integers(0, 16, size=(5, 5)).astype(float) / 16)
    K = MatrixKernel(e)
    A = StateSet.from_indices(5, [3, 4])
    assert verify_power_identity(K, A, 3)


def test_power_identity_rejects_non_absorbing():
    K = MatrixKernel([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError):
        verify_power_identity(K, StateSet.from_indices(2, [0]), 2)


def test_slice_identity_degenerate_cases():
    K = MatrixKernel([[0, 1], [0, 0]])
    B = StateSet.from_indices(2, [1])
    assert verify_slice_identity(K, B, B, 3)          # empty difference
    assert verify_slice_identity(K, StateSet.empty(2), _full(2), 2)


def test_slice_identity_nested_chain():
    rng = np.random.default_rng(11)
    e = np.tril(rng.integers(0, 16, size=(6, 6)).astype(float) / 16)
    K = MatrixKernel(e)
    A = StateSet.from_indices(6, [0, 1])
    B = StateSet.from_indices(6, [0, 1, 2, 3])
    assert verify_slice_identity(K, A, B, 2)


def test_slice_identity_requires_inclusion():
    K = MatrixKernel(np.zeros((3, 3)))
    with pytest.raises(PreconditionError):
        verify_slice_identity(K, StateSet.from_indices(3, [0, 1]),
                              StateSet.from_indices(3, [1, 2]), 1)


@given(hst.integers(0, 2 ** 31 - 1), hst.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_identities_hold_on_random_instances(seed, m):
    rng = np.random.default_rng(seed)
    K, chain = random_absorbing_instance(rng)
    for A in chain.sets:
        assert verify_power_identity(K, A, m)
    for i in range(chain.k):
        for j in range(i, chain.k):
            assert verify_slice_identity(K, chain.sets[i], chain.sets[j], m)


# -- series ------------------------------------------------------------------

def test_neumann_nilpotent_exact():
    K = MatrixKernel([[0, 1], [0, 0]])
    res = neumann_series(K, np.ones(2))
    assert res.status == "converged"
    np.testing.assert_array_equal(res.value, [2, 1])


def test_neumann_geometric():
    K = MatrixKernel(0.5 * np.eye(2))
    res = neumann_series(K, np.ones(2))
    assert res.status == "converged"
    np.testing.assert_allclose(res.value, [2, 2], rtol=1e-12)


def test_neumann_diverging():
    # spectral radius above one on the support of f (power growth)
    K = MatrixKernel(1.2 * np.eye(2))
    res = neumann_series(K, np.ones(2), max_terms=500)
    assert res.status == "diverging"
    assert np.max(np.abs(np.linalg.eigvals(K.entries))) >= 1.0


def test_neumann_growing_terms_with_radius_below_one_converge():
    # the terms grow for ~40 steps (a Jordan block), yet rho = 0.95: ten
    # growing terms once read as divergence
    K = MatrixKernel(np.array([[0.95, 1.0, 0.0],
                               [0.0, 0.95, 1.0],
                               [0.0, 0.0, 0.95]]))
    res = neumann_series(K, np.ones(3))
    assert res.status == "converged"
    np.testing.assert_allclose(res.value, [8420.0, 420.0, 20.0], rtol=1e-9)


def test_neumann_radius_only_counts_states_reaching_f():
    # state 0 has rho = 2 but no path into the support of f
    K = MatrixKernel(np.array([[2.0, 0.0, 0.0],
                               [0.0, 0.95, 1.0],
                               [0.0, 0.0, 0.95]]))
    res = neumann_series(K, np.array([0.0, 0.0, 1.0]))
    assert res.status == "converged"
    np.testing.assert_allclose(res.value, [0.0, 400.0, 20.0], rtol=1e-9)
    assert neumann_series(K, np.ones(3)).status == "diverging"


@pytest.mark.parametrize("entries", [
    [[1.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]])
def test_neumann_radius_one_with_flat_terms_diverges(entries):
    # rho = 1 exactly: the terms never grow, so only the test at max_terms
    # tells this series from a slowly converging one
    K = MatrixKernel(entries)
    assert mk._radius_toward(K, np.ones(K.n)) == 1.0
    res = neumann_series(K, np.ones(K.n))
    assert (res.status, res.n_terms) == ("diverging", 10_000)


def test_neumann_radius_below_one_at_max_terms_stays_truncated():
    res = neumann_series(MatrixKernel([[0.999]]), np.ones(1))
    assert (res.status, res.n_terms) == ("truncated", 10_000)


def _reference_neumann(K, f, max_terms=10_000, tail_tol=1e-14):
    """neumann_series with every term through apply and the growth test
    over a list of term norms: the loop the lean one must match bit for
    bit."""
    f = np.asarray(f, dtype=float)
    total = f.copy()
    term = f.copy()
    norms = [float(np.max(term))]
    radius_checked = False
    for m in range(1, max_terms + 1):
        term = apply(K, term)
        total = total + term
        if np.isinf(f).any():
            tn = float(np.max(term[np.isfinite(total)], initial=0.0))
        else:
            tn = float(term.max()) if term.size else 0.0
        norms.append(tn)
        scale = float(total.max(initial=1.0))
        if not math.isfinite(scale):
            scale = float(np.max(total[np.isfinite(total)], initial=1.0))
        if tn <= tail_tol * max(scale, 1e-300):
            return mk.MatrixSeriesResult(total, m, "converged", tn)
        if not radius_checked and len(norms) >= 11 and all(
                norms[-i] > norms[-i - 1] for i in range(1, 11)):
            radius_checked = True
            if mk._radius_toward(K, f) >= 1.0:
                return mk.MatrixSeriesResult(total, m, "diverging", tn)
    if not radius_checked and mk._radius_toward(K, f) >= 1.0:
        return mk.MatrixSeriesResult(total, max_terms, "diverging", norms[-1])
    return mk.MatrixSeriesResult(total, max_terms, "truncated", norms[-1])


def _assert_same_bits(K, f, **kw):
    got, want = neumann_series(K, f, **kw), _reference_neumann(K, f, **kw)
    assert (got.n_terms, got.status) == (want.n_terms, want.status)
    assert got.value.tobytes() == want.value.tobytes()
    assert float(got.tail_estimate).hex() == float(want.tail_estimate).hex()
    return got


def test_neumann_matches_reference_on_random_instances():
    rng = np.random.default_rng(29)
    for _ in range(200):
        K, _ = random_absorbing_instance(rng, contractive=True)
        _assert_same_bits(K, rng.random(K.n))     # not dyadic: rounding shows


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("entries, f, max_terms, status", [
    # +inf in f, seen by a positive weight and by a zero one; the first
    # puts +inf in every partial sum, which is then exact
    ([[0.5, 0.25], [0.0, 0.5]], [1.0, np.inf], 40, "converged"),
    ([[0.5, 0.0], [0.0, 0.0]], [1.0, np.inf], 10_000, "converged"),
    # the first term overflows; 0 * inf = 0 then ends the series
    ([[0.0, 1e300], [0.0, 0.0]], [0.0, 1e300], 10_000, "converged"),
    # overflow part-way through a growing series; the overflowed terms
    # stop growing, so the radius test runs at max_terms
    ([[1e100, 0.0], [0.0, 0.5]], [1.0, 1.0], 20, "diverging"),
    ([[1.2, 0.0], [0.0, 1.2]], [1.0, 1.0], 500, "diverging"),
    ([[0.95, 1.0, 0.0], [0.0, 0.95, 1.0], [0.0, 0.0, 0.95]],
     [1.0, 1.0, 1.0], 20, "truncated"),
])
def test_neumann_matches_reference_on_edge_cases(entries, f, max_terms,
                                                 status):
    K = MatrixKernel(entries)
    for _ in range(3):                  # the second and third read the memo
        res = _assert_same_bits(K, f, max_terms=max_terms)
        assert res.status == status


def _shift(n, weights=None):
    """K[x, x + 1] = 1, or weights[x]: K^m e_{n-1} sits on state n-1-m."""
    e = np.zeros((n, n))
    e[np.arange(n - 1), np.arange(1, n)] = 1.0 if weights is None else weights
    return MatrixKernel(e)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_neumann_blocks_stop_at_a_block_edge(shift):
    # a nilpotent shift on n states stops at exactly n terms
    n = mk._BLOCK + shift
    res = _assert_same_bits(_shift(n), np.ones(n))
    assert (res.status, res.n_terms) == ("converged", n)


@pytest.mark.parametrize("max_terms", [mk._BLOCK + 5, 2 * mk._BLOCK - 1])
def test_neumann_blocks_truncate_off_a_block_edge(max_terms):
    res = _assert_same_bits(MatrixKernel([[0.999]]), np.ones(1),
                            max_terms=max_terms)
    assert (res.status, res.n_terms) == ("truncated", max_terms)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("at", [10, mk._BLOCK, mk._BLOCK + 1])
def test_neumann_blocks_overflow_inside_and_on_block_edges(at):
    # flat terms 1e300 until the weight 1e300 on term `at` overflows to
    # +inf (mid-block, on a block's last row, on a block's first row);
    # apply then carries the +inf down the shift until 0 * inf = 0
    n = mk._BLOCK + 8
    weights = np.ones(n - 1)
    weights[n - 1 - at] = 1e300
    f = np.zeros(n)
    f[-1] = 1e300
    res = _assert_same_bits(_shift(n, weights), f)
    assert (res.status, res.n_terms) == ("converged", n)
    assert np.isinf(res.value[:n - at]).all()
    assert np.isfinite(res.value[n - at:]).all()


def test_neumann_blocks_overflow_warns_once_per_kept_term():
    weights = np.ones(mk._BLOCK + 7)
    weights[mk._BLOCK - 3] = 1e300
    f = np.zeros(mk._BLOCK + 8)
    f[-1] = 1e300
    with pytest.warns(RuntimeWarning, match="overflow") as caught:
        neumann_series(_shift(len(f), weights), f)
    assert len(caught) == 1


def test_block_rows_shrink_past_128_states():
    assert [mk._block_rows(n) for n in (1, 8, 128, 129, 256, 576, 4096)] == \
        [mk._BLOCK] * 3 + [31, 16, 7, 2]


@pytest.mark.parametrize("stop", [-1, 0, 1, 17])
def test_neumann_blocks_stop_at_a_large_kernel_block_edge(stop):
    # 256 states take blocks of 16 rows: a shift started on state
    # chain - 1 stops at exactly chain terms, around a block edge
    n = 256
    rows = mk._block_rows(n)
    chain = rows + stop
    f = np.zeros(n)
    f[chain - 1] = 1.0
    res = _assert_same_bits(_shift(n), f)
    assert (res.status, res.n_terms) == ("converged", chain)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_neumann_blocks_overflow_on_a_large_kernel_block_edge():
    n = 256
    at = mk._block_rows(n)
    weights = np.ones(n - 1)
    weights[n - 1 - at] = 1e300
    f = np.zeros(n)
    f[-1] = 1e300
    res = _assert_same_bits(_shift(n, weights), f)
    assert (res.status, res.n_terms) == ("converged", n)


@pytest.mark.parametrize("chain", [10, mk._BLOCK + 7])
def test_neumann_blocks_radius_test_fires_mid_block(chain):
    # flat terms down a shift, then a self-loop of weight 2 doubles them:
    # the tenth growing term lands mid-block and the radius is 2
    e = _shift(chain).entries.copy()
    e[0, 0] = 2.0
    K = MatrixKernel(e)
    f = np.zeros(chain)
    f[-1] = 1.0
    res = _assert_same_bits(K, f)
    assert (res.status, res.n_terms) == ("diverging", chain + 9)


def _times(a, f):
    """a * f with 0 * inf = 0, entry by entry."""
    f = np.asarray(f, dtype=float)
    return np.array([0.0 if a == 0 or v == 0 else a * v for v in f])


def _reference_decay(K, f, A, c, n_max):
    """check_geometric_decay one term at a time through apply, stopping at
    the first violation: the loop the blocked check must agree with."""
    g = neumann_series(K, f).value
    if np.any(A.mask & (g > _times(c, f) * (1 + 1e-12))):
        raise PreconditionError("series hypothesis fails")
    slack = 1 + 1e-12
    rho = 1.0 - 1.0 / c
    term = np.asarray(f, dtype=float)
    for n in range(n_max + 1):
        if not (term[A.mask] <= _times(c * rho ** n, f[A.mask]) * slack
                + 1e-300).all():
            return False
        term = apply(K, term)
    return bool(np.all(g[A.mask] <= _times(c * c, f[A.mask]) * slack
                       + 1e-300))


def test_decay_matches_reference_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(60):
        K, chain = random_absorbing_instance(rng, contractive=True)
        f = rng.random(K.n) + 0.5
        g = exact_series_sum(K, f)
        n_max = int(rng.integers(0, 2 * mk._BLOCK + 2))
        for A in chain.sets:
            tight = max(float(np.max(g[A.mask] / f[A.mask])), 1.0)
            for c in (tight * (1 + 1e-12), 2.0 * tight, tight * tight):
                want = _reference_decay(K, f, A, c, n_max)
                assert check_geometric_decay(K, f, A, c, n_max) == want


@pytest.mark.parametrize("entries, f, c, n_max, want", [
    # c = inf: at f = 0 the bound c f is inf * 0 = 0, which the zero
    # terms there meet
    ([[0.5, 0.0], [0.0, 0.5]], [1.0, 0.0], np.inf, 0, True),
    ([[0.5, 0.0], [0.0, 0.5]], [1.0, 0.0], np.inf, 40, True),
    # c = 1: rho = 0, and at f = inf the bound 0 * inf is 0 from n = 1
    ([[0.0, 0.0], [0.0, 0.0]], [1.0, np.inf], 1.0, 1, True),
    ([[0.0, 0.0], [0.0, 0.0]], [1.0, np.inf], 1.0, 0, True),
    ([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0], 1.0, 0, True),
])
def test_decay_matches_reference_on_edge_cases(entries, f, c, n_max, want):
    K, f, A = MatrixKernel(entries), np.asarray(f), _full(2)
    assert _reference_decay(K, f, A, c, n_max) == want
    assert check_geometric_decay(K, f, A, c, n_max) == want
    # again from the memo, after its rows were extended past n_max
    for n in (n_max + 3, n_max):
        assert check_geometric_decay(K, f, A, c, n) == \
            _reference_decay(K, f, A, c, n)


def test_decay_hypothesis_takes_inf_times_zero_as_zero():
    # c = inf and f = 0 at state 1, which the series reaches: c f is 0
    # there, so the hypothesis sum <= c f fails at state 1
    K = MatrixKernel([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(PreconditionError, match="state 1"):
        check_geometric_decay(K, np.array([1.0, 0.0]), _full(2), np.inf)


def test_series_solve_cross_check():
    rng = np.random.default_rng(8)
    for _ in range(25):
        K, _ = random_absorbing_instance(rng, contractive=True)
        f = np.ones(K.n)
        it = neumann_series(K, f)
        np.testing.assert_allclose(it.value, exact_series_sum(K, f),
                                   rtol=1e-10)


# -- geometric decay ----------------------------------------------------------

def test_decay_case_n0_trivial():
    K = MatrixKernel(np.zeros((2, 2)))
    assert check_geometric_decay(K, np.ones(2), _full(2), 1.0, 5)


def test_decay_scaled_identity_closed_form():
    eta = 0.5
    K = MatrixKernel(eta * np.eye(3))
    c = 1.0 / (1.0 - eta)
    assert check_geometric_decay(K, np.ones(3), _full(3), c, 25)


def test_decay_reports_violating_state():
    K = MatrixKernel(0.5 * np.eye(2))
    with pytest.raises(PreconditionError, match="state"):
        check_geometric_decay(K, np.ones(2), _full(2), 1.5, 5)


@pytest.mark.parametrize("c", [0.5, float("nan")])
def test_decay_rejects_c_below_one_or_nan(c):
    # nan once passed the c < 1 guard and the check returned False
    K = MatrixKernel(0.5 * np.eye(2))
    with pytest.raises(ValueError, match="at least 1"):
        check_geometric_decay(K, np.ones(2), _full(2), c)


def test_decay_rejects_a_series_that_did_not_converge():
    # sum_m K^m f stops at 10,000 terms with 10001 <= c f: the hypothesis
    # was once read off that partial sum
    K = MatrixKernel([[1.0]])
    with pytest.raises(PreconditionError, match="diverging"):
        check_geometric_decay(K, np.ones(1), _full(1), 2e4)


def test_decay_random_with_measured_constant():
    rng = np.random.default_rng(21)
    for _ in range(40):
        K, chain = random_absorbing_instance(rng, contractive=True)
        f = np.ones(K.n)
        g = exact_series_sum(K, f)
        A = chain.sets[-1]
        c = max(float(np.max(g[A.mask])), 1.0) * (1 + 1e-12)
        assert check_geometric_decay(K, f, A, c, 20)


# -- the memo on an immutable kernel -------------------------------------------

@pytest.mark.bits
def test_memoised_series_matches_reference_on_repeat_calls():
    # every call after the first reads the memo; a second f replaces the
    # first, which is then summed again
    rng = np.random.default_rng(41)
    for _ in range(60):
        K, _ = random_absorbing_instance(rng, contractive=True)
        f, g = rng.random(K.n), rng.random(K.n)
        for v in (f, f, g, f, f):
            _assert_same_bits(K, v)
        _assert_same_bits(K, f, max_terms=5)
        _assert_same_bits(K, f)


@pytest.mark.bits
def test_memoised_decay_matches_reference_on_random_instances():
    # n_max goes down, up past the rows held, and down again, so the
    # memo's rows are cut and extended
    rng = np.random.default_rng(43)
    for _ in range(40):
        K, chain = random_absorbing_instance(rng, contractive=True)
        f = rng.random(K.n) + 0.5
        g = exact_series_sum(K, f)
        for n_max in (20, 3, 2 * mk._BLOCK + 1, 0, 20):
            rows = [f]
            for _ in range(n_max):
                rows.append(apply(K, rows[-1]))
            assert mk._term_rows(K, f, n_max).tobytes() == \
                np.array(rows).tobytes()
            for A in chain.sets:
                tight = max(float(np.max(g[A.mask] / f[A.mask])), 1.0)
                for c in (tight * (1 + 1e-12), 2.0 * tight):
                    want = _reference_decay(K, f, A, c, n_max)
                    assert check_geometric_decay(K, f, A, c, n_max) == want


@pytest.mark.bits
@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_memoised_identities_match_a_fresh_kernel():
    # non-dyadic weights on the absorbing pattern, some of them near 1e160
    # so that K^2 overflows and 0 * inf puts NaN into K^3: then identities
    # fail, and the memo must give every verdict a fresh kernel gives,
    # with K^m of matrix_power's bits
    rng = np.random.default_rng(47)
    verdicts = set()
    for i in range(40):
        K, chain = random_absorbing_instance(rng)
        scale = 1e160 if i % 4 == 0 else 1.0
        K = MatrixKernel(K.entries * scale
                         * (1.0 + rng.random(K.entries.shape)))
        for m in (1, 2, 3, 2):
            assert mk._power(K, m).tobytes() == \
                np.linalg.matrix_power(K.entries, m).tobytes()
            for A in chain.sets:
                got = verify_power_identity(K, A, m)
                assert got == verify_power_identity(
                    MatrixKernel(K.entries), A, m)
                verdicts.add(got)
            for a in range(chain.k):
                for b in range(a, chain.k):
                    A, B = chain.sets[a], chain.sets[b]
                    got = verify_slice_identity(K, A, B, m)
                    assert got == verify_slice_identity(
                        MatrixKernel(K.entries), A, B, m)
                    verdicts.add(got)
    assert verdicts == {True, False}


def test_series_value_belongs_to_the_caller():
    K, f = MatrixKernel([[0.5, 0.25], [0.0, 0.5]]), np.ones(2)
    first = neumann_series(K, f)
    want = first.value.tobytes()
    first.value[:] = -1.0
    assert neumann_series(K, f).value.tobytes() == want
    g = neumann_series(K, f).value
    g[0] = 7.0                                  # writable, and a copy
    assert neumann_series(K, f).value.tobytes() == want


def test_kernel_keeps_a_read_only_copy_of_its_entries():
    e = np.array([[0.5, 0.25], [0.0, 0.5]])
    K, f = MatrixKernel(e), np.ones(2)
    want = neumann_series(K, f).value.tobytes()
    assert e.flags.writeable and not K.entries.flags.writeable
    e[0, 1] = 0.75
    assert K.entries[0, 1] == 0.25
    assert neumann_series(K, f).value.tobytes() == want
    assert check_geometric_decay(K, f, _full(2), 4.0 * (1 + 1e-12), 5)
    with pytest.raises(ValueError, match="read-only"):
        K.entries[0, 0] = 1.0


def test_kernels_and_sets_compare_and_hash_by_identity():
    # the generated __eq__ compared the array fields: == raised ValueError
    # and hash raised TypeError
    K1, K2 = MatrixKernel(np.eye(2)), MatrixKernel(np.eye(2))
    A, B = StateSet.from_indices(2, [0]), StateSet.from_indices(2, [0])
    assert K1 == K1 and K1 != K2 and A == A and A != B
    assert hash(K1) == hash(K1) and hash(A) == hash(A)
    seen = {K1: "K1", K2: "K2", A: "A", B: "B"}
    assert [seen[x] for x in (K1, K2, A, B)] == ["K1", "K2", "A", "B"]


def test_decay_checks_on_one_pair_sum_once(monkeypatch):
    # k sets of a chain, each checked twice, make one summation and one
    # run of term rows; another f is summed anew
    calls = {"sum": 0, "rows": 0}
    sum_series, term_blocks = mk._sum_series, mk._term_blocks

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(mk, "_sum_series", counted("sum", sum_series))
    monkeypatch.setattr(mk, "_term_blocks", counted("rows", term_blocks))
    K = MatrixKernel([[0.25, 0.0, 0.0], [0.25, 0.25, 0.0],
                      [0.25, 0.25, 0.25]])
    f = np.ones(3)
    chain = AbsorbingChain(tuple(StateSet.from_indices(3, range(j + 1))
                                 for j in range(3)))
    for A in chain.sets * 2:
        assert check_geometric_decay(K, f, A, 16.0, 20)
    assert calls == {"sum": 1, "rows": 2}
    check_geometric_decay(K, 2.0 * f, chain.sets[-1], 16.0, 20)
    assert calls == {"sum": 2, "rows": 4}


def test_memo_hit_still_checks_the_input():
    # state 1 is absorbing, state 0 is not
    K, f = MatrixKernel([[0.25, 0.25], [0.0, 0.5]]), np.ones(2)
    A, B = StateSet.from_indices(2, [1]), _full(2)
    assert check_geometric_decay(K, f, A, 2.0, 5)
    assert verify_power_identity(K, A, 2)
    assert verify_slice_identity(K, A, B, 2)
    with pytest.raises(ValueError, match="at least 1"):
        check_geometric_decay(K, f, A, 0.5, 5)
    with pytest.raises(PreconditionError, match="not absorbing"):
        check_geometric_decay(K, f, StateSet.from_indices(2, [0]), 2.0, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        check_geometric_decay(K, np.array([-1.0, 1.0]), A, 2.0, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        neumann_series(K, np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="length 3"):
        neumann_series(K, np.ones(3))
    with pytest.raises(PreconditionError, match="not absorbing"):
        verify_power_identity(K, StateSet.from_indices(2, [0]), 2)
    with pytest.raises(ValueError, match="positive integer"):
        verify_power_identity(K, A, 0)
    with pytest.raises(TypeError):
        verify_power_identity(K, A, 2.0)
    with pytest.raises(PreconditionError, match="contained"):
        verify_slice_identity(K, B, A, 2)
    diverging = MatrixKernel([[1.0]])
    for _ in range(2):                  # the status is checked on each call
        with pytest.raises(PreconditionError, match="diverging"):
            check_geometric_decay(diverging, np.ones(1), _full(1), 2e4)


# -- chain and serialization ---------------------------------------------------

def test_chain_validation():
    s1 = StateSet.from_indices(3, [0])
    s2 = StateSet.from_indices(3, [0, 1])
    chain = AbsorbingChain((s1, s2))
    slices = chain.slices
    assert [list(s.indices()) for s in slices] == [[0], [1]]
    with pytest.raises(ValueError):
        AbsorbingChain((s2, s1))


def test_chain_slices_partition():
    rng = np.random.default_rng(5)
    K, chain = random_absorbing_instance(rng)
    masks = [s.mask for s in chain.slices]
    stacked = np.sum(masks, axis=0)
    assert np.all(stacked <= 1)
    assert np.array_equal(np.sum(masks, axis=0) > 0, chain.sets[-1].mask)


def test_json_round_trip(tmp_path):
    K = MatrixKernel([[0.5, 0], [0.25, 0.5]])
    sets = {"A1": StateSet.from_indices(2, [0]), "A2": _full(2)}
    path = tmp_path / "problem.json"
    save_discrete_problem(path, K, sets, f=[1.0, 2.0])
    K2, sets2, f2 = load_discrete_problem(path)
    np.testing.assert_array_equal(K.entries, K2.entries)
    assert list(sets2["A1"].indices()) == [0]
    np.testing.assert_array_equal(f2, [1.0, 2.0])
    doc = json.loads(path.read_text())
    assert set(doc) == {"n", "entries", "sets", "f"}
