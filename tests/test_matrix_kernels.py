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
    # +inf in f, seen by a positive weight and by a zero one
    ([[0.5, 0.25], [0.0, 0.5]], [1.0, np.inf], 40, "truncated"),
    ([[0.5, 0.0], [0.0, 0.0]], [1.0, np.inf], 10_000, "converged"),
    # the first term overflows; 0 * inf = 0 then ends the series
    ([[0.0, 1e300], [0.0, 0.0]], [0.0, 1e300], 10_000, "converged"),
    # overflow part-way through a growing series
    ([[1e100, 0.0], [0.0, 0.5]], [1.0, 1.0], 20, "truncated"),
    ([[1.2, 0.0], [0.0, 1.2]], [1.0, 1.0], 500, "diverging"),
    ([[0.95, 1.0, 0.0], [0.0, 0.95, 1.0], [0.0, 0.0, 0.95]],
     [1.0, 1.0, 1.0], 20, "truncated"),
])
def test_neumann_matches_reference_on_edge_cases(entries, f, max_terms,
                                                 status):
    res = _assert_same_bits(MatrixKernel(entries), f, max_terms=max_terms)
    assert res.status == status


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


def test_decay_random_with_measured_constant():
    rng = np.random.default_rng(21)
    for _ in range(40):
        K, chain = random_absorbing_instance(rng, contractive=True)
        f = np.ones(K.n)
        g = exact_series_sum(K, f)
        A = chain.sets[-1]
        c = max(float(np.max(g[A.mask])), 1.0) * (1 + 1e-12)
        assert check_geometric_decay(K, f, A, c, 20)


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
