import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from kpert import matrix_kernels as mk
from kpert.bounds import (BoundCertificate, Interval, MatrixSliceProblem,
                          TruncationReport, certify, corollary_bound,
                          diagonal_levels, estimate_constants, gronwall_bound,
                          smallest_admissible_N, theorem_bound,
                          time_uniform_slices)
from kpert.errors import DomainError, PreconditionError, SmallnessError


def _full(n):
    """The set of all n states."""
    return mk.StateSet(np.ones(n, dtype=bool))


# -- gronwall ------------------------------------------------------------------

def test_gronwall_bound_examples():
    assert gronwall_bound(1.0, 0.0, 7) == 1.0
    assert gronwall_bound(1.0, 1.0, 4) == 8.0
    assert gronwall_bound(0.0, 3.0, 5) == 0.0
    with pytest.raises(ValueError):
        gronwall_bound(1.0, 1.0, 0)


def test_gronwall_bound_past_float_range_raises():
    # 2**1023 is the largest power of two below the largest float
    assert gronwall_bound(1.0, 1.0, 1024) == 2.0 ** 1023
    for alpha, j in ((1.0, 1025), (2.0, 1024), (1.0, 5000)):
        with pytest.raises(DomainError, match=f"overflows a float at "
                                              f"slice {j}"):
            gronwall_bound(alpha, 1.0, j)


def test_gronwall_recursion_equality():
    # running the recursion with equality reproduces the closed form
    alpha, delta = 1.0, 1.0
    gamma = []
    for _ in range(6):
        gamma.append(alpha + delta * sum(gamma))
    assert gamma[3] == 8.0
    assert gamma == [gronwall_bound(alpha, delta, j) for j in range(1, 7)]


@given(hst.floats(0.0, 4.0), hst.floats(0.0, 2.0),
       hst.lists(hst.floats(0.0, 1.0), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_gronwall_random_hypothesis_satisfying(alpha, delta, fractions):
    # gamma_j a random fraction of its allowed maximum
    # alpha + delta * sum_{i<j} gamma_i stays below the closed form
    gamma = []
    for frac in fractions:
        gamma.append(frac * (alpha + delta * sum(gamma)))
    for j, g in enumerate(gamma, start=1):
        assert g <= gronwall_bound(alpha, delta, j) * (1 + 1e-12)


# -- bound formulas --------------------------------------------------------------

def test_theorem_bound_examples():
    assert theorem_bound(0.0, 0.0, 9) == 1.0
    assert theorem_bound(0.5, 0.5, 2) == 4.0
    with pytest.raises(DomainError, match="local smallness"):
        theorem_bound(1.0, 0.5, 1)


def test_theorem_bound_matches_power_form():
    for eta in np.linspace(0.0, 0.99, 100):
        for j in (1, 2, 3, 7):
            lhs = theorem_bound(eta, eta, j)
            rhs = (1.0 - eta) ** (-j)
            assert abs(lhs - rhs) <= 1e-12 * rhs


@given(hst.floats(0.01, 0.9), hst.floats(0.0, 3.0), hst.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_theorem_bound_monotone(eta, beta, j):
    b = theorem_bound(eta, beta, j)
    assert theorem_bound(min(eta + 0.05, 0.95), beta, j) > b * (1 - 1e-12)
    assert theorem_bound(eta, beta + 0.1, j) >= b
    assert theorem_bound(eta, beta, j + 1) >= b


def test_corollary_bound_examples():
    # c=2, N=2 gives eta = 2 * (1/2)^2 = 1/2
    assert corollary_bound(2.0, 2, 1.0, 1) == pytest.approx(4.0)
    with pytest.raises(DomainError, match="larger N"):
        corollary_bound(2.0, 1, 1.0, 1)
    with pytest.raises(ValueError):
        corollary_bound(1.0, 2, 1.0, 1)


def test_smallest_admissible_N():
    assert smallest_admissible_N(1.0) == 1
    assert smallest_admissible_N(2.0) == 2
    c = 3.0
    N = smallest_admissible_N(c)
    assert c * (1 - 1 / c) ** N < 1 <= c * (1 - 1 / c) ** (N - 1)


# -- constants and certification ---------------------------------------------------

def fixture_problem():
    K = mk.MatrixKernel([[0.5, 0, 0], [0.25, 0.5, 0], [0.25, 0.25, 0.5]])
    chain = mk.AbsorbingChain(tuple(
        mk.StateSet.from_indices(3, range(j + 1)) for j in range(3)))
    return MatrixSliceProblem(K, np.ones(3), chain)


def test_estimate_constants_zero_kernel():
    K = mk.MatrixKernel(np.zeros((2, 2)))
    chain = mk.AbsorbingChain((mk.StateSet.from_indices(2, [0]),
                               _full(2)))
    const = estimate_constants(MatrixSliceProblem(K, np.ones(2), chain))
    assert const.eta == 0.0 and const.beta == 0.0


def test_estimate_constants_scaled_identity_exact():
    eta = 0.375
    K = mk.MatrixKernel(eta * np.eye(2))
    chain = mk.AbsorbingChain((_full(2),))
    const = estimate_constants(MatrixSliceProblem(K, np.ones(2), chain))
    assert const.per_slice_eta == (eta,)


def test_estimate_constants_flags_zero_control():
    K = mk.MatrixKernel([[0.0, 0.0], [0.5, 0.0]])
    chain = mk.AbsorbingChain((_full(2),))
    const = estimate_constants(MatrixSliceProblem(K, np.array([1.0, 0.0]),
                                                  chain))
    assert math.isinf(const.eta)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_matrix_certify_sums_the_series_once(k, monkeypatch):
    # one summation for all k slices, whichever cache holds it
    calls = []
    sum_series = mk._sum_series
    monkeypatch.setattr(mk, "_sum_series",
                        lambda *a: calls.append(1) or sum_series(*a))
    K = mk.MatrixKernel(np.tril(np.full((4, 4), 0.125)))
    chain = mk.AbsorbingChain(tuple(
        mk.StateSet.from_indices(4, range(5 - k + i)) for i in range(k)))
    prob = MatrixSliceProblem(K, np.ones(4), chain)
    const = estimate_constants(prob)
    certs = certify(prob, const.eta, const.beta)
    assert [c.status for c in certs] == ["VALID"] * k
    assert len(calls) == 1


class _SampledProblem:
    """Two sampled slices; slice 1 draws no point, and summing a series
    there fails the test."""

    exact = False
    k = 2

    def slice_points(self, j, rng, n):
        return np.ones((0 if j == 1 else n, 2))

    def control(self, pts):
        return np.ones(len(pts))

    def series(self, pts):
        assert len(pts) > 0
        return np.full(len(pts), 1.5), TruncationReport()


def test_certify_sampled_slice_without_points_is_inconclusive():
    empty, full = certify(_SampledProblem(), 0.25, 0.25, n_samples=3)
    assert (empty.status, empty.sample_count, empty.measured_ratio) == \
        ("INCONCLUSIVE", 0, 0.0)
    assert empty.note == "no sample point in the slice"
    assert empty.theorem_bound == theorem_bound(0.25, 0.25, 1)
    assert (full.status, full.sample_count, full.measured_ratio) == \
        ("VALID", 3, 1.5)


@pytest.mark.parametrize("error, status", [(1e-3, "VALID"),
                                           (0.0, "INVALID")])
def test_certify_tolerance_keeps_the_largest_error_so_far(error, status):
    # slice 2 reads 0.5 % over its bound and reports no error of its own;
    # slice 1's series error 1e-3 gives it a tolerance of 1 %
    over = theorem_bound(0.25, 0.25, 2) * 1.005

    class Problem:
        exact = False
        k = 2

        def slice_points(self, j, rng, n):
            return np.full((n, 2), float(j))

        def control(self, pts):
            return np.ones(len(pts))

        def series(self, pts):
            if pts[0, 0] == 1.0:
                return np.ones(len(pts)), TruncationReport(quad_error=error)
            return np.full(len(pts), over), TruncationReport()

    first, second = certify(Problem(), 0.25, 0.25, n_samples=2)
    assert first.status == "VALID"
    assert second.truncation.quad_error == 0.0
    assert (second.measured_ratio, second.status) == (over, status)


def test_certify_exact_empty_slice_is_summed():
    # a matrix chain whose second set adds no state: an empty slice of an
    # exact problem stays VALID with ratio 0
    K = mk.MatrixKernel([[0.25, 0.0], [0.25, 0.25]])
    A1 = mk.StateSet.from_indices(2, [0])
    chain = mk.AbsorbingChain((A1, A1, _full(2)))
    certs = certify(MatrixSliceProblem(K, np.ones(2), chain), 0.5, 0.5)
    assert [(c.status, c.sample_count) for c in certs] == \
        [("VALID", 1), ("VALID", 0), ("VALID", 1)]
    assert certs[1].measured_ratio == 0.0


def test_certify_checks_the_largest_bound_before_any_series():
    with pytest.raises(DomainError, match="slice 2000"):
        certify(type("Many", (_SampledProblem,), {"k": 2000})(), 0.5, 0.5)


def test_matrix_slice_apply_matches_restriction():
    # K (1_S f) in place of (K 1_S) f: the same bits, +inf entries included
    rng = np.random.default_rng(17)
    for trial in range(100):
        K, chain = mk.random_absorbing_instance(rng, contractive=True)
        f = rng.random(K.n)
        if trial % 4 == 0:
            f[rng.integers(K.n)] = np.inf
        prob = MatrixSliceProblem(K, f, chain)
        pts = np.arange(K.n)
        for j, S in enumerate(chain.slices, start=1):
            want = mk.apply(mk.restrict(K, S, "right"), f)
            assert prob.slice_apply(j, pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("f", [[1.0, np.nan], [1.0, -1.0], [1.0],
                               [1.0, 1.0, 1.0], [[1.0], [1.0]]])
def test_matrix_problem_rejects_bad_control(f):
    chain = mk.AbsorbingChain((_full(2),))
    with pytest.raises(ValueError, match="control function"):
        MatrixSliceProblem(mk.MatrixKernel(0.5 * np.eye(2)), f, chain)


def test_certify_zero_kernel_valid():
    K = mk.MatrixKernel(np.zeros((2, 2)))
    chain = mk.AbsorbingChain((mk.StateSet.from_indices(2, [0]),
                               _full(2)))
    prob = MatrixSliceProblem(K, np.ones(2), chain)
    const = estimate_constants(prob)
    certs = certify(prob, const.eta, const.beta)
    assert all(c.status == "VALID" for c in certs)
    assert all(c.measured_ratio == 1.0 for c in certs)
    assert all(c.theorem_bound >= 1.0 for c in certs)


def test_certify_fixture_ratios():
    prob = fixture_problem()
    const = estimate_constants(prob)
    assert const.eta == 0.5 and const.beta == 0.5
    certs = certify(prob, const.eta, const.beta)
    measured = [c.measured_ratio for c in certs]
    assert all(c.status == "VALID" for c in certs)
    for got, cap in zip(measured, (2.0, 4.0, 8.0)):
        assert got <= cap * (1 + 1e-9)


def test_certify_requires_smallness():
    prob = fixture_problem()
    with pytest.raises(SmallnessError) as exc:
        certify(prob, 1.0, 1.0)
    assert isinstance(exc.value, PreconditionError) and exc.value.eta == 1.0


def test_certify_invalid_when_constants_understated():
    # claiming eta far below the truth must surface as INVALID, not pass
    prob = fixture_problem()
    certs = certify(prob, 0.05, 0.05)
    assert certs[0].status == "INVALID"


def test_certificate_serialization_keys():
    cert = BoundCertificate(1, 0.5, 0.5, 2.0, 1.5, "VALID", 10,
                            TruncationReport(3, "converged", 0.0, 1e-9))
    doc = cert.to_dict()
    assert set(doc) == {"slice", "eta", "beta", "bound", "measured_ratio",
                        "margin", "status", "samples", "truncation", "note"}
    assert doc["margin"] == pytest.approx(0.5)


@given(hst.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_soundness_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    K, chain = mk.random_absorbing_instance(rng, contractive=True)
    prob = MatrixSliceProblem(K, np.ones(K.n), chain)
    const = estimate_constants(prob)
    if const.eta < 1.0:
        assert all(c.status == "VALID"
                   for c in certify(prob, const.eta, const.beta))


@given(hst.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_corollary_bound_dominates_measured_series(seed):
    rng = np.random.default_rng(seed)
    K, chain = mk.random_absorbing_instance(rng, contractive=True)
    f = np.ones(K.n)
    slices = chain.slices
    # per-slice summability constant for K_j = K 1_{S_j}
    c = 1.0
    for S in slices:
        Kj = mk.restrict(K, S, "right")
        g = mk.neumann_series(Kj, f).value
        c = max(c, float(np.max(g[S.mask] / f[S.mask])))
    beta = max(float(np.max(mk.apply(K, f)[chain.sets[-1].mask])), 0.0)
    if c <= 1.0:
        return
    c = c * (1 + 1e-12)
    N = smallest_admissible_N(c)
    g_full = mk.neumann_series(K, f).value
    for j, S in enumerate(slices, start=1):
        if not np.any(S.mask):
            continue
        measured = float(np.max(g_full[S.mask] / f[S.mask]))
        assert measured <= corollary_bound(c, N, beta, j) * (1 + 1e-9)


# -- slicing helpers ---------------------------------------------------------------

def test_time_uniform_slices_partition():
    slices = time_uniform_slices(0.0, 1.0, 0.3)
    assert len(slices) == 4
    assert slices[0].hi == 1.0 and slices[-1].lo == 0.0
    for a, b in zip(slices, slices[1:]):
        assert b.hi == a.lo           # ordered downward from the target


def test_interval_membership():
    # half-open [lo, hi): the lower end belongs, the upper does not
    i = Interval(0.0, 1.0)
    assert bool(i.contains(0.0)) and not bool(i.contains(1.0))
    np.testing.assert_array_equal(i.contains([-0.5, 0.5, 1.5]),
                                  [False, True, False])
    assert not bool(Interval(0.5, 0.5).contains(0.5))


def test_diagonal_levels():
    levels, k = diagonal_levels(1.0, 1.0, 0.55)
    assert k == 4
    assert levels[0] > 2.0 >= levels[1]
    assert levels[-1] == 0.0
    assert all(a > b for a, b in zip(levels, levels[1:]))
