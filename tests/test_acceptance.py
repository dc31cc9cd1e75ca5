"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints its pass/fail line so `pytest -s tests/test_acceptance.py`
doubles as the acceptance report; `kpert reproduce` prints the same table.
"""
import numpy as np
import pytest

from kpert import acceptance
from kpert import bounds as bnd
from kpert import matrix_kernels as mk
from kpert import perturbation as pt
from kpert import spacetime as st

SEED = 7

# Each criterion's details at SEED, pinned: the table `kpert reproduce`
# prints.  Two of them differ on numpy's AVX2 dispatch, where the vector
# exp and power round some last bits differently.
DETAILS = {
    1: "26692 exact identities on 1000 kernels",
    2: "2282 decay checks, zero violations",
    3: "2420 certificates VALID; bound identity <= 1e-12",
    4: "max relative error 8.17e-06 (tol 1e-3)",
    5: "factors: single-atom err 0.0e+00, p2 = 0.0e+00, transfer rows "
       "9.7e-10, multi-atom err 1.1e-09",
    6: "ratio = 2^j attained (err 1.1e-09); all certificates VALID",
    7: "3G on 100000 tuples; exponents 0.1:0.402, 0.25:0.252; eta 0.036 "
       "<= 0.500",
    8: "composition 9.2e-16/1.7e-16, half-derivative 2.2e-16, "
       "left-inverse 4.0e-11, perturbed 5.2e-04",
    9: "modulus = 2h +- 6.7e-16; profile 3.39->2.40->1.69->1.20; 10 window "
       "certificates VALID (eta=0.399)",
    10: "1742 artifact bytes identical across two runs",
}
DETAILS_AVX2 = {
    8: "composition 9.0e-16/1.7e-16, half-derivative 2.2e-16, "
       "left-inverse 4.0e-11, perturbed 5.2e-04",
    10: "1743 artifact bytes identical across two runs",
}


def _check(result, numpy_avx2, max_seconds=None):
    print(result.line())
    assert result.passed, result.details
    want = DETAILS[result.number]
    if numpy_avx2:
        want = DETAILS_AVX2.get(result.number, want)
    assert result.details == want
    if max_seconds is not None:
        assert result.elapsed < max_seconds, \
            f"runtime {result.elapsed:.1f}s over budget {max_seconds}s"


def test_criterion_1_identities(numpy_avx2):
    # exact restriction identities on >= 10^3 random kernels, m <= 4, < 10 s
    _check(acceptance.criterion_identities(SEED), numpy_avx2, max_seconds=10)


def test_criterion_2_decay(numpy_avx2):
    # series domination implies geometric decay + squared bound, < 10 s
    _check(acceptance.criterion_decay(SEED), numpy_avx2, max_seconds=10)


def test_criterion_3_soundness(numpy_avx2):
    # every measured-eta certificate valid against exact summation, plus the
    # closed-form identity for the eta = beta bound at 1e-12, < 10 s
    _check(acceptance.criterion_soundness(SEED), numpy_avx2, max_seconds=10)


def test_criterion_4_atomless_oracle(numpy_avx2):
    # quadrature series matches e^lam * p at 20 points, rel tol 1e-3, < 2 min
    _check(acceptance.criterion_atomless_oracle(SEED), numpy_avx2,
           max_seconds=120)


def test_criterion_5_atom_oracles(numpy_avx2):
    _check(acceptance.criterion_atom_oracles(SEED), numpy_avx2)


def test_criterion_5_checks_the_transfer_row_counts(monkeypatch):
    # the series multiplies a Gaussian atom in exactly, so the quadrature
    # criterion 5 still tests is the atom operator's: its transfer rows
    # meet their atom counts within 9.7e-10; rows 2e-8 heavier per atom
    # ahead must fail
    real = pt.MultiAtomOperator

    class Heavy(real):
        def __init__(self, *args):
            super().__init__(*args)
            eye = np.eye(self.K.n)
            self.K = mk.MatrixKernel(eye + (self.K.entries - eye) * (1 + 2e-8))

    monkeypatch.setattr(pt, "MultiAtomOperator", Heavy)
    res = acceptance.criterion_atom_oracles(SEED)
    assert not res.passed
    assert res.details == "transfer rows miss their atom counts by 3.90e-08"


def test_criterion_6_sharpness(numpy_avx2):
    # ratio 2^j attained with the atom operator summed as one matrix, and
    # that matrix certified exactly as a finite-state slice problem, < 2 s
    _check(acceptance.criterion_sharpness(SEED), numpy_avx2, max_seconds=2)


def test_sharpness_problem_certifies_the_atom_operator_exactly():
    # slice j is the grid block of the j-th atom from the target; each
    # A_j (the last j blocks) is absorbing, and the exact certificates
    # meet their bounds with no tolerance.  The transfer rows meet their
    # Chapman-Kolmogorov counts within 1e-9, so every beta is 1/2, every
    # bound is 2^j = (1 - 1/2)^-j and each ratio lies within 1e-9 below
    # it; slice 1, one atom with no transfer row, attains 2 exactly
    op = pt.MultiAtomOperator(st.gaussian_kernel(1),
                              acceptance.SHARPNESS_TIMES, 1.0, 0.0)
    prob = acceptance.sharpness_problem(op, 0.5)
    assert prob.k == 3
    block = op.K.n // 3
    for j, A in enumerate(prob.chain.sets, start=1):
        assert mk.is_absorbing(prob.K, A)
        assert A.indices().tolist() == list(range(op.K.n - j * block,
                                                  op.K.n))
    const = bnd.estimate_constants(prob)
    assert const.per_slice_eta == (0.5, 0.5, 0.5)
    assert const.per_slice_beta == (0.5, 0.5, 0.5)
    certs = bnd.certify(prob, const.eta, const.beta)
    assert [c.status for c in certs] == ["VALID"] * 3
    assert [c.theorem_bound for c in certs] == [2.0, 4.0, 8.0]
    assert certs[0].measured_ratio == certs[0].theorem_bound == 2.0
    for j, c in enumerate(certs, start=1):
        assert 2.0 ** j * (1.0 - 1e-9) <= c.measured_ratio <= 2.0 ** j


def test_criterion_7_cone_kernel(numpy_avx2):
    _check(acceptance.criterion_cone_kernel(SEED), numpy_avx2)


def test_criterion_8_residuals(numpy_avx2):
    _check(acceptance.criterion_residuals(SEED), numpy_avx2, max_seconds=120)


def test_criterion_9_kato(numpy_avx2):
    _check(acceptance.criterion_kato(SEED), numpy_avx2)


def test_criterion_9_checks_the_cauchy_profile_against_the_corner(
        monkeypatch):
    # the d = 2 profile reads C sqrt(h) (1 + 4.2e-6); one 2e-5 higher is
    # still decreasing, and must fail
    real = st.kato_profile

    def high(kernel, mu, h_values, **kw):
        prof = real(kernel, mu, h_values, **kw)
        scale = 1.0 + 2e-5 if kernel.dim == 2 else 1.0
        return {h: v * scale for h, v in prof.items()}

    monkeypatch.setattr(st, "kato_profile", high)
    res = acceptance.criterion_kato(SEED)
    assert not res.passed
    assert res.details == "profile misses C sqrt(h) by 2.42e-05"


def test_criterion_10_determinism(numpy_avx2):
    _check(acceptance.criterion_determinism(SEED), numpy_avx2)


def test_run_all_matches_individual_flags():
    results = acceptance.run_all(SEED, only="determinism")
    assert len(results) == 1 and results[0].passed
