"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints its pass/fail line so `pytest -s tests/test_acceptance.py`
doubles as the acceptance report; `kpert reproduce` prints the same table.
"""
import pytest

from kpert import acceptance

SEED = 7


def _check(result, max_seconds=None):
    print(result.line())
    assert result.passed, result.details
    if max_seconds is not None:
        assert result.elapsed < max_seconds, \
            f"runtime {result.elapsed:.1f}s over budget {max_seconds}s"


def test_criterion_1_identities():
    # exact restriction identities on >= 10^3 random kernels, m <= 4, < 10 s
    _check(acceptance.criterion_identities(SEED), max_seconds=10)


def test_criterion_2_decay():
    # series domination implies geometric decay + squared bound, < 10 s
    _check(acceptance.criterion_decay(SEED), max_seconds=10)


def test_criterion_3_soundness():
    # every measured-eta certificate valid against exact summation, plus the
    # closed-form identity for the eta = beta bound at 1e-12
    _check(acceptance.criterion_soundness(SEED))


def test_criterion_4_atomless_oracle():
    # quadrature series matches e^lam * p at 20 points, rel tol 1e-3, < 2 min
    _check(acceptance.criterion_atomless_oracle(SEED), max_seconds=120)


def test_criterion_5_atom_oracles():
    _check(acceptance.criterion_atom_oracles(SEED))


def test_criterion_6_sharpness():
    # ratio 2^j attained with the atom operator summed as one matrix, < 2 s
    _check(acceptance.criterion_sharpness(SEED), max_seconds=2)


def test_criterion_7_cone_kernel():
    _check(acceptance.criterion_cone_kernel(SEED))


def test_criterion_8_residuals():
    _check(acceptance.criterion_residuals(SEED), max_seconds=120)


def test_criterion_9_kato():
    _check(acceptance.criterion_kato(SEED))


def test_criterion_10_determinism():
    _check(acceptance.criterion_determinism(SEED))


def test_run_all_matches_individual_flags():
    results = acceptance.run_all(SEED, only="determinism")
    assert len(results) == 1 and results[0].passed
