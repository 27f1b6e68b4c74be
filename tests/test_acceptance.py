"""Acceptance battery over the full built-in catalog.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s`` or on failure).  All identity checks are exact; the Monte
Carlo comparison uses a pinned seed.
"""

import pytest

from dcposets import acceptance

SEED = 0


@pytest.fixture(scope="module")
def prepared():
    return acceptance.prepare()


def report(result):
    print(f"ACCEPTANCE {result.name}: {'PASS' if result.ok else 'FAIL'}")
    for line in result.lines:
        print(f"  {line}")
    assert result.ok, result.lines


def test_criterion_01_counting_identity(prepared):
    report(acceptance.counting_identity(prepared))


def test_criterion_02_multivariate_identity(prepared):
    report(acceptance.multivariate_identity(prepared, points=20, seed=SEED))


def test_criterion_03_worked_insertion_example():
    report(acceptance.worked_insertion_example())


def test_criterion_04_diagonal_sum_identity(prepared):
    report(acceptance.diagonal_sum_identity(prepared, trials=100, seed=SEED))


def test_criterion_05_order_independence(prepared):
    report(acceptance.order_independence(prepared, trials=100, seed=SEED))


def test_criterion_06_volume_preservation(prepared):
    report(acceptance.volume_preservation(prepared, points=25, seed=SEED))


def test_criterion_07_polytope_bijection(prepared):
    report(acceptance.polytope_bijection(prepared, trials=100, seed=SEED))


def test_criterion_08_structural_properties(prepared):
    report(acceptance.structural_properties(prepared))


def test_criterion_09_classical_equivalence():
    report(acceptance.classical_equivalence(trials=200, seed=SEED))


def test_criterion_10_monte_carlo_volumes(prepared):
    report(acceptance.monte_carlo_agreement(prepared, samples=10**6, seed=SEED))
