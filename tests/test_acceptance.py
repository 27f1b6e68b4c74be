"""Acceptance battery over the full built-in catalog.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s`` or on failure).  All identity checks are exact; the Monte
Carlo comparison uses a pinned seed.
"""

import importlib

import pytest

from dcposets import acceptance, rsk_polytope_check
from dcposets.catalog import catalog

# the package's ``rsk`` attribute is the function, not the module
rsk_module = importlib.import_module("dcposets.rsk")

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


def _leaky_step(labels, toggles):
    """A wrong step function: each toggle also adds the label of element e + 1 (mod n).

    That element is no cover of e, and whether it has been inserted yet
    depends on the insertion order, so the error does too.
    """
    get = labels.__getitem__
    n = len(labels) - 1
    for e, ups, los in toggles:
        labels[e] = max(map(get, ups)) + min(map(get, los)) - labels[e] + labels[(e + 1) % n]


def test_broken_kernel_fails_integer_checks(monkeypatch):
    # the trial loops of criteria 4, 5 and 7 run the kernel on integer labels;
    # a wrong step must make each of them fail on every poset, not only in
    # the worked examples, and must trip every check of criterion 7 that
    # reads the image
    names = ("d4", "young-3.2", "shifted-4.2", "sample10")
    subset = acceptance.prepare([e for e in catalog() if e.name in names])
    monkeypatch.setattr(rsk_module, "_toggle_all", _leaky_step)
    for criterion in (
        acceptance.diagonal_sum_identity,
        acceptance.order_independence,
        acceptance.polytope_bijection,
    ):
        result = criterion(subset, trials=5, seed=SEED)
        assert not result.ok, result.name
        for name, _, _ in subset:
            assert any(line.startswith(f"fail poset={name} ") for line in result.lines), (
                result.name,
                name,
            )
    kinds = {
        failure[1]
        for _, poset, a in subset
        for failure in rsk_polytope_check(poset, trials=5, seed=SEED, analysis=a).failures
    }
    assert kinds == {"image-membership", "weighted-sum", "round-trip"}
