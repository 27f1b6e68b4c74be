import math
from fractions import Fraction
from random import Random

import pytest

from dcposets import (
    ExtensionLimitError,
    Poset,
    all_ones_point,
    analyze,
    closed_form_volume,
    count_linear_extensions,
    d_k_one,
    monte_carlo_volume,
    polytope_membership,
    random_rational_point,
    rsk_polytope_check,
    sample_fillings_point,
    verify_multivariate,
    verify_proctor,
    weight_eval,
    weight_sum,
    young,
)
from dcposets import verify
from dcposets.verify import PolytopeSpec

from conftest import chain
from test_hooks import classical_hook_length


def test_weight_singleton():
    P = Poset(1)
    a = analyze(P)
    x = (Fraction(3, 7),)
    assert weight_eval(P, a.diagonals, (0,), x).value == Fraction(7, 3)


def test_weight_double_tailed_all_ones():
    P = d_k_one(4)
    a = analyze(P)
    ones = all_ones_point(a.diagonals.count)
    w = weight_eval(P, a.diagonals, (5, 4, 3, 2, 1, 0), ones)
    assert w.value == Fraction(1, 720)


def test_weight_termwise_product():
    # suffix diagonal sums, computed factor by factor as the oracle
    P = d_k_one(4)
    a = analyze(P)
    x = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    ext = (5, 4, 3, 2, 1, 0)
    suffix = Fraction(0)
    product = Fraction(1)
    for p in reversed(ext):
        suffix += x[a.diagonals.diagonal_of[p]]
        product *= suffix
    assert product == Fraction(1) * Fraction(3, 2) * Fraction(11, 6) * Fraction(
        25, 12
    ) * Fraction(31, 12) * Fraction(43, 12)
    assert weight_eval(P, a.diagonals, ext, x).value == 1 / product


def test_weight_eval_rejects_bad_extension():
    P = d_k_one(3)
    a = analyze(P)
    with pytest.raises(ValueError):
        weight_eval(P, a.diagonals, (0, 1, 2, 3), all_ones_point(a.diagonals.count))


@pytest.mark.parametrize("name", ["d4", "sample10", "young-3.2", "shifted-4.3.1", "tree-mixed"])
def test_weight_sum_methods_agree(family, analyses, name):
    P = family[name]
    a = analyses[name]
    rng = Random(17)
    for _ in range(3):
        x = random_rational_point(a.diagonals.count, rng)
        assert weight_sum(P, a.diagonals, x, "enumerate") == weight_sum(
            P, a.diagonals, x, "ideal-dp"
        )


def test_proctor_double_tailed():
    report = verify_proctor(d_k_one(4))
    assert (report.extensions, report.hook_product, report.factorial, report.ok) == (
        2,
        360,
        720,
        True,
    )


def test_proctor_chain():
    report = verify_proctor(chain(6))
    assert report.ok and report.extensions == 1 and report.hook_product == 720


@pytest.mark.parametrize(
    "shape", [(3, 2), (2, 2, 1), (4, 3, 1), (3, 3, 2), (1, 1, 1, 1), (5, 5, 5, 5, 5, 5)]
)
def test_proctor_matches_classical_formula(shape):
    # the classical count n! / prod(arm+leg+1) is the independent oracle
    P = young(shape)
    n = sum(shape)
    hooks = [
        classical_hook_length(shape, i, j)
        for i, row in enumerate(shape, start=1)
        for j in range(1, row + 1)
    ]
    expected = math.factorial(n) // math.prod(hooks)
    assert count_linear_extensions(P) == expected
    assert verify_proctor(P).ok


def test_long_chain_counts_and_weighs():
    # both folds are iterative: a chain longer than the recursion limit is fine
    P = chain(1200)
    assert count_linear_extensions(P) == 1
    a = analyze(P)
    numerators = [d % 5 + 1 for d in range(a.diagonals.count)]
    x = tuple(Fraction(c, 3) for c in numerators)
    hooks = math.prod(sum(h * c for h, c in zip(vec, numerators)) for vec in a.hook_vectors)
    assert weight_sum(P, a.diagonals, x) == Fraction(3**P.n, hooks)


def test_multivariate_double_tailed_at_ones():
    P = d_k_one(4)
    a = analyze(P)
    ones = all_ones_point(a.diagonals.count)
    assert weight_sum(P, a.diagonals, ones) == Fraction(1, 360)
    assert math.prod(a.hook_polynomials(ones), start=Fraction(1)) == 360


def test_multivariate_reports(family, analyses):
    for name in ("chain5", "d4", "sample10", "shifted-4.3.1"):
        report = verify_multivariate(family[name], points=20, seed=5, analysis=analyses[name])
        assert report.ok, (name, report.failures[:1])


def test_multivariate_cap_refusal():
    with pytest.raises(ExtensionLimitError):
        verify_multivariate(d_k_one(4), points=1, cap=1)


def test_all_ones_recovers_counting(family, analyses):
    for name in ("d4", "sample10", "young-3.3"):
        P = family[name]
        a = analyses[name]
        total = weight_sum(P, a.diagonals, all_ones_point(a.diagonals.count))
        assert total * math.factorial(P.n) == count_linear_extensions(P)


def test_polytope_membership():
    P = d_k_one(4)
    a = analyze(P)
    ones = all_ones_point(a.diagonals.count)
    fillings = PolytopeSpec("fillings", ones)
    rpp = PolytopeSpec("rpp", ones)
    zero = (Fraction(0),) * P.n
    assert polytope_membership(P, fillings, zero, analysis=a)
    assert polytope_membership(P, rpp, zero, analysis=a)
    # boundary vertex of the simplex in direction p
    for p in range(P.n):
        vertex = [Fraction(0)] * P.n
        vertex[p] = 1 / Fraction(a.hook_lengths[p])
        assert polytope_membership(P, fillings, vertex, analysis=a)
        vertex[p] += Fraction(1, 1000)
        assert not polytope_membership(P, fillings, vertex, analysis=a)
    # constant vertex of the order-reversing polytope
    total = Fraction(P.n)  # sum of x over elements at all-ones
    constant = (1 / total,) * P.n
    assert polytope_membership(P, rpp, constant, analysis=a)
    assert not polytope_membership(P, rpp, (Fraction(1),) * P.n, analysis=a)
    # order-reversal violated
    bad = [Fraction(0)] * P.n
    bad[5] = Fraction(1, 100)
    assert not polytope_membership(P, rpp, bad, analysis=a)


def test_sampled_points_are_members(family, analyses):
    for name in ("d4", "sample10"):
        P = family[name]
        a = analyses[name]
        spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
        rng = Random(9)
        for _ in range(20):
            t = sample_fillings_point(P, spec.x, rng, analysis=a)
            assert polytope_membership(P, spec, t, analysis=a)


@pytest.mark.parametrize("name", ["d3", "d4", "sample10", "young-3.2", "shifted-4.3.1"])
def test_polytope_bijection(family, analyses, name):
    report = rsk_polytope_check(family[name], trials=40, seed=2, analysis=analyses[name])
    assert report.ok, report.failures[:2]


def test_closed_forms_agree_between_kinds(family, analyses):
    # the two polytopes have equal volume; the closed forms are computed
    # by different routes (hook product vs weight sum)
    for name in ("d3", "d4", "young-2.2.1", "tree-mixed"):
        P = family[name]
        a = analyses[name]
        x = all_ones_point(a.diagonals.count)
        vf = closed_form_volume(P, PolytopeSpec("fillings", x), analysis=a)
        vr = closed_form_volume(P, PolytopeSpec("rpp", x), analysis=a)
        assert vf == vr


def test_closed_form_values():
    two_chain = chain(2)
    a = analyze(two_chain)
    x = all_ones_point(a.diagonals.count)
    assert closed_form_volume(two_chain, PolytopeSpec("fillings", x), analysis=a) == Fraction(1, 4)
    three_chain = chain(3)
    a3 = analyze(three_chain)
    x3 = all_ones_point(a3.diagonals.count)
    assert closed_form_volume(three_chain, PolytopeSpec("rpp", x3), analysis=a3) == Fraction(1, 36)
    diamond = d_k_one(3)
    ad = analyze(diamond)
    xd = all_ones_point(ad.diagonals.count)
    expected = Fraction(1, math.factorial(4)) / (1 * 2 * 2 * 3)
    assert closed_form_volume(diamond, PolytopeSpec("fillings", xd), analysis=ad) == expected


def test_monte_carlo_two_chain():
    P = chain(2)
    a = analyze(P)
    spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
    estimate = monte_carlo_volume(P, spec, samples=200_000, seed=4, analysis=a)
    assert abs(estimate.estimate - 0.25) < 5 * estimate.std_error
    assert estimate.hits > 0


def test_monte_carlo_rpp_chain3():
    P = chain(3)
    a = analyze(P)
    spec = PolytopeSpec("rpp", all_ones_point(a.diagonals.count))
    estimate = monte_carlo_volume(P, spec, samples=400_000, seed=4, analysis=a)
    exact = float(Fraction(1, 36))
    assert abs(estimate.estimate - exact) < 5 * max(estimate.std_error, 1e-9)


def test_monte_carlo_deterministic_per_seed(monkeypatch):
    P = d_k_one(3)
    a = analyze(P)
    spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
    first = monte_carlo_volume(P, spec, samples=50_000, seed=11, analysis=a)
    second = monte_carlo_volume(P, spec, samples=50_000, seed=11, analysis=a)
    assert first == second
    # the batch size does not change the draws
    monkeypatch.setattr(verify, "CHUNK", 999)
    assert monte_carlo_volume(P, spec, samples=50_000, seed=11, analysis=a) == first
