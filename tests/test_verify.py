import itertools
import math
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from dcposets import (
    Poset,
    all_ones_point,
    analyze,
    catalog,
    closed_form_volume,
    count_linear_extensions,
    d_k_one,
    inverse_rsk,
    linear_extensions,
    monte_carlo_volume,
    polytope_membership,
    random_rational_point,
    rsk,
    rsk_jacobian_det,
    rsk_polytope_check,
    sample_fillings_point,
    shifted_young,
    tree,
    verify_multivariate,
    verify_proctor,
    weight_sum,
    young,
)
from dcposets import analysis as analysis_module
from dcposets import poset as poset_module
from dcposets import verify
from dcposets.acceptance import MONTE_CARLO_MAX_ELEMENTS, counting_identity, multivariate_identity
from dcposets.hooks import exact_labels
from dcposets.poset import order_ideal_masks
from dcposets.verify import PolytopeSpec

from conftest import chain, seeded_joins
from oracles import (
    _box_monte_carlo_hits,
    _column_dot,
    _reference_ideal_levels,
    _reference_inside,
    _reference_monte_carlo_volume,
    _reference_polytope_check,
    _reference_sample,
    _reference_weight_sum,
    _simplex_points,
    classical_hook_length,
)


def test_weight_singleton():
    P = Poset(1)
    a = analyze(P)
    x = (Fraction(3, 7),)
    assert weight_sum(P, a.diagonals, x) == _reference_weight_sum(P, a.diagonals, x) == Fraction(7, 3)


def test_weight_double_tailed_all_ones():
    # at x = 1 every extension weighs 1/n!
    P = d_k_one(4)
    a = analyze(P)
    ones = all_ones_point(a.diagonals.count)
    assert count_linear_extensions(P) == 2
    assert weight_sum(P, a.diagonals, ones) == _reference_weight_sum(P, a.diagonals, ones) == Fraction(2, 720)


def test_weight_termwise_product():
    # suffix diagonal sums, computed factor by factor as the oracle
    P = d_k_one(4)
    a = analyze(P)
    x = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))

    def inverse_weight(ext):
        suffix = Fraction(0)
        product = Fraction(1)
        for p in reversed(ext):
            suffix += x[a.diagonals.diagonal_of[p]]
            product *= suffix
        return product

    assert inverse_weight((5, 4, 3, 2, 1, 0)) == Fraction(1) * Fraction(3, 2) * Fraction(
        11, 6
    ) * Fraction(25, 12) * Fraction(31, 12) * Fraction(43, 12)
    total = sum(1 / inverse_weight(ext) for ext in linear_extensions(P))
    assert weight_sum(P, a.diagonals, x) == _reference_weight_sum(P, a.diagonals, x) == total


@pytest.mark.parametrize("name", ["d4", "sample10", "young-3.2", "shifted-4.3.1", "tree-mixed"])
def test_weight_sum_methods_agree(family, analyses, name):
    P = family[name]
    a = analyses[name]
    rng = Random(17)
    for _ in range(3):
        x = random_rational_point(a.diagonals.count, rng)
        assert weight_sum(P, a.diagonals, x) == _reference_weight_sum(P, a.diagonals, x)


def _mixed_point(count, rng):
    """Coordinates cycling through a large denominator, a small one and one shared by all.

    The large denominators come from a pool of three, so the common
    denominator stays a few hundred bits on the longest chain.
    """
    large = [rng.randint(10**8, 10**12) for _ in range(3)]
    shared = rng.randint(2, 10**6)
    point = []
    for i in range(count):
        if i % 3 == 0:
            point.append(Fraction(rng.randint(1, 10**12), rng.choice(large)))
        elif i % 3 == 1:
            point.append(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        else:
            point.append(Fraction(rng.randint(1, 10**6), shared))
    return tuple(point)


LARGE_WEIGHT_POSETS = {
    "young-6x5": young((5,) * 6),
    "shifted-7..1": shifted_young((7, 6, 5, 4, 3, 2, 1)),
    "d50(1)": d_k_one(50),
    "chain-200": chain(200),
}
LATTICE_POSETS = [(e.name, e.poset) for e in catalog()] + list(LARGE_WEIGHT_POSETS.items())


@pytest.mark.parametrize("name, P", LATTICE_POSETS, ids=[name for name, _ in LATTICE_POSETS])
def test_integer_fold_matches_fraction_fold(name, P):
    a = analyze(P)
    rng = Random(f"weight {name}")
    points = [_mixed_point(a.diagonals.count, rng) for _ in range(2)]
    points.append(all_ones_point(a.diagonals.count))
    for x in points:
        expected = _reference_weight_sum(P, a.diagonals, x)
        assert weight_sum(P, a.diagonals, x) == expected
    levels = list(_reference_ideal_levels(P))
    assert list(order_ideal_masks(P)) == [mask for level in levels for mask in level]
    assert a.extension_count == levels[-1][(1 << P.n) - 1][0]


def _level_lcm_fold(lattice, weights):
    """The ideal-lattice fold with each level scaled by the lcm of all its S(J), nothing reduced.

    U(J) = (sum of U(I) over the ideals I that J covers) * (M_k / S(J)),
    where M_k is the lcm of S(J) over level k; returns U(P) and
    M_1 * ... * M_n.
    """
    first, added = lattice.first, lattice.added
    start, successors = lattice.successor_start, lattice.successors
    value = [0] * len(first)
    value[0] = 1
    sums = [0] * len(first)
    for j in range(1, len(first)):
        sums[j] = sums[first[j]] + weights[added[j]]
    product = 1
    lo = 0
    for size in lattice.level_sizes:
        hi = lo + size
        if lo:
            level_lcm = math.lcm(*sums[lo:hi])
            product *= level_lcm
            for j in range(lo, hi):
                value[j] *= level_lcm // sums[j]
        for i in range(lo, hi):
            for j in successors[start[i] : start[i + 1]]:
                value[j] += value[i]
        lo = hi
    return value[-1], product


FOLD_POSETS = [(e.name, e.poset) for e in catalog()] + [
    ("young-6x6", young((6,) * 6)),
    ("young-8x6", young((6,) * 8)),
    ("shifted-12..1", shifted_young(tuple(range(12, 0, -1)))),
]


def test_reduced_fold_matches_level_lcm_fold():
    rng = Random(17)
    for name, P in FOLD_POSETS:
        a = analyze(P)
        count = a.diagonals.count
        for x in [all_ones_point(count)] + [random_rational_point(count, rng) for _ in range(2)]:
            numerators, _ = exact_labels(x, count, "point", "diagonals")
            weights = [numerators[d] for d in a.diagonals.diagonal_of]
            total, denominator = poset_module.fold_ideal_lattice(a.ideal_lattice, weights)
            expected, expected_denominator = _level_lcm_fold(a.ideal_lattice, weights)
            assert Fraction(total, denominator) == Fraction(expected, expected_denominator), (name, x)


def _column_fold_posets():
    """FOLD_POSETS, the seeded joins whose chain bound proves at most 2**13
    order ideals, and the exact benchmark's weight posets."""
    joins = [(f"join-{i}", P) for i, P in enumerate(seeded_joins()) if poset_module._chain_bound(P) <= 2**13]
    assert len(joins) == 17
    return FOLD_POSETS + joins + [
        ("young-5x5", young((5,) * 5)),
        ("young-6x5", young((5,) * 6)),
        ("d50(1)", d_k_one(50)),
        ("chain-200", chain(200)),
    ]


def _weight_rows(a, points):
    """Each point x = c / L over its least common denominator, as the weights c_(D(p))."""
    rows = []
    for x in points:
        c, _ = exact_labels(x, a.diagonals.count, "point", "diagonals")
        rows.append([c[d] for d in a.diagonals.diagonal_of])
    return rows


@pytest.mark.parametrize("rows", [1, 2, 20])
def test_column_fold_matches_scalar_folds(rows):
    # every column of the one walk is the scalar fold of its row, and the first
    # is the unreduced level-lcm fold's value where that fold is quick (at most
    # 1,000 ideals); an all-ones row, the last of two or more, is reduced here
    # and not by the scalar fold, so only its value is compared
    assert poset_module.fold_columns(analyze(young((2, 1))).ideal_lattice, []) == []
    rng = Random(rows)
    for name, P in _column_fold_posets():
        a = analyze(P)
        lattice = a.ideal_lattice
        count = a.diagonals.count
        points = [random_rational_point(count, rng) for _ in range(rows - 1)]
        points.append(all_ones_point(count) if rows > 1 else random_rational_point(count, rng))
        weights = _weight_rows(a, points)
        folded = poset_module.fold_columns(lattice, weights)
        assert len(folded) == rows
        for row, (total, denominator) in zip(weights, folded):
            expected = poset_module.fold_ideal_lattice(lattice, row)
            if any(w != 1 for w in row):
                assert (total, denominator) == expected, name
            assert Fraction(total, denominator) == Fraction(*expected), name
        if len(lattice.first) <= 1000:
            total, denominator = folded[0]
            assert Fraction(total, denominator) == Fraction(*_level_lcm_fold(lattice, weights[0])), name


def test_multivariate_identity_on_young_8x8_is_fast(monkeypatch):
    # 20 points in one walk of 12,870 ideals; each column is reduced by its
    # own gcds and level lcms, so U stays a few bits and M near the size of
    # the hook product, where a fold scaled by the lcm of the raw sums grows
    # past 200,000 bits
    P = young((8,) * 8)
    a = analyze(P)
    a.ideal_lattice, a.hook_program, a.extension_count
    fold, folded = verify.fold_columns, []

    def recorded_fold(lattice, rows):
        folded.extend(fold(lattice, rows))
        return folded

    monkeypatch.setattr(verify, "fold_columns", recorded_fold)
    start = time.perf_counter()
    report = verify_multivariate(P, points=20, seed=8)
    assert time.perf_counter() - start < 2.0
    assert report.ok and report.points == len(folded) == 20
    assert max(total.bit_length() for total, _ in folded) <= 64
    assert max(denominator.bit_length() for _, denominator in folded) <= 4000


def test_weight_sum_on_young_8x8_is_fast():
    P = young((8,) * 8)
    a = analyze(P)
    a.ideal_lattice
    x = random_rational_point(a.diagonals.count, Random(88))
    start = time.perf_counter()
    total = weight_sum(P, a.diagonals, x)
    assert time.perf_counter() - start < 1.0
    assert total == 1 / math.prod(a.hook_polynomials(x), start=Fraction(1))


@pytest.fixture
def lattice_walks(monkeypatch):
    """The poset of every compile_ideal_lattice call, in call order."""
    walks = []
    original = poset_module.compile_ideal_lattice

    def spy(P):
        walks.append(P)
        return original(P)

    for module in (poset_module, analysis_module, verify):
        if getattr(module, "compile_ideal_lattice", None) is original:
            monkeypatch.setattr(module, "compile_ideal_lattice", spy)
    return walks


def test_c1_then_c2_walk_the_lattice_once(lattice_walks):
    walks = lattice_walks
    entry = next(e for e in catalog() if e.name == "young-3.3.1")
    # a fresh poset: no analysis another test keeps alive can have walked it
    P = Poset(entry.poset.n, entry.poset.covers, entry.poset.names)
    a = analyze(P)
    prepared = [(entry.name, P, a)]
    assert counting_identity(prepared).ok
    assert multivariate_identity(prepared).ok
    spec = PolytopeSpec("rpp", all_ones_point(a.diagonals.count))
    closed_form_volume(P, spec)
    assert [Q for Q in walks if Q is P] == [P]


def test_weight_sums_reuse_the_live_analysis(lattice_walks):
    P = young((3, 3, 1))
    a = analyze(P)
    a.extension_count
    assert lattice_walks == [P]
    rng = Random(19)
    points = [random_rational_point(a.diagonals.count, rng) for _ in range(10)]
    sums = [weight_sum(P, a.diagonals, x) for x in points]
    # every sum reads analyze(P), so it folds the lattice that a holds
    assert lattice_walks == [P]
    assert sums == [1 / math.prod(a.hook_polynomials(x), start=Fraction(1)) for x in points]


def test_standalone_counts_walk_once_each(lattice_walks):
    P = young((3, 3, 1))
    # nothing holds the analysis a call builds, so the next call walks again
    assert count_linear_extensions(P) == count_linear_extensions(P) == 21
    assert lattice_walks == [P, P]


def _entry_points(P, analysis):
    """The 4 entry points that take ``analysis=``, each called on d_4(1) with it."""
    return {
        "rsk": lambda: rsk(P, (2, 2, 3, 4, 2, 1), (5, 4, 2, 3, 1, 0), analysis=analysis),
        "inverse_rsk": lambda: inverse_rsk(P, (11, 9, 6, 7, 4, 3), analysis=analysis),
        "rsk_jacobian_det": lambda: rsk_jacobian_det(P, (1, 2, 3, 4, 5, 6), analysis=analysis),
        "verify_proctor": lambda: verify_proctor(P, analysis=analysis),
    }


def test_an_analysis_of_another_poset_is_refused():
    # an analysis of Young (3, 3) passed for d_4(1) was read as d_4(1)'s:
    # 5 extensions, hook product 144 and a wrong image
    P = d_k_one(4)
    other = analyze(young((3, 3)))
    for call in _entry_points(P, other).values():
        with pytest.raises(ValueError, match="^analysis was built for another poset$"):
            call()
    # something that is no analysis at all is refused by type, not read as one
    for call in _entry_points(P, object()).values():
        with pytest.raises(TypeError, match="^analysis must be a PosetAnalysis or None, not object$"):
            call()
    # an analysis of an equal poset is taken, and gives P's own values
    twin = analyze(d_k_one(4))
    assert twin.poset is not P
    own = {name: call() for name, call in _entry_points(P, None).items()}
    assert {name: call() for name, call in _entry_points(P, twin).items()} == own
    assert own["verify_proctor"][:3] == (2, 360, 720)
    assert own["rsk"] == (11, 9, 6, 7, 4, 3)


def test_weight_sum_refuses_a_partition_of_another_poset():
    # d_4(1) with Young (3, 3)'s partition summed to 1/13860, and Young (2, 2)
    # with d_4(1)'s to 13/15120
    P = d_k_one(4)
    x = (1, 2, 3, 4)
    for Q, part in ((P, analyze(young((3, 3))).diagonals), (young((2, 2)), analyze(P).diagonals)):
        with pytest.raises(ValueError, match="^part is not the diagonal partition of P$"):
            weight_sum(Q, part, x)
    # a partition equal by value, here an equal poset's, is P's own
    a, twin = analyze(P), analyze(d_k_one(4))
    assert twin.diagonals is not a.diagonals
    expected = 1 / math.prod(a.hook_polynomials(x), start=Fraction(1))
    assert weight_sum(P, twin.diagonals, x) == expected == Fraction(1, 15120)


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


def test_multivariate_reports(family):
    for name in ("chain5", "d4", "sample10", "shifted-4.3.1"):
        report = verify_multivariate(family[name], points=20, seed=5)
        assert report.ok, (name, report.failures[:1])


def test_multivariate_star_tree():
    # ten leaves under one root: 10! linear extensions but only 2^10 + 1 ideals,
    # and the weight sum folds the ideals, never the extensions
    P = tree([None] + [0] * 10)
    report = verify_multivariate(P, points=20, seed=0)
    assert report.ok and report.extensions == math.factorial(10)


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
    assert polytope_membership(P, fillings, zero)
    assert polytope_membership(P, rpp, zero)
    # boundary vertex of the simplex in direction p
    for p in range(P.n):
        vertex = [Fraction(0)] * P.n
        vertex[p] = 1 / Fraction(a.hook_lengths[p])
        assert polytope_membership(P, fillings, vertex)
        vertex[p] += Fraction(1, 1000)
        assert not polytope_membership(P, fillings, vertex)
    # constant vertex of the order-reversing polytope
    total = Fraction(P.n)  # sum of x over elements at all-ones
    constant = (1 / total,) * P.n
    assert polytope_membership(P, rpp, constant)
    assert not polytope_membership(P, rpp, (Fraction(1),) * P.n)
    # order-reversal violated
    bad = [Fraction(0)] * P.n
    bad[5] = Fraction(1, 100)
    assert not polytope_membership(P, rpp, bad)


def test_sampled_points_are_members(family, analyses):
    for name in ("d4", "sample10"):
        P = family[name]
        a = analyses[name]
        spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
        rng = Random(9)
        for _ in range(20):
            t = sample_fillings_point(P, spec.x, rng)
            assert polytope_membership(P, spec, t)


@pytest.mark.parametrize("name", ["d3", "d4", "sample10", "young-3.2", "shifted-4.3.1"])
def test_polytope_bijection(family, name):
    report = rsk_polytope_check(family[name], trials=40, seed=2)
    assert report.ok, report.failures[:2]


def _diagonal_minima(P, a):
    """The minimum of each diagonal, found as the member below all others."""
    return [
        next(m for m in members if all(P.leq(m, v) for v in members))
        for members in a.diagonals.classes
    ]


def test_hook_matrix_of_diagonal_minima_is_unitriangular():
    # a diagonal's minimum tops no d-interval, so its hook vector counts its
    # downset per diagonal; ordered by a linear extension of the minima,
    # these rows are unitriangular, so x is an integer combination of H(x)
    for entry in catalog():
        P = entry.poset
        a = analyze(P)
        minima = _diagonal_minima(P, a)
        order = sorted(
            range(a.diagonals.count), key=lambda d: P.downset_mask(minima[d]).bit_count()
        )
        rows = [[a.hook_vectors[minima[d]][c] for c in order] for d in order]
        for i, row in enumerate(rows):
            assert row[i] == 1 and not any(row[i + 1 :]), (entry.name, rows)


def test_hook_and_weight_denominators_are_equal():
    # B == C lets rsk_polytope_check compare both polytopes against one bound
    rng = Random(41)
    points = 0
    for entry in catalog():
        P = entry.poset
        a = analyze(P)
        for _ in range(5):
            x = random_rational_point(a.diagonals.count, rng)
            # B from the reduced hook values, not from the fillings record
            hooks_denom = math.lcm(*(h.denominator for h in a.hook_polynomials(x)))
            _, weights_denom, _ = verify._polytope(P, PolytopeSpec("rpp", x), a)
            assert hooks_denom == weights_denom, (entry.name, x)
            points += hooks_denom > 1
    assert points > 1000


@pytest.mark.parametrize("entry", catalog()[::3], ids=lambda e: e.name)
def test_polytope_check_matches_fraction_reference(entry):
    # at a random point the hook and weight denominators B and C differ from 1
    P = entry.poset
    a = analyze(P)
    for x in (None, random_rational_point(a.diagonals.count, Random(P.n))):
        expected = _reference_polytope_check(P, a, x, trials=20, seed=3)
        assert rsk_polytope_check(P, x, trials=20, seed=3) == expected


@pytest.mark.parametrize("name", ["d4", "sample10", "young-3.3", "shifted-4.3.1"])
def test_samples_and_membership_match_fractions(family, analyses, name):
    P = family[name]
    a = analyses[name]
    verdicts = set()
    for x in (all_ones_point(a.diagonals.count), random_rational_point(a.diagonals.count, Random(8))):
        rng, reference_rng = Random(4), Random(4)
        for _ in range(10):
            t = sample_fillings_point(P, x, rng)
            (row,) = verify._simplex_gap_rows(P.n, 1, reference_rng).tolist()
            assert t == _reference_sample(a.hook_polynomials(x), row)
            for point in (t, rsk(P, t, analysis=a), tuple(3 * v for v in t)):
                for kind in ("fillings", "rpp"):
                    inside = _reference_inside(P, a, kind, x, point)
                    assert polytope_membership(P, PolytopeSpec(kind, x), point) == inside
                    verdicts.add(inside)
    assert verdicts == {True, False}


def test_closed_forms_agree_between_kinds(family, analyses):
    # the two polytopes have equal volume; the closed forms are computed
    # by different routes (hook product vs weight sum)
    for name in ("d3", "d4", "young-2.2.1", "tree-mixed"):
        P = family[name]
        a = analyses[name]
        x = all_ones_point(a.diagonals.count)
        vf = closed_form_volume(P, PolytopeSpec("fillings", x))
        vr = closed_form_volume(P, PolytopeSpec("rpp", x))
        assert vf == vr


def test_closed_form_values():
    two_chain = chain(2)
    a = analyze(two_chain)
    x = all_ones_point(a.diagonals.count)
    assert closed_form_volume(two_chain, PolytopeSpec("fillings", x)) == Fraction(1, 4)
    three_chain = chain(3)
    a3 = analyze(three_chain)
    x3 = all_ones_point(a3.diagonals.count)
    assert closed_form_volume(three_chain, PolytopeSpec("rpp", x3)) == Fraction(1, 36)
    diamond = d_k_one(3)
    ad = analyze(diamond)
    xd = all_ones_point(ad.diagonals.count)
    expected = Fraction(1, math.factorial(4)) / (1 * 2 * 2 * 3)
    assert closed_form_volume(diamond, PolytopeSpec("fillings", xd)) == expected


def test_monte_carlo_two_chain():
    P = chain(2)
    a = analyze(P)
    spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
    estimate = monte_carlo_volume(P, spec, samples=200_000, seed=4)
    assert abs(estimate.estimate - 0.25) < 5 * estimate.std_error
    assert estimate.hits > 0


def test_monte_carlo_rpp_chain3():
    P = chain(3)
    a = analyze(P)
    spec = PolytopeSpec("rpp", all_ones_point(a.diagonals.count))
    estimate = monte_carlo_volume(P, spec, samples=400_000, seed=4)
    exact = float(Fraction(1, 36))
    assert abs(estimate.estimate - exact) < 5 * max(estimate.std_error, 1e-9)


def test_monte_carlo_deterministic_per_seed(monkeypatch):
    P = d_k_one(3)
    a = analyze(P)
    spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
    first = monte_carlo_volume(P, spec, samples=50_000, seed=11)
    second = monte_carlo_volume(P, spec, samples=50_000, seed=11)
    assert first == second
    # the batch size does not change the draws
    monkeypatch.setattr(verify, "CHUNK", 999)
    assert monte_carlo_volume(P, spec, samples=50_000, seed=11) == first


def test_monte_carlo_needs_a_sample():
    P = d_k_one(3)
    a = analyze(P)
    spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            monte_carlo_volume(P, spec, samples=samples)
    assert monte_carlo_volume(P, spec, samples=1).samples == 1


def test_counts_refuse_non_positive_and_non_int_values():
    # the library edges refuse what the CLI refuses with exit 2
    P = d_k_one(3)
    a = analyze(P)
    spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
    edges = {
        "points": lambda k: verify_multivariate(P, points=k),
        "trials": lambda k: rsk_polytope_check(P, trials=k),
        "samples": lambda k: monte_carlo_volume(P, spec, samples=k),
    }
    for name, edge in edges.items():
        for count in (0, -1):
            with pytest.raises(ValueError, match=f"{name} must be at least 1, got {count}"):
                edge(count)
        for count, kind in ((10.5, "float"), (2.0, "float"), ("3", "str")):
            with pytest.raises(TypeError, match=f"{name} must be an int, not {kind}"):
                edge(count)
    assert verify_multivariate(P, points=1).ok
    assert rsk_polytope_check(P, trials=1).ok


def test_monte_carlo_empty_poset():
    # the 0-dimensional box has edge 1: every draw hits, the estimate is the
    # exact volume 1 with standard error 0, and a case batched with it keeps
    # its own draws
    P = Poset(0)
    other = chain(2)
    other_spec = PolytopeSpec("fillings", all_ones_point(analyze(other).diagonals.count))
    alone = monte_carlo_volume(other, other_spec, samples=5_000, seed=3)
    for kind in ("fillings", "rpp"):
        spec = PolytopeSpec(kind, ())
        estimate = monte_carlo_volume(P, spec, samples=5_000, seed=3)
        assert estimate == verify.VolumeEstimate(kind, 5_000, 3, 5_000, 1.0, 1.0, 0.0)
        assert closed_form_volume(P, spec) == estimate.estimate
        batch = verify.monte_carlo_volumes([(P, spec), (other, other_spec)], 5_000, 3)
        assert batch == [estimate, alone]


def _pairs(cases):
    """The (P, spec) pairs that monte_carlo_volumes takes, from (P, spec, a) cases."""
    return [(P, spec) for P, spec, _ in cases]


def _unshortcut_monte_carlo_hits(cases, samples, seed):
    """monte_carlo_volumes' hit counts with one draw per size, every box scaled,
    every case tested on its own and every case compressed."""
    points = {}
    hits = []
    for P, spec, a in cases:
        edge, coefficients, cover_pairs = verify._volume_test(P, spec, a)
        if P.n not in points:
            points[P.n] = _simplex_points(np.random.default_rng(seed), samples, P.n)
        pts = points[P.n] * edge
        under = np.compress(_column_dot(pts, coefficients) <= 1.0, pts, axis=0)
        kept = np.ones(len(under), dtype=bool)
        for low, high in cover_pairs:
            kept &= under[:, low] >= under[:, high]
        hits.append(int(np.count_nonzero(kept)))
    return hits


def _cases_at_two_points(posets):
    """Both kinds of each (P, a, x) at the all-ones point and at x."""
    cases = []
    for P, a, x in posets:
        for point in (all_ones_point(a.diagonals.count), x):
            cases += [(P, PolytopeSpec(kind, point), a) for kind in ("fillings", "rpp")]
    return cases


def _catalog_at_two_points(max_elements=None):
    """Catalog posets with at most max_elements elements, each also at a point
    of its own with every x_D in [21/20, 5/4], so with box edges below 1."""
    posets = []
    for entry in catalog():
        P = entry.poset
        if max_elements is not None and P.n > max_elements:
            continue
        a = analyze(P)
        rng = Random(entry.name)
        x = tuple(Fraction(rng.randint(21, 25), 20) for _ in range(a.diagonals.count))
        posets.append((P, a, x))
    return _cases_at_two_points(posets)


def test_monte_carlo_shortcuts_keep_every_hit():
    # every catalog poset at seed 3, at two points, one with box edges below 1
    cases = _catalog_at_two_points()
    samples = 4 * verify.CHUNK + 999
    estimates = verify.monte_carlo_volumes(_pairs(cases), samples, seed=3)
    assert [e.hits for e in estimates] == _unshortcut_monte_carlo_hits(cases, samples, 3)
    # cases with hits to compare ran on both sides of each shortcut:
    # unit and scaled boxes, with and without cover pairs
    sides = {
        (e.box_volume == 1.0, bool(verify._volume_test(P, s, a)[2]))
        for (P, s, a), e in zip(cases, estimates)
        if e.hits
    }
    assert sides == {(True, True), (True, False), (False, True), (False, False)}


def test_monte_carlo_candidates_keep_every_hit():
    # only simplex points (sum u <= 1) are drawn.  On criterion 10's cases
    # (every catalog poset with n <= 6) at two points, one with box edges
    # below 1: every edge * c_p is at least 1, no box point with
    # sum u > 1 + 1e-9 passes a case's test, and at seeds 0-9 the batched
    # hit counts equal the unshortcut ones
    cases = _catalog_at_two_points(max_elements=6)
    assert len(cases) == 4 * 82
    box_hits_outside = 0
    for n in sorted({P.n for P, _, _ in cases}):
        u = np.random.default_rng(n).random((4 * verify.CHUNK, n))
        outside = u.sum(axis=1) > 1 + 1e-9
        for P, spec, a in cases:
            if P.n != n:
                continue
            edge, coefficients, cover_pairs = verify._volume_test(P, spec, a)
            assert all(edge * c >= 1.0 - 1e-12 for c in coefficients), (P.n, spec)
            pts = u * edge
            hit = _column_dot(pts, coefficients) <= 1.0
            for low, high in cover_pairs:
                hit &= pts[:, low] >= pts[:, high]
            box_hits_outside += int(np.count_nonzero(hit & outside))
    assert box_hits_outside == 0
    samples = 8 * verify.CHUNK + 999
    for seed in range(10):
        hits = [e.hits for e in verify.monte_carlo_volumes(_pairs(cases), samples, seed)]
        assert hits == _unshortcut_monte_carlo_hits(cases, samples, seed), seed
        assert sum(1 for h in hits if h) > len(cases) // 2


def test_monte_carlo_volumes_match_reference(monkeypatch):
    small = [(e.poset, analyze(e.poset)) for e in catalog() if e.poset.n <= 6]
    at_ones = [
        (P, PolytopeSpec(kind, all_ones_point(a.diagonals.count)), a)
        for P, a in small
        for kind in ("fillings", "rpp")
    ]
    # per size, the poset of largest volume at a random point with every x_D in
    # (1, 5/4]: the box edges are below 1 and the hit rates stay above 0
    widest = {}
    for P, a in small:
        if P.n not in widest or math.prod(a.hook_lengths) < math.prod(widest[P.n][1].hook_lengths):
            widest[P.n] = (P, a)
    at_random = []
    for n, (P, a) in sorted(widest.items()):
        rng = Random(n)
        x = tuple(Fraction(rng.randint(21, 25), 20) for _ in range(a.diagonals.count))
        at_random += [(P, PolytopeSpec(kind, x), a) for kind in ("fillings", "rpp")]
    # an 8-element star, whose hit rate is 1/8 of the simplex points: at
    # 10^8 samples about 2,480 of them, three batches at CHUNK = 999
    star = tree([None] + [0] * 7)
    a8 = analyze(star)
    ones8 = all_ones_point(a8.diagonals.count)
    at_eight = [(star, PolytopeSpec(kind, ones8), a8) for kind in ("fillings", "rpp")]
    runs = ((at_ones, 20_000, 0), (at_random, 50_000, 5), (at_eight, 10**8, 8))
    expected = {}
    for cases, samples, seed in runs:
        expected[seed] = [_reference_monte_carlo_volume(P, s, samples, seed, a) for P, s, a in cases]
        assert verify.monte_carlo_volumes(_pairs(cases), samples, seed) == expected[seed]
        # the batch size does not change the draws
        with monkeypatch.context() as m:
            m.setattr(verify, "CHUNK", 999)
            assert verify.monte_carlo_volumes(_pairs(cases), samples, seed) == expected[seed]
    assert sorted(widest) == [1, 2, 3, 4, 5, 6]
    assert all(e.box_volume < 1.0 and e.hits > 0 for e in expected[5])
    # a size where the two kinds' boxes differ, so one draw is scaled twice
    assert any(f.box_volume != r.box_volume for f, r in zip(expected[5][::2], expected[5][1::2]))
    # the star's points span three batches at CHUNK = 999, and both kinds hit
    assert np.random.default_rng(8).binomial(10**8, 1 / math.factorial(8)) > 2 * 999
    assert all(e.hits > 0 for e in expected[8])


def test_simplex_points_keep_the_box_law():
    # The hit count of each case is Binomial(samples, vol / box) under both
    # samplers (monte_carlo_volumes' docstring).  Bound and seeds fixed in
    # advance: |z| <= 4.5 for every case, simplex seeds 0-2 against box seeds
    # 100-102 (distinct, so the two counts are independent), 10^6 samples.
    posets = [chain(2), chain(3), young((2, 1)), tree([None] + [0] * 5), young((3, 2, 1))]
    analyses = [analyze(P) for P in posets]
    cases = _cases_at_two_points(
        # x_D = (21 + D % 5) / 20: box edges 20/21 and below
        (P, a, tuple(Fraction(21 + d % 5, 20) for d in range(a.diagonals.count)))
        for P, a in zip(posets, analyses)
    )
    samples = 10**6
    for seed in range(3):
        simplex = [e.hits for e in verify.monte_carlo_volumes(_pairs(cases), samples, seed)]
        box = _box_monte_carlo_hits(cases, samples, seed + 100)
        for (P, spec, _), h_simplex, h_box in zip(cases, simplex, box):
            rate = (h_simplex + h_box) / (2 * samples)
            assert 0.0 < rate < 1.0, (P.n, spec)
            z = (h_simplex - h_box) / math.sqrt(2 * samples * rate * (1.0 - rate))
            assert abs(z) <= 4.5, (P.n, spec, seed, h_simplex, h_box)


def test_monte_carlo_past_170_elements_draws_nothing():
    # 1 / 200! rounds to 0.0 (int division; 1.0 / 200! would overflow), so no
    # point is drawn, where the box sampler drew 2 * 10^8 doubles
    P = chain(200)
    a = analyze(P)
    spec = PolytopeSpec("fillings", all_ones_point(a.diagonals.count))
    start = time.perf_counter()
    estimate = monte_carlo_volume(P, spec, samples=10**6)
    assert time.perf_counter() - start < 0.1
    assert estimate == verify.VolumeEstimate("fillings", 10**6, 0, 0, 1.0, 0.0, 0.0)


def _randrange_gaps(n, rng):
    """``_simplex_gaps`` as written with ``randrange`` and ``shuffle``."""
    draws = sorted(rng.randrange(0, verify.GRAIN + 1) for _ in range(n))
    order = list(range(n))
    rng.shuffle(order)
    gaps = [0] * n
    previous = 0
    for draw, p in zip(draws, order):
        gaps[p] = draw - previous
        previous = draw
    return gaps


def test_simplex_gap_rows_keep_their_draws():
    # c7's samples are pinned by these draws: one getrandbits(128) seeds a
    # PCG64 generator, which draws the values, then deals each row's spacings
    for n in (0, 1, 2, 3, 6, 8, 17, 64):
        for trials in (1, 5):
            for seed in range(10):
                oracle, rng = Random(seed), Random(seed)
                rows = verify._simplex_gap_rows(n, trials, rng)
                gen = np.random.default_rng(oracle.getrandbits(128))
                draws = gen.integers(0, verify.GRAIN, size=(trials, n), endpoint=True)
                spacings = [[b - a for a, b in zip([0, *row], row)] for row in map(sorted, draws.tolist())]
                expected = gen.permuted(np.array(spacings, dtype=np.int64).reshape(trials, n), axis=1)
                assert rows.shape == (trials, n)
                assert rows.tolist() == expected.tolist()
                assert (rows >= 0).all() and (rows.sum(axis=1) <= verify.GRAIN).all()
                assert rng.getstate() == oracle.getstate()


class _ScriptedRandom:
    """Stands in for ``Random`` in ``_randrange_gaps``: randrange returns the given
    draws in turn, and shuffle puts the given permutation in place."""

    def __init__(self, draws, permutation):
        self.draws = iter(draws)
        self.permutation = permutation

    def randrange(self, start, stop):
        return next(self.draws)

    def shuffle(self, x):
        x[:] = self.permutation


# chi-square bounds at upper tail 1e-4, fixed before the first run: df 9 (n = 2)
# and df 19 (n = 3), from scipy.stats.chi2.ppf(1 - 1e-4, df)
GAP_LAW_CHI2 = {2: 33.72, 3: 50.80}


@pytest.mark.parametrize("n", [2, 3])
def test_simplex_gap_rows_keep_the_law(monkeypatch, n):
    # the exact law of _randrange_gaps at GRAIN = 3: every tuple of n draws and
    # every permutation, the ones Random's randrange and shuffle make uniformly
    monkeypatch.setattr(verify, "GRAIN", 3)
    law = {}
    for draws in itertools.product(range(4), repeat=n):
        for permutation in itertools.permutations(range(n)):
            gaps = tuple(_randrange_gaps(n, _ScriptedRandom(draws, list(permutation))))
            law[gaps] = law.get(gaps, 0) + 1
    total = sum(law.values())
    assert len(law) - 1 == {2: 9, 3: 19}[n]
    trials = 20_000
    for seed in range(3):
        seen = {}
        for row in map(tuple, verify._simplex_gap_rows(n, trials, Random(seed)).tolist()):
            seen[row] = seen.get(row, 0) + 1
        assert set(seen) <= set(law), seed
        statistic = sum(
            (seen.get(gaps, 0) - trials * k / total) ** 2 / (trials * k / total)
            for gaps, k in law.items()
        )
        assert statistic <= GAP_LAW_CHI2[n], (n, seed, statistic)


def test_monte_carlo_sure_hits_skip_the_draw(monkeypatch):
    # a case of at most one element that passes its test at u = (1.0,) * n
    # hits at every simplex point, so its count is K with no point drawn: at
    # 10**6 samples and seeds 0-9, criterion 10's one-element cases count
    # every sample, as the drawn points did.  At x = 3/17 the float
    # edge * c_0 rounds above 1.0, so that case still draws, and at seeds
    # 0-9 both kinds count what the drawn points give.
    one = [
        (e.poset, PolytopeSpec(kind, all_ones_point(1)), analyze(e.poset))
        for e in catalog()
        if e.poset.n == 1
        for kind in ("fillings", "rpp")
    ]
    assert len(one) == 6
    single, point = Poset(1), (Fraction(3, 17),)
    rounding = [(single, PolytopeSpec(kind, point), analyze(single)) for kind in ("fillings", "rpp")]
    for case in rounding:
        edge, coefficients, _ = verify._volume_test(*case)
        assert edge * coefficients[0] > 1.0
    empty = [(Poset(0), PolytopeSpec(kind, ()), None) for kind in ("fillings", "rpp")]
    default_rng = np.random.default_rng
    draws = []

    class Recorder:
        """A numpy Generator that records each exponential batch it draws."""

        def __init__(self, seed):
            self.rng = default_rng(seed)

        def binomial(self, n, p):
            return self.rng.binomial(n, p)

        def standard_exponential(self, size):
            draws.append(size)
            return self.rng.standard_exponential(size)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", Recorder)
        for seed in range(10):
            hits = [e.hits for e in verify.monte_carlo_volumes(_pairs(one + empty), 10**6, seed)]
            assert hits == [10**6] * len(one + empty)
        assert not draws
        verify.monte_carlo_volumes(_pairs(one + rounding), 10**6, 0)
        assert draws
    samples = 8 * verify.CHUNK + 999
    for seed in range(10):
        hits = [e.hits for e in verify.monte_carlo_volumes(_pairs(one + rounding), samples, seed)]
        assert hits == _unshortcut_monte_carlo_hits(one + rounding, samples, seed), seed


def test_monte_carlo_tests_equal_cases_once(monkeypatch):
    # criterion 10's full-catalog cases at its shipped samples and seed: the
    # 164 cases make 107 distinct tests (8 -> 2 at n = 2, 14 -> 4 at n = 3).
    # Each distinct test runs once per batch, and every hit count equals
    # that of the per-case loop over the same draws
    cases = []
    for e in catalog():
        if e.poset.n <= MONTE_CARLO_MAX_ELEMENTS:
            a = analyze(e.poset)
            point = all_ones_point(a.diagonals.count)
            cases += [(e.poset, PolytopeSpec(kind, point), a) for kind in ("fillings", "rpp")]
    distinct = {}
    for P, spec, a in cases:
        distinct.setdefault(P.n, set()).add(verify._volume_test(P, spec, a))
    assert len(cases) == 164 and sum(map(len, distinct.values())) == 107
    assert (len(distinct[2]), len(distinct[3])) == (2, 4)
    # n = 1 has one test, a sure hit: nothing is drawn or tested there
    assert [all(edge * c <= 1.0 for c in cs) for edge, cs, _ in distinct[1]] == [True]
    samples, seed = 10**6, 0
    count_nonzero = np.count_nonzero
    tested = []
    with monkeypatch.context() as patch:
        patch.setattr(np, "count_nonzero", lambda ok: tested.append(len(ok)) or count_nonzero(ok))
        estimates = verify.monte_carlo_volumes(_pairs(cases), samples, seed)
    runs = 0
    for n, tests in distinct.items():
        if n > 1:
            inside = np.random.default_rng(seed).binomial(samples, 1 / math.factorial(n))
            runs += len(tests) * math.ceil(inside / verify.CHUNK)
    assert len(tested) == runs
    assert [e.hits for e in estimates] == _unshortcut_monte_carlo_hits(cases, samples, seed)


def test_weight_sum_refuses_an_unknown_method():
    P = d_k_one(4)
    a = analyze(P)
    x = all_ones_point(a.diagonals.count)
    with pytest.raises(ValueError, match=r"^unknown method 'brute'$"):
        weight_sum(P, a.diagonals, x, "brute")
