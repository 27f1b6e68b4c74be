import time
from random import Random

import pytest

from dcposets import (
    Poset,
    analyze,
    builtin_poset,
    catalog,
    d_k_one,
    find_d_minus_convex_sets,
    shifted_young,
    structure_report,
    young,
)
from dcposets.dstructure import AxiomViolation, DInterval, _forbidden_configuration
from dcposets.poset import bits, mask_of

from conftest import chain, random_shape, restrict, upper_set_masks
from oracles import (
    _brute_force_d_intervals,
    _brute_force_dminus,
    _dminus_model,
    _reference_dminus,
    _reference_forbidden,
    _reference_structure_report,
)


def _interval(P: Poset, bottom: int, top: int):
    found = [iv for iv in analyze(P).d_intervals if (iv.bottom, iv.top) == (bottom, top)]
    assert len(found) <= 1
    return found[0] if found else None


def test_classify_diamond():
    P = d_k_one(3)
    assert [(iv.bottom, iv.top) for iv in analyze(P).d_intervals] == [(0, 3)]
    interval = _interval(P, 0, 3)
    assert interval is not None
    assert interval.k == 3
    assert interval.sides == (1, 2)
    assert interval.neck == (3,)
    assert interval.tail == (0,)
    assert interval.diamond_top == 3


def test_classify_double_tailed():
    # p=0, c=1, a=2, b=3, d=4, q=5
    P = builtin_poset("d4-named")
    interval = _interval(P, 0, 5)
    assert interval is not None
    assert interval.k == 4
    assert interval.sides == (2, 3)
    assert interval.neck == (5, 4)
    assert interval.tail == (1, 0)
    assert interval.diamond_top == 4
    assert _interval(P, 1, 4).k == 3


def test_chain_interval_is_not_d():
    assert analyze(chain(4)).d_intervals == ()


def test_find_d_intervals_double_tailed():
    P = d_k_one(4)
    found = [(iv.bottom, iv.top, iv.k) for iv in analyze(P).d_intervals]
    assert found == [(0, 5, 4), (1, 4, 3)]
    assert analyze(Poset(3, [])).d_intervals == ()


BRUTE_FORCE_POSETS = ["d4-named", "d5", "sample10", "young-3.2", "shifted-4.3.1", "chain5"]


@pytest.mark.parametrize("name", BRUTE_FORCE_POSETS)
def test_dminus_against_brute_force(family, name):
    P = family[name]
    expected = _brute_force_dminus(P)
    got = {shape.members for shape in analyze(P).d_minus_sets}
    assert got == expected
    assert all(shape.member_mask == mask_of(shape.members) for shape in analyze(P).d_minus_sets)


@pytest.mark.parametrize("name", BRUTE_FORCE_POSETS)
def test_d_intervals_against_brute_force(family, name):
    P = family[name]
    expected = _brute_force_d_intervals(P)
    got = {(iv.bottom, iv.top, iv.members) for iv in analyze(P).d_intervals}
    assert got == expected
    assert all(iv.member_mask == mask_of(iv.members) for iv in analyze(P).d_intervals)


def test_d_minus_set_with_two_completions():
    # {0, 1, 2} is completed by both 3 and 4; each completion is a d_3-interval
    P = Poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    found = analyze(P).d_intervals
    assert [(iv.bottom, iv.top) for iv in found] == [(0, 3), (0, 4)]
    assert {(iv.bottom, iv.top, iv.members) for iv in found} == _brute_force_d_intervals(P)
    # an element bottoming two d-intervals is a structural failure
    checks = {(f.check, f.witness) for f in structure_report(P, found).failures}
    assert ("unique-bottom", (0, 3, 4)) in checks


def test_dminus_named_example():
    P = builtin_poset("d4-named")
    shapes = {(s.k, s.members) for s in analyze(P).d_minus_sets}
    assert shapes == {(3, frozenset({1, 2, 3})), (4, frozenset({0, 1, 2, 3, 4}))}


def test_chain_has_no_dminus():
    assert analyze(chain(5)).d_minus_sets == ()


def test_trees_are_d_complete(family):
    for name in ("tree-star", "tree-mixed", "chain5", "singleton"):
        assert analyze(family[name]).is_d_complete


def test_truncated_diamond_violates_completion():
    P = _dminus_model(4)  # a d_4^- shape as a standalone poset
    report = analyze(P).axiom_report
    assert not report.is_d_complete
    assert any(v.axiom == 1 for v in report.violations)


def test_sample10_is_d_complete():
    assert analyze(builtin_poset("sample10")).is_d_complete


def test_minimal_difference_axiom_violation():
    # two diamonds sharing everything but their bottoms
    P = Poset(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    report = analyze(P).axiom_report
    assert any(v.axiom == 3 for v in report.violations)
    with pytest.raises(ValueError, match=r"^poset is not d-complete: axiom 3 fails at \(0, 1, 2, 3\)$"):
        analyze(P).ensure_d_complete()


def test_top_cover_axiom_violation():
    # a diamond 0<1,0<2,1<3,2<3 whose top 3 also covers 4, outside [0, 3]
    P = Poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 3)])
    report = analyze(P).axiom_report
    assert not report.is_d_complete
    assert AxiomViolation(2, (0, 3, 4)) in report.violations


def test_structure_report_family(family, analyses):
    for name, P in family.items():
        assert structure_report(P, analyses[name].d_intervals).ok


def test_cover_bound_failure():
    P = Poset(4, [(0, 1), (0, 2), (0, 3)])
    report = structure_report(P, analyze(P).d_intervals)
    assert any(f.check == "cover-bound" for f in report.failures)


def test_forbidden_configuration_detected():
    pairs = []
    # lower elements 0,1,2; upper 3,4,5; element i covered by the two uppers != 3+i
    for low, ups in ((0, (4, 5)), (1, (3, 5)), (2, (3, 4))):
        for up in ups:
            pairs.append((low, up))
    P = Poset(6, pairs)
    report = structure_report(P, analyze(P).d_intervals)
    assert any(f.check == "forbidden-configuration" for f in report.failures)


def test_interval_uniqueness_structure(analyses):
    for a in analyses.values():
        intervals = a.d_intervals
        bottoms = [iv.bottom for iv in intervals]
        tops = [iv.top for iv in intervals]
        assert len(bottoms) == len(set(bottoms))
        assert len(tops) == len(set(tops))
        by_top = {iv.top: iv for iv in intervals}
        for iv in intervals:
            for x in iv.neck:
                assert by_top[x].members <= iv.members


def test_containment_is_read_off_the_neck():
    # stable_insertion_order reads maximality off this lemma: for distinct
    # d-intervals I and J, I lies in J iff top(I) is a neck element of J
    # other than top(J).
    posets = [e.poset for e in catalog()]
    posets += [shifted_young(tuple(range(12, 0, -1))), shifted_young((9, 7, 4, 2, 1))]
    posets += [young((10,) * 10), d_k_one(50)]
    rng = Random(12)
    posets += [shifted_young(random_shape(rng, 45, strict=True)) for _ in range(40)]
    nested = 0
    for P in posets:
        intervals = analyze(P).d_intervals
        for inner in intervals:
            for outer in intervals:
                if inner is not outer:
                    inside = inner.member_mask & ~outer.member_mask == 0
                    assert inside == (inner.top in outer.neck[1:]), (P, inner, outer)
                    nested += inside
    assert nested >= 1000


def test_upper_sets_stay_d_complete(family):
    # An upper set's d-intervals are P's d-intervals with bottom in it:
    # diagonal_report's lemmas build an upper set's diagonals on this fact.
    for name in ("d4", "d5", "sample10", "young-3.2", "shifted-4.3.1", "tree-mixed"):
        P = family[name]
        intervals = analyze(P).d_intervals
        for mask in upper_set_masks(P):
            if mask == 0:
                continue
            sub, old_ids = restrict(P, bits(mask))
            a = analyze(sub)
            assert a.is_d_complete, (name, mask)

            def old(ids):
                return tuple(old_ids[v] for v in ids)

            mapped = [
                DInterval(iv.k, *old((iv.bottom, iv.top)), old(iv.sides), old(iv.neck), old(iv.tail))
                for iv in a.d_intervals
            ]
            assert mapped == [iv for iv in intervals if mask >> iv.bottom & 1], (name, mask)


def _random_posets(count: int, seed: int):
    """Seeded random posets: each element gets up to three random covers above it."""
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(4, 14)
        pairs = []
        for low in range(n - 1):
            for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
                pairs.append((low, rng.randrange(low + 1, n)))
        yield Poset(n, pairs)


def test_cover_anchored_scans_match_all_pairs_scans():
    posets = [e.poset for e in catalog()]
    posets += [young((12,) * 12), shifted_young((7, 6, 5, 4, 3, 2, 1)), d_k_one(50), chain(300)]
    posets += list(_random_posets(2000, seed=13))
    configurations = 0
    for P in posets:
        assert find_d_minus_convex_sets(P) == _reference_dminus(P)
        witness = _forbidden_configuration(P)
        assert witness == _reference_forbidden(P)
        configurations += witness is not None
    assert configurations >= 10


def test_d_minus_sets_sorted_by_ascending_members():
    posets = [entry.poset for entry in catalog()]
    posets += [young((8,) * 8), d_k_one(200), shifted_young(tuple(range(12, 0, -1)))]
    for P in posets:
        sets = find_d_minus_convex_sets(P)
        assert sets == tuple(sorted(sets, key=lambda s: (s.k, s.bottom, tuple(bits(s.member_mask))))), P


def test_long_double_tailed_diamond_structure():
    # d_1000(1): one d_k^- set and one d_k-interval for each k = 3..1000
    P = d_k_one(1000)
    start = time.perf_counter()
    a = analyze(P)
    assert len(a.d_minus_sets) == 998
    assert len(a.d_intervals) == 998
    assert a.is_d_complete
    assert time.perf_counter() - start < 2.0
    assert [s.k for s in a.d_minus_sets] == list(range(3, 1001))


def _swapped(P: Poset, intervals, which: str):
    """Copies of ``intervals``, each with one neck or tail element swapped for an element outside it."""
    for i, iv in enumerate(intervals):
        chain_ = getattr(iv, which)
        outside = [v for v in range(P.n) if v not in iv.members]
        if not outside:
            continue
        for j in (0, len(chain_) - 1):
            swapped = chain_[:j] + (outside[(i + j) % len(outside)],) + chain_[j + 1 :]
            yield intervals[:i] + (iv._replace(**{which: swapped}),) + intervals[i + 1 :]


def test_structure_report_matches_frozenset_reference():
    posets = [e.poset for e in catalog()] + [d_k_one(50), young((12,) * 12)]
    failing = set()
    for P in posets:
        intervals = analyze(P).d_intervals
        assert structure_report(P, intervals) == _reference_structure_report(P, intervals)
        if P.n > 12:
            continue
        for which in ("neck", "tail"):
            for mutated in _swapped(P, intervals, which):
                report = structure_report(P, mutated)
                assert report == _reference_structure_report(P, mutated)
                failing |= {f.check for f in report.failures}
    assert {"interval-closure", "neck-containment", "tail-containment"} <= failing


@pytest.mark.parametrize(
    ("name", "bound"), [("young-8x8", 1.0), ("d200", 1.0), ("d1000", 2.0)]
)
def test_structure_report_has_no_cubic_scan(name, bound):
    P = {"young-8x8": young((8,) * 8), "d200": d_k_one(200), "d1000": d_k_one(1000)}[name]
    intervals = analyze(P).d_intervals
    start = time.perf_counter()
    report = structure_report(P, intervals)
    assert time.perf_counter() - start < bound
    assert report.ok
