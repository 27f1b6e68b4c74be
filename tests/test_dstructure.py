from itertools import combinations

import pytest

from dcposets import Poset, analyze, builtin_poset, d_k_one, structure_report
from dcposets.poset import bits, upper_set_masks

from conftest import chain, is_isomorphic


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


def _dminus_model(k: int) -> Poset:
    """d_k(1) with its maximum removed, built independently."""
    full = d_k_one(k)
    sub, _ = full.restrict(range(full.n - 1))
    return sub


def _brute_force_dminus(P: Poset, kmax: int = 6):
    """Oracle: scan all subsets of the right sizes for convex + isomorphic."""
    found = set()
    for k in range(3, kmax + 1):
        size = 2 * k - 3
        if size > P.n:
            break
        model = _dminus_model(k)
        for subset in combinations(range(P.n), size):
            if not P.is_convex(subset):
                continue
            sub, _ = P.restrict(subset)
            if is_isomorphic(sub, model):
                found.add(frozenset(subset))
    return found


def _brute_force_d_intervals(P: Poset, kmax: int = 6):
    """Oracle: scan all intervals of size 2k-2 for isomorphism with d_k(1)."""
    found = set()
    for p in range(P.n):
        for q in range(P.n):
            if p == q or not P.leq(p, q):
                continue
            members = P.interval(p, q)
            size = len(members)
            if size % 2 or not 4 <= size <= 2 * kmax - 2:
                continue
            sub, _ = P.restrict(members)
            if is_isomorphic(sub, d_k_one(size // 2 + 1)):
                found.add((p, q, members))
    return found


BRUTE_FORCE_POSETS = ["d4-named", "d5", "sample10", "young-3.2", "shifted-4.3.1", "chain5"]


@pytest.mark.parametrize("name", BRUTE_FORCE_POSETS)
def test_dminus_against_brute_force(family, name):
    P = family[name]
    expected = _brute_force_dminus(P)
    got = {shape.members for shape in analyze(P).d_minus_sets}
    assert got == expected


@pytest.mark.parametrize("name", BRUTE_FORCE_POSETS)
def test_d_intervals_against_brute_force(family, name):
    P = family[name]
    expected = _brute_force_d_intervals(P)
    got = {(iv.bottom, iv.top, iv.members) for iv in analyze(P).d_intervals}
    assert got == expected


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


def test_upper_sets_stay_d_complete(family):
    for name in ("d4", "d5", "sample10", "young-3.2", "shifted-4.3.1", "tree-mixed"):
        P = family[name]
        for mask in upper_set_masks(P):
            if mask == 0:
                continue
            sub, _ = P.restrict(bits(mask))
            assert analyze(sub).is_d_complete, (name, mask)
