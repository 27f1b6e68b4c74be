import random
import time

import pytest

from dcposets import (
    Poset,
    analyze,
    builtin_poset,
    catalog,
    compute_diagonals,
    d_k_one,
    diagonal_report,
    shifted_young,
    young,
)
from dcposets.diagonals import DiagonalFailure, DiagonalPartition
from dcposets.families import young_box_ids
from dcposets.poset import bits

from conftest import _random_perm, _renumber, chain, restrict, shifted_box_ids
from oracles import _reference_diagonal_report


def test_tree_diagonals_are_singletons(family):
    P = family["tree-mixed"]
    part = analyze(P).diagonals
    assert all(len(c) == 1 for c in part.classes)
    assert part.count == P.n


def test_sample10_partition_matches_known_labels():
    P = builtin_poset("sample10")
    part = analyze(P).diagonals
    assert set(part.classes) == {
        frozenset({9, 1}),
        frozenset({8, 4}),
        frozenset({6, 0}),
        frozenset({7, 2}),
        frozenset({3}),
        frozenset({5}),
    }
    # the five adjacent pairs, written via class members
    by_member = {min(c): part.diagonal_of[min(c)] for c in part.classes}
    pair_sets = {
        frozenset({part.diagonal_of[9], part.diagonal_of[8]}),
        frozenset({part.diagonal_of[8], part.diagonal_of[6]}),
        frozenset({part.diagonal_of[8], part.diagonal_of[7]}),
        frozenset({part.diagonal_of[6], part.diagonal_of[3]}),
        frozenset({part.diagonal_of[7], part.diagonal_of[5]}),
    }
    assert {frozenset(p) for p in part.adjacent} == pair_sets
    assert by_member is not None


def test_double_tailed_diamond_diagonals():
    part = analyze(d_k_one(4)).diagonals
    assert part.classes == (
        frozenset({0, 5}),
        frozenset({1, 4}),
        frozenset({2}),
        frozenset({3}),
    )
    assert part.adjacent == ((0, 1), (1, 2), (1, 3))


def test_shifted_leftmost_column_alternates():
    shape = (5, 4, 2)
    part = analyze(shifted_young(shape)).diagonals
    ids = shifted_box_ids(shape)
    d = part.diagonal_of
    assert d[ids[(1, 1)]] == d[ids[(3, 3)]]
    assert d[ids[(1, 1)]] != d[ids[(2, 2)]]
    # off-diagonal boxes group by content as in straight shapes
    assert d[ids[(1, 2)]] == d[ids[(2, 3)]] == d[ids[(3, 4)]]
    assert d[ids[(1, 3)]] == d[ids[(2, 4)]]
    assert part.count == 6


def test_young_diagonals_follow_content():
    for shape in ((3, 2), (2, 2, 1), (4, 3, 1), (1, 1, 1)):
        part = analyze(young(shape)).diagonals
        ids = young_box_ids(shape)
        for (i1, j1), e1 in ids.items():
            for (i2, j2), e2 in ids.items():
                same = part.diagonal_of[e1] == part.diagonal_of[e2]
                assert same == (i1 - j1 == i2 - j2)


def _dense_pairs(P, part):
    """Adjacent pairs (c < d) read off a dense m x m adjacency matrix built from the covers."""
    adj = [[False] * part.count for _ in range(part.count)]
    for a, b in P.covers:
        da, db = part.diagonal_of[a], part.diagonal_of[b]
        if da != db:
            adj[da][db] = adj[db][da] = True
    return tuple(
        (c, d) for c in range(part.count) for d in range(c + 1, part.count) if adj[c][d]
    )


def test_sparse_pairs_match_dense_adjacency():
    posets = [entry.poset for entry in catalog()] + [young((12,) * 12), d_k_one(50)]
    for P in posets:
        part = analyze(P).diagonals
        assert part.adjacent == _dense_pairs(P, part), P


def test_partition_is_interval_order_independent():
    P = builtin_poset("sample10")
    intervals = list(analyze(P).d_intervals)
    base = compute_diagonals(P, tuple(intervals))
    rng = random.Random(5)
    for _ in range(10):
        rng.shuffle(intervals)
        assert compute_diagonals(P, tuple(intervals)) == base


def test_diagonal_report_family(family, analyses):
    for name, P in family.items():
        a = analyses[name]
        report = diagonal_report(P, a.diagonals, a.d_intervals)
        assert report.ok, (name, report.failures[:3])


def test_singleton_vacuous():
    a = analyze(chain(1))
    assert diagonal_report(a.poset, a.diagonals, a.d_intervals).ok


def _partition(P, classes) -> DiagonalPartition:
    """The partition into ``classes``, numbered by smallest member, adjacency from covers."""
    classes = tuple(sorted((frozenset(c) for c in classes), key=min))
    diagonal_of = [0] * P.n
    for d, members in enumerate(classes):
        for v in members:
            diagonal_of[v] = d
    adjacent = {
        (min(diagonal_of[a], diagonal_of[b]), max(diagonal_of[a], diagonal_of[b]))
        for a, b in P.covers
        if diagonal_of[a] != diagonal_of[b]
    }
    return DiagonalPartition(tuple(diagonal_of), classes, tuple(sorted(adjacent)))


def _split_first_diagonal(P, part):
    """Classes with the first diagonal of two or more elements cut into a lower and an upper half."""
    classes = list(part.classes)
    d = next(i for i, members in enumerate(classes) if len(members) > 1)
    chain = sorted(classes.pop(d), key=lambda v: bin(P.downset_mask(v)).count("1"))
    return classes + [chain[: len(chain) // 2], chain[len(chain) // 2 :]]


def _merge_first_adjacent_pair(P, part):
    c, d = part.adjacent[0]
    rest = [members for i, members in enumerate(part.classes) if i not in (c, d)]
    return rest + [part.classes[c] | part.classes[d]]


WRONG_PARTITIONS = [
    ("d4", _split_first_diagonal, {3, 4}),
    ("d4", _merge_first_adjacent_pair, {1, 2, 3}),
    ("sample10", _split_first_diagonal, {3, 4}),
    ("sample10", _merge_first_adjacent_pair, {1, 2, 3}),
    ("young-3.2", _split_first_diagonal, {3}),
    ("young-3.2", _merge_first_adjacent_pair, {1, 2, 3, 4, 6}),
]


@pytest.mark.parametrize(("name", "wrong", "props"), WRONG_PARTITIONS)
def test_diagonal_report_rejects_wrong_partition(family, analyses, name, wrong, props):
    P, a = family[name], analyses[name]
    part = _partition(P, wrong(P, a.diagonals))
    report = diagonal_report(P, part, a.d_intervals)
    assert not report.ok
    assert {f.prop for f in report.failures} == props
    for f in report.failures:
        if f.prop == 3:
            # the witness pair is joined by one partition and separated by the other
            x, y, um = f.witness
            sub, old_ids = restrict(P, bits(um))
            fresh = analyze(sub).diagonals.diagonal_of
            same_u = fresh[old_ids.index(x)] == fresh[old_ids.index(y)]
            assert (part.diagonal_of[x] == part.diagonal_of[y]) != same_u


def _failing_props(report) -> set[int]:
    return {f.prop for f in report.failures}


def _assert_matches_reference(P, part, intervals):
    # (5) is checked only where (3) holds, so it drops out wherever the reference finds (3).
    report = diagonal_report(P, part, intervals)
    expected = _reference_diagonal_report(P, part, intervals)
    assert report.ok == expected.ok
    props = _failing_props(expected)
    assert _failing_props(report) == (props - {5} if 3 in props else props)
    for f in report.failures:
        if f.prop in (3, 5):
            um = f.witness[-1]
            assert all(P.upset_mask(v) & ~um == 0 for v in bits(um)), f


def _relabel(P, rng):
    """P with its elements renumbered by a seeded random permutation."""
    return _renumber(P, _random_perm(P.n, rng))


def _check_own_split_and_merged(posets) -> int:
    """Compare each poset's own, split and merged partitions with the reference; return how many were wrong."""
    wrong = 0
    for P in posets:
        a = analyze(P)
        part, intervals = a.diagonals, a.d_intervals
        _assert_matches_reference(P, part, intervals)
        if any(len(members) > 1 for members in part.classes):
            _assert_matches_reference(P, _partition(P, _split_first_diagonal(P, part)), intervals)
            wrong += 1
        if part.adjacent:
            _assert_matches_reference(P, _partition(P, _merge_first_adjacent_pair(P, part)), intervals)
            wrong += 1
    return wrong


def test_diagonal_report_matches_reference_on_catalog():
    assert _check_own_split_and_merged(entry.poset for entry in catalog()) >= 300


def test_diagonal_report_matches_reference_on_relabelled_catalog():
    # In the catalog's Young and shifted shapes each diagonal's top has its
    # smallest id; renumbered copies give diagonals whose ids follow no order.
    rng = random.Random(11)
    posets = [_relabel(entry.poset, rng) for entry in catalog()[::3]]
    assert _check_own_split_and_merged(posets) >= 100


@pytest.mark.parametrize("perm", [(0, 1, 2, 3, 4), (3, 4, 1, 0, 2)])
def test_diagonal_report_finds_adjacency_lost_in_an_upper_set(perm):
    # A diamond whose bottom has a third upper cover 4: the diagonal {0, 3}
    # meets {4} only in the cover 0 < 4, which up(3) | up(4) does not hold.
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)]
    P = Poset(5, [(perm[a], perm[b]) for a, b in covers])
    a = analyze(P)
    report = diagonal_report(P, a.diagonals, a.d_intervals)
    expected = _reference_diagonal_report(P, a.diagonals, a.d_intervals)
    assert {f.prop for f in report.failures} == {f.prop for f in expected.failures} == {5}
    assert set(report.failures) <= set(expected.failures)
    c, d = sorted((a.diagonals.diagonal_of[perm[3]], a.diagonals.diagonal_of[perm[4]]))
    um = P.upset_mask(perm[3]) | P.upset_mask(perm[4])
    assert DiagonalFailure(5, (c, d, um)) in report.failures
    if perm == (0, 1, 2, 3, 4):
        assert (c, d, um) == (0, 3, 24)


def _random_classes(P, part, rng):
    """Random labels, or the true partition with one element moved or two classes merged."""
    kind = rng.randrange(3)
    if kind == 0:
        k = rng.randint(1, P.n)
        labels = [rng.randrange(k) for _ in range(P.n)]
    else:
        labels = list(part.diagonal_of)
        if kind == 1:
            labels[rng.randrange(P.n)] = rng.randrange(part.count + 1)
        else:
            c, d = rng.randrange(part.count), rng.randrange(part.count)
            labels = [c if label == d else label for label in labels]
    classes = {}
    for v, label in enumerate(labels):
        classes.setdefault(label, set()).add(v)
    return classes.values()


def _random_partition_cases():
    """1,200 seeded (poset, analysis, classes) cases over the catalog posets with n <= 9."""
    small = [entry.poset for entry in catalog() if entry.poset.n <= 9]
    rng = random.Random(20)
    for i in range(1200):
        P = small[i % len(small)]
        a = analyze(P)
        yield P, a, _random_classes(P, a.diagonals, rng)


def test_diagonal_report_matches_reference_on_random_partitions():
    for P, a, classes in _random_partition_cases():
        _assert_matches_reference(P, _partition(P, classes), a.d_intervals)


def test_diagonal_report_does_not_depend_on_numbering():
    # Each case renumbered by a seeded permutation keeps its verdict and its
    # failing properties: no property's check may pick elements by number.
    rng = random.Random(21)
    for P, a, classes in _random_partition_cases():
        report = diagonal_report(P, _partition(P, classes), a.d_intervals)
        perm = _random_perm(P.n, rng)
        Q = _renumber(P, perm)
        renumbered = diagonal_report(
            Q, _partition(Q, [[perm[v] for v in members] for members in classes]), analyze(Q).d_intervals
        )
        assert renumbered.ok == report.ok, (P, classes)
        assert _failing_props(renumbered) == _failing_props(report), (P, classes)


def test_diagonal_report_matches_reference_beyond_d_complete():
    # Seeded random posets, mostly not d-complete: d-intervals may share a
    # bottom, so an upper set can separate two tops that P joins.
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(3, 8)
        pairs = [
            (low, rng.randrange(low + 1, n))
            for low in range(n - 1)
            for _ in range(rng.choice((0, 1, 1, 2, 2, 3)))
        ]
        P = Poset(n, pairs)
        a = analyze(P)
        _assert_matches_reference(P, a.diagonals, a.d_intervals)
        _assert_matches_reference(P, _partition(P, _random_classes(P, a.diagonals, rng)), a.d_intervals)


LADDER = {
    "young-8x8": lambda: young((8,) * 8),
    "d200": lambda: d_k_one(200),
    "chain-2000": lambda: chain(2000),
    "young-30x30": lambda: young((30,) * 30),
    "shifted-40..1": lambda: shifted_young(tuple(range(40, 0, -1))),
    "d1000": lambda: d_k_one(1000),
}


@pytest.mark.parametrize("name", list(LADDER))
def test_diagonal_report_needs_no_upper_set_walk(name):
    a = analyze(LADDER[name]())
    P = a.poset
    part, intervals = a.diagonals, a.d_intervals
    start = time.perf_counter()
    report = diagonal_report(P, part, intervals)
    assert time.perf_counter() - start < 1.0
    assert report.ok


def test_diagonal_report_past_the_ideal_limit():
    # Young 12x12 has C(24, 12) = 2,704,156 upper sets, past IDEAL_LIMIT
    a = analyze(young((12,) * 12))
    assert diagonal_report(a.poset, a.diagonals, a.d_intervals).ok
