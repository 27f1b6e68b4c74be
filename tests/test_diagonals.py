import random

import pytest

from dcposets import (
    analyze,
    builtin_poset,
    compute_diagonals,
    d_k_one,
    diagonal_report,
    shifted_young,
    young,
)
from dcposets.diagonals import DiagonalPartition
from dcposets.families import shifted_box_ids, young_box_ids
from dcposets.poset import bits

from conftest import chain


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
    assert {frozenset(p) for p in part.pairs()} == pair_sets
    assert by_member is not None


def test_double_tailed_diamond_diagonals():
    part = analyze(d_k_one(4)).diagonals
    assert part.classes == (
        frozenset({0, 5}),
        frozenset({1, 4}),
        frozenset({2}),
        frozenset({3}),
    )
    assert part.pairs() == ((0, 1), (1, 2), (1, 3))


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
    adj = [[False] * len(classes) for _ in classes]
    for a, b in P.covers:
        da, db = diagonal_of[a], diagonal_of[b]
        if da != db:
            adj[da][db] = adj[db][da] = True
    return DiagonalPartition(tuple(diagonal_of), classes, tuple(tuple(row) for row in adj))


def _split_first_diagonal(P, part):
    """Classes with the first diagonal of two or more elements cut into a lower and an upper half."""
    classes = list(part.classes)
    d = next(i for i, members in enumerate(classes) if len(members) > 1)
    chain = sorted(classes.pop(d), key=lambda v: bin(P.downset_mask(v)).count("1"))
    return classes + [chain[: len(chain) // 2], chain[len(chain) // 2 :]]


def _merge_first_adjacent_pair(P, part):
    c, d = part.pairs()[0]
    rest = [members for i, members in enumerate(part.classes) if i not in (c, d)]
    return rest + [part.classes[c] | part.classes[d]]


WRONG_PARTITIONS = [
    ("d4", _split_first_diagonal, {3, 4}),
    ("d4", _merge_first_adjacent_pair, {1, 2, 3, 5}),
    ("sample10", _split_first_diagonal, {3, 4}),
    ("sample10", _merge_first_adjacent_pair, {1, 2, 3, 5}),
    ("young-3.2", _split_first_diagonal, {3}),
    ("young-3.2", _merge_first_adjacent_pair, {1, 2, 3, 4, 5, 6}),
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
            sub, old_ids = P.restrict(bits(um))
            fresh = analyze(sub).diagonals.diagonal_of
            same_u = fresh[old_ids.index(x)] == fresh[old_ids.index(y)]
            assert (part.diagonal_of[x] == part.diagonal_of[y]) != same_u
