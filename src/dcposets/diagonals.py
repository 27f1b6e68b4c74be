"""Diagonals of a d-complete poset and their adjacency structure.

Two elements share a diagonal when they span a d-interval, extended
transitively; this generalizes the content diagonals of a Young diagram.
"""

from __future__ import annotations

from typing import NamedTuple

from .dstructure import DInterval
from .poset import Poset


class DiagonalPartition(NamedTuple):
    """Partition of the elements into diagonals plus diagonal adjacency.

    Diagonal ids are canonical: classes are numbered by their smallest
    member.  Two diagonals are adjacent when some element of one covers
    an element of the other; ``adjacent`` lists each adjacent pair (c, d)
    once, with c < d, in ascending order.
    """

    diagonal_of: tuple[int, ...]
    classes: tuple[frozenset[int], ...]
    adjacent: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def compute_diagonals(P: Poset, intervals: tuple[DInterval, ...]) -> DiagonalPartition:
    """Union-find over the (bottom, top) pairs of every d-interval."""
    parent = list(range(P.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for iv in intervals:
        a, b = find(iv.bottom), find(iv.top)
        if a != b:
            parent[max(a, b)] = min(a, b)
    # Each root is its class's smallest member, so ids in order of first appearance are canonical.
    ids: dict[int, int] = {}
    diagonal_of = [ids.setdefault(find(v), len(ids)) for v in range(P.n)]
    groups: list[list[int]] = [[] for _ in ids]
    for v, d in enumerate(diagonal_of):
        groups[d].append(v)
    classes = tuple(map(frozenset, groups))

    adjacent = set()
    for a, b in P.covers:
        da, db = diagonal_of[a], diagonal_of[b]
        if da != db:
            adjacent.add((min(da, db), max(da, db)))

    return DiagonalPartition(tuple(diagonal_of), classes, tuple(sorted(adjacent)))


class DiagonalFailure(NamedTuple):
    prop: int
    witness: tuple[int, ...]


class DiagonalReport(NamedTuple):
    ok: bool
    failures: tuple[DiagonalFailure, ...]


def diagonal_report(
    P: Poset, part: DiagonalPartition, intervals: tuple[DInterval, ...]
) -> DiagonalReport:
    """Exhaustively check the six structural properties of diagonals.

    (1) each diagonal is a chain whose covering steps span d-intervals;
    (2) elements of one diagonal are never adjacent; (3) upper sets induce
    the same diagonal partition; (4) if the minimum of C is minimal in P,
    every element of an adjacent D touches C; (5) upper sets preserve
    diagonal adjacency; (6) adjacent diagonals have at most one minimum
    that is minimal in P.

    Property (1) checks only consecutive elements of each diagonal,
    ordered by downset size: a span is a strict comparability, so a
    diagonal whose consecutive pairs all span d-intervals is a chain.

    An upper set U is convex and up-closed, so its covers are P's, its
    d-intervals are those of ``intervals`` (P's) with bottom in U, and its
    diagonals are the union-find of their spans; no poset is rebuilt.  A
    span's top lies above its bottom, so a span stays inside every upper
    set that holds its bottom.  Hence U's diagonals refine ``own``, P's
    own partition (``compute_diagonals`` on ``intervals``), and the only
    up-closed parts of a diagonal C of P are the sets C ∩ U.

    (3) on P itself asks that ``part`` be ``own``: each element's class
    has the same smallest member in both.  A failure names the smaller of
    the two minima, the first element whose minima differ, and the full
    mask.

    Lemma A (rooted diagonals).  Let ``part`` be ``own``.  Then (3) holds
    on every upper set iff each diagonal C has exactly one maximal
    element, its top, and every other member of C bottoms a d-interval.
    A maximal element of C bottoms none, so equivalently exactly one
    member of C bottoms no d-interval.  (⇐) The top m, C's only maximal
    element, lies above all of C.  Every x in C other than m bottoms a
    span to some t > x in C, and t lies in every upper set that holds x;
    by induction from the top, x is joined to m in every such U.  So each
    nonempty C ∩ U is one class of U, and U's partition is ``own`` cut
    down to U.  (⇒) Let x and y be two members of C that bottom no
    d-interval, and U = up(x) | up(y).  In U, x is joined to something
    only through a span that it tops, whose bottom w < x lies in U only
    if w ≥ y, so only if y < x; and y only if x < y.  So U leaves x or y
    alone in its class while ``part`` joins them: the (3) witness is
    (x, y, mask of U).

    Lemma B (one upper set per adjacent pair).  Let (3) hold on every
    upper set, and write top(c) for the top of diagonal c.  Then (5) holds
    on every upper set iff each adjacent pair (c, d) has a cover between c
    and d whose lower end lies in V = up(top c) | up(top d); a failure
    names (c, d, mask of V).  U meets c iff top(c) lies in U, so every
    upper set that meets both c and d contains V, and the covers inside U
    only grow as U grows: a cover that joins c and d inside V joins them
    inside every such U, and without one V itself meets both diagonals
    and leaves them apart.  The other direction cannot fail: a cover
    inside U is a cover of P, and one inside a single class joins no
    pair.

    Neither lemma needs P to be d-complete.  Where (1) holds on ``own``,
    each diagonal is a chain whose non-top members bottom d-intervals, so
    ``own`` is rooted; on a d-complete poset (Proctor 1999) it always is.

    (5) is checked only where (3) holds, and there Lemma B decides it.
    A maximal member of a diagonal bottoms no d-interval, so (3) fails
    exactly when ``part`` is not ``own`` or Lemma A finds a diagonal of
    ``own`` with two members that bottom none.  Where (3) fails the report
    lists (3) and not (5): (5) compares the adjacency of partitions that
    (3) says agree, so it has no numbering-free meaning there.
    """
    failures: list[DiagonalFailure] = []

    spans = {(iv.bottom, iv.top) for iv in intervals}
    for members in part.classes:
        chain = sorted(members, key=lambda v: P._dn[v].bit_count())
        for a, b in zip(chain, chain[1:]):
            if (a, b) not in spans:
                failures.append(DiagonalFailure(1, (a, b)))

    for a, b in P.covers:
        if part.diagonal_of[a] == part.diagonal_of[b]:
            failures.append(DiagonalFailure(2, (a, b)))

    minimal_in_p = {v for v in range(P.n) if not P._lower[v]}
    minima = [min(members, key=lambda v: (P._dn[v].bit_count(), v)) for members in part.classes]

    for c, d in part.adjacent:
        for first, second in ((c, d), (d, c)):
            if minima[first] in minimal_in_p:
                for x in part.classes[second]:
                    touches = any(
                        part.diagonal_of[y] == first
                        for y in P._upper[x] + P._lower[x]
                    )
                    if not touches:
                        failures.append(DiagonalFailure(4, (first, second, x)))

    for c, d in part.adjacent:
        if minima[c] in minimal_in_p and minima[d] in minimal_in_p:
            failures.append(DiagonalFailure(6, (c, d, minima[c], minima[d])))

    up = P._up
    full = (1 << P.n) - 1
    own = compute_diagonals(P, intervals)
    least = [min(members) for members in part.classes]
    own_least = [min(members) for members in own.classes]
    moved = [v for v in range(P.n) if least[part.diagonal_of[v]] != own_least[own.diagonal_of[v]]]
    if moved:
        a, b = least[part.diagonal_of[moved[0]]], own_least[own.diagonal_of[moved[0]]]
        failures.append(DiagonalFailure(3, (min(a, b), moved[0], full)))
    else:
        # Lemma A: a diagonal's top is its one member that bottoms no d-interval.
        bottoms = {a for a, _ in spans}
        unbottomed = [sorted(v for v in members if v not in bottoms) for members in part.classes]
        for x, y, *_ in (u for u in unbottomed if len(u) > 1):
            failures.append(DiagonalFailure(3, (x, y, up[x] | up[y])))
        if all(len(u) == 1 for u in unbottomed):
            # Lemma B: each adjacent pair needs a cover with lower end in up(top c) | up(top d).
            missing = {(c, d): up[unbottomed[c][0]] | up[unbottomed[d][0]] for c, d in part.adjacent}
            for a, b in P.covers:
                pair = tuple(sorted((part.diagonal_of[a], part.diagonal_of[b])))
                if missing.get(pair, 0) >> a & 1:
                    del missing[pair]
            failures.extend(DiagonalFailure(5, (c, d, um)) for (c, d), um in missing.items())

    failures.sort(key=lambda f: (f.prop, f.witness))
    return DiagonalReport(ok=not failures, failures=tuple(failures))
