"""Diagonals of a d-complete poset and their adjacency structure.

Two elements share a diagonal when they span a d-interval, extended
transitively; this generalizes the content diagonals of a Young diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .dstructure import DInterval
from .poset import Poset, bits, upper_set_masks


@dataclass(frozen=True)
class DiagonalPartition:
    """Partition of the elements into diagonals plus diagonal adjacency.

    Diagonal ids are canonical: classes are numbered by their smallest
    member.  Adjacency is stored densely; two diagonals are adjacent when
    some element of one covers an element of the other.
    """

    diagonal_of: tuple[int, ...]
    classes: tuple[frozenset[int], ...]
    adjacent: tuple[tuple[bool, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def is_adjacent(self, c: int, d: int) -> bool:
        return self.adjacent[c][d]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (c, d)
            for c in range(self.count)
            for d in range(c + 1, self.count)
            if self.adjacent[c][d]
        )


def compute_diagonals(P: Poset, intervals: tuple[DInterval, ...]) -> DiagonalPartition:
    """Union-find over the (bottom, top) pairs of every d-interval."""
    parent = list(range(P.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for interval in intervals:
        a, b = find(interval.bottom), find(interval.top)
        if a != b:
            parent[max(a, b)] = min(a, b)

    groups: dict[int, list[int]] = {}
    for v in range(P.n):
        groups.setdefault(find(v), []).append(v)
    classes = tuple(frozenset(groups[root]) for root in sorted(groups, key=lambda r: min(groups[r])))
    diagonal_of = [0] * P.n
    for d, members in enumerate(classes):
        for v in members:
            diagonal_of[v] = d

    m = len(classes)
    adj = [[False] * m for _ in range(m)]
    for a, b in P.covers:
        da, db = diagonal_of[a], diagonal_of[b]
        if da != db:
            adj[da][db] = adj[db][da] = True

    return DiagonalPartition(
        diagonal_of=tuple(diagonal_of),
        classes=classes,
        adjacent=tuple(tuple(row) for row in adj),
    )


@dataclass(frozen=True)
class DiagonalFailure:
    prop: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class DiagonalReport:
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
    that is minimal in P.  Properties (3) and (5) scan every upper set;
    each is rebuilt as a fresh poset and analyzed anew, so the
    comparison is an independent check.  Past ``IDEAL_LIMIT`` upper sets
    the scan raises :class:`ExtensionLimitError`.

    Property (1) checks only consecutive elements of each diagonal,
    ordered by downset size: a span is a strict comparability, so a
    diagonal whose consecutive pairs all span d-intervals is a chain.
    Property (3) holds on an upper set U iff sending each element's
    diagonal in P to its diagonal in U is a bijection on U's elements;
    a failure names two elements that one partition joins and the other
    separates.
    """
    from .analysis import analyze

    failures: list[DiagonalFailure] = []

    spans = {(iv.bottom, iv.top) for iv in intervals}
    for members in part.classes:
        chain = sorted(members, key=lambda v: bin(P._dn[v]).count("1"))
        for a, b in zip(chain, chain[1:]):
            if (a, b) not in spans:
                failures.append(DiagonalFailure(1, (a, b)))

    for a, b in P.covers:
        if part.diagonal_of[a] == part.diagonal_of[b]:
            failures.append(DiagonalFailure(2, (a, b)))

    minimal_in_p = set(P.minimal_elements())
    minima = [min(members, key=lambda v: (bin(P._dn[v]).count("1"), v)) for members in part.classes]

    for c, d in part.pairs():
        for first, second in ((c, d), (d, c)):
            if minima[first] in minimal_in_p:
                for x in part.classes[second]:
                    touches = any(
                        part.diagonal_of[y] == first
                        for y in P.upper_covers(x) + P.lower_covers(x)
                    )
                    if not touches:
                        failures.append(DiagonalFailure(4, (first, second, x)))

    for c, d in part.pairs():
        if minima[c] in minimal_in_p and minima[d] in minimal_in_p:
            failures.append(DiagonalFailure(6, (c, d, minima[c], minima[d])))

    for um in upper_set_masks(P):
        if um == 0:
            continue
        elems = list(bits(um))
        sub, old_ids = P.restrict(elems)
        subpart = analyze(sub).diagonals
        # Each diagonal met in U maps to (the other partition's diagonal, its first element).
        p_to_u: dict[int, tuple[int, int]] = {}
        u_to_p: dict[int, tuple[int, int]] = {}
        for new, old in enumerate(old_ids):
            dp, du = part.diagonal_of[old], subpart.diagonal_of[new]
            seen_u, a = p_to_u.setdefault(dp, (du, old))
            seen_p, b = u_to_p.setdefault(du, (dp, old))
            if seen_u != du:
                failures.append(DiagonalFailure(3, (a, old, um)))
            elif seen_p != dp:
                failures.append(DiagonalFailure(3, (b, old, um)))
        for c, d in combinations(sorted(p_to_u), 2):
            if part.is_adjacent(c, d) != subpart.is_adjacent(p_to_u[c][0], p_to_u[d][0]):
                failures.append(DiagonalFailure(5, (c, d, um)))

    failures.sort(key=lambda f: (f.prop, f.witness))
    return DiagonalReport(ok=not failures, failures=tuple(failures))
