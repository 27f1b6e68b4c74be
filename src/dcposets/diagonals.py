"""Diagonals of a d-complete poset and their adjacency structure.

Two elements share a diagonal when they span a d-interval, extended
transitively; this generalizes the content diagonals of a Young diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dstructure import DInterval
from .poset import Poset, bits


@dataclass(frozen=True)
class DiagonalPartition:
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

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self.adjacent


def _span_roots(n: int, elements: Iterable[int], spans: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Union-find over ``spans``: each of ``elements`` mapped to the smallest member of its class."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in spans:
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return {v: find(v) for v in elements}


def compute_diagonals(P: Poset, intervals: tuple[DInterval, ...]) -> DiagonalPartition:
    """Union-find over the (bottom, top) pairs of every d-interval."""
    roots = _span_roots(P.n, range(P.n), ((iv.bottom, iv.top) for iv in intervals))
    ids = {root: d for d, root in enumerate(sorted(set(roots.values())))}
    diagonal_of = [ids[roots[v]] for v in range(P.n)]
    groups: list[list[int]] = [[] for _ in ids]
    for v, d in enumerate(diagonal_of):
        groups[d].append(v)
    classes = tuple(map(frozenset, groups))

    adjacent = set()
    for a, b in P.covers:
        da, db = diagonal_of[a], diagonal_of[b]
        if da != db:
            adjacent.add((min(da, db), max(da, db)))

    return DiagonalPartition(
        diagonal_of=tuple(diagonal_of),
        classes=classes,
        adjacent=tuple(sorted(adjacent)),
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
    that is minimal in P.

    Property (1) checks only consecutive elements of each diagonal,
    ordered by downset size: a span is a strict comparability, so a
    diagonal whose consecutive pairs all span d-intervals is a chain.

    Properties (3) and (5) are checked on P and on each upper set
    V = up(x) | up(y) generated by one or two elements, and no poset is
    rebuilt: an upper set U is convex and up-closed, so its covers are
    P's, its d-intervals are those of ``intervals`` (P's) with bottom in
    U, and its diagonals are the union-find of their spans.  A failure on
    any U shows on P or on some V inside U.  (3), x and y joined by
    ``part`` and split in U: V has fewer spans, so it splits them too.
    (3), joined in U and split by ``part``: P has more spans, so it joins
    them too.  (5), adjacent in ``part`` but not in U: x and y, the two
    diagonals' smallest ids in U, are still the smallest in V, and V has
    fewer spans and covers.  (5), adjacent in U but not in ``part``: the
    cover is P's, so P fails (5), or (3) if ``part`` is not P's partition.

    On each upper set visited, (3) holds iff sending each element's
    diagonal in P to its diagonal there is a bijection; a failure names
    two elements that one partition joins and the other separates, and
    the set's mask.  (5) compares ``part``'s adjacent pairs among the
    diagonals met with the pairs that a cover inside the set joins.
    """
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
    adjacent_pairs = part.pairs()

    for c, d in adjacent_pairs:
        for first, second in ((c, d), (d, c)):
            if minima[first] in minimal_in_p:
                for x in part.classes[second]:
                    touches = any(
                        part.diagonal_of[y] == first
                        for y in P.upper_covers(x) + P.lower_covers(x)
                    )
                    if not touches:
                        failures.append(DiagonalFailure(4, (first, second, x)))

    for c, d in adjacent_pairs:
        if minima[c] in minimal_in_p and minima[d] in minimal_in_p:
            failures.append(DiagonalFailure(6, (c, d, minima[c], minima[d])))

    tops_from: dict[int, list[int]] = {}
    for a, b in spans:
        tops_from.setdefault(a, []).append(b)
    up = P._up
    upper_sets = {up[x] | up[y] for x in range(P.n) for y in range(x, P.n)}
    upper_sets.add((1 << P.n) - 1)
    for um in upper_sets:
        elems = list(bits(um))
        # Each element's diagonal in U, named by its smallest member.
        root = _span_roots(P.n, elems, ((v, t) for v in elems for t in tops_from.get(v, ())))
        # Each diagonal met in U maps to (the other partition's diagonal, its first element).
        p_to_u: dict[int, tuple[int, int]] = {}
        u_to_p: dict[int, tuple[int, int]] = {}
        for v in elems:
            dp, du = part.diagonal_of[v], root[v]
            seen_u, a = p_to_u.setdefault(dp, (du, v))
            seen_p, b = u_to_p.setdefault(du, (dp, v))
            if seen_u != du:
                failures.append(DiagonalFailure(3, (a, v, um)))
            elif seen_p != dp:
                failures.append(DiagonalFailure(3, (b, v, um)))
        # Pairs of P's diagonals met in U whose images in U are adjacent.
        preimages: dict[int, list[int]] = {}
        for dp, (du, _) in p_to_u.items():
            preimages.setdefault(du, []).append(dp)
        in_u = {
            (min(c, d), max(c, d))
            for a in elems
            for b in P._upper[a]
            if root[a] != root[b]
            for c in preimages.get(root[a], ())
            for d in preimages.get(root[b], ())
        }
        in_part = {(c, d) for c, d in adjacent_pairs if c in p_to_u and d in p_to_u}
        for c, d in in_u ^ in_part:
            failures.append(DiagonalFailure(5, (c, d, um)))

    failures.sort(key=lambda f: (f.prop, f.witness))
    return DiagonalReport(ok=not failures, failures=tuple(failures))
