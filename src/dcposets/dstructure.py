"""Detection of d_k-intervals and d_k^- convex sets, and the d-complete axioms.

A d_k-interval is an interval isomorphic to the double-tailed diamond
d_k(1); a d_k^- convex set is a convex subposet isomorphic to d_k(1) with
its maximum removed.  Both shapes are rigid, so detection is structural
rather than generic graph isomorphism: d_k^- sets grow outwards from
their unique incomparable pair, and the d-intervals are their
one-element completions.  No step compares pairs of elements: a grown
d^- shape is convex iff it is the interval between its bottom and its
top, and an interval [a, b] is one mask intersection, ``P._up[a] & P._dn[b]``.
Every such test here asks for an interval with a <= b by construction, so
the finders read the poset's covers and closures directly, past the id
checks of its public query methods.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .poset import Poset, bits, mask_of


class _Shape:
    """The members of a d-interval or a d^- set: its sides, neck and tail.

    The records are NamedTuples; this mixin gives them an instance dict,
    so ``member_mask`` is computed at most once per object, from its own
    fields (a ``_replace`` copy starts with an empty dict).  The finders
    store the mask they already know in that dict.
    """

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.sides + self.neck + self.tail)

    @cached_property
    def member_mask(self) -> int:
        return mask_of(self.sides + self.neck + self.tail)


class _DIntervalFields(NamedTuple):
    k: int
    bottom: int
    top: int
    sides: tuple[int, int]
    neck: tuple[int, ...]  # descending chain; neck[0] == top
    tail: tuple[int, ...]  # descending chain; tail[-1] == bottom


class DInterval(_DIntervalFields, _Shape):
    """A detected d_k-interval [bottom, top]."""

    @property
    def diamond_top(self) -> int:
        """Lowest neck element: the top of the inner diamond."""
        return self.neck[-1]


class _DMinusFields(NamedTuple):
    k: int
    bottom: int
    sides: tuple[int, int]
    neck: tuple[int, ...]  # descending; empty when k == 3
    tail: tuple[int, ...]  # descending; tail[-1] == bottom


class DMinusConvexSet(_DMinusFields, _Shape):
    """A convex subposet isomorphic to d_k(1) minus its maximum."""


class AxiomViolation(NamedTuple):
    axiom: int  # 1 completion, 2 top-cover closure, 3 minimal-difference
    witness: tuple[int, ...]


class AxiomReport(NamedTuple):
    is_d_complete: bool
    violations: tuple[AxiomViolation, ...]


def find_d_intervals(P: Poset, dminus: tuple[DMinusConvexSet, ...]) -> tuple[DInterval, ...]:
    """All d-intervals of P, sorted by (bottom, top).

    A d_k-interval minus its top is a d_k^- convex set, so the intervals
    are the one-element completions of ``dminus``, the d^- sets of P from
    :func:`find_d_minus_convex_sets`: every z covering the set's maximum
    (both sides when k == 3) with ``[bottom, z]`` equal to the set plus z.
    One set can have several completions, and all are kept.
    """
    upper, up, dn = P._upper, P._up, P._dn
    found = []
    for shape in dminus:
        if shape.neck:
            candidates = upper[shape.neck[0]]
        else:
            candidates = set(upper[shape.sides[0]]) & set(upper[shape.sides[1]])
        target = shape.member_mask
        for z in candidates:
            mask = target | 1 << z
            if up[shape.bottom] & dn[z] == mask:
                found.append(DInterval(shape.k, shape.bottom, z, shape.sides, (z,) + shape.neck, shape.tail))
                found[-1].__dict__["member_mask"] = mask  # the cached property, already known
    return tuple(sorted(found, key=lambda iv: (iv.bottom, iv.top)))


def find_d_minus_convex_sets(P: Poset) -> tuple[DMinusConvexSet, ...]:
    """All d_k^- convex subsets of P.

    The search is shape-directed: anchor on two upper covers of one
    element t (they are incomparable), then grow the tail chain downwards
    and the neck chain upwards in lockstep.  The k = 3 shape {t, w, z} is
    always convex: w and z cover t, so no element lies strictly between
    two of them.  Each growth step adds a tail element below every member
    and a neck element above every member, so a grown shape contains its
    bottom and its top, and it is convex iff it contains the whole
    interval between them, that is, iff it equals [bottom, top].  A
    non-convex shape is not kept, and it is not grown either: growing
    only adds elements outside [bottom, top], so the missing element
    stays missing.  The sets come back sorted by k, then bottom, then
    their ascending tuple of members.
    """
    upper, lower, up, dn = P._upper, P._lower, P._up, P._dn
    out: list[DMinusConvexSet] = []
    # frame: (sides, tail descending, neck descending, member mask)
    stack = [
        (sides, (t,), (), mask_of(sides) | 1 << t)
        for t in range(P.n)
        for sides in combinations(upper[t], 2)
    ]
    while stack:
        sides, tail, neck, m = stack.pop()
        out.append(DMinusConvexSet(k=len(tail) + 2, bottom=tail[-1], sides=sides, neck=neck, tail=tail))
        out[-1].__dict__["member_mask"] = m  # the cached property, already known
        if neck:
            next_necks = upper[neck[0]]
        else:
            next_necks = set(upper[sides[0]]) & set(upper[sides[1]])
        for nt in lower[tail[-1]]:
            for nn in next_necks:
                grown = m | 1 << nt | 1 << nn
                if up[nt] & dn[nn] == grown:
                    stack.append((sides, tail + (nt,), (nn,) + neck, grown))
    # Sets of one k have the same size, so their ascending member tuples
    # compare at the first member they differ in: the lowest bit of the XOR
    # of their masks, and the set holding it sorts first.  Reversing the n
    # bits makes that the highest bit, so the negated reversed mask gives
    # the same order without listing any member.
    width = f"0{P.n}b"
    return tuple(
        sorted(out, key=lambda s: (s.k, s.bottom, -int(format(s.member_mask, width)[::-1], 2)))
    )


def check_d_complete(
    P: Poset, intervals: tuple[DInterval, ...], dminus: tuple[DMinusConvexSet, ...]
) -> AxiomReport:
    """Verify the three defining axioms, reporting every violation.

    Axiom 1: every d_k^- convex set extends by one element to a
    d_k-interval, that is, it is some d-interval minus its top.  Axiom 2:
    the top of a d-interval covers nothing outside it.  Axiom 3: no two
    d^- convex sets differ only in their minimal elements.
    """
    violations: list[AxiomViolation] = []

    completed = {interval.member_mask ^ (1 << interval.top) for interval in intervals}
    for shape in dminus:
        if shape.member_mask not in completed:
            violations.append(AxiomViolation(1, tuple(bits(shape.member_mask))))

    for interval in intervals:
        mask = interval.member_mask
        for x in P._lower[interval.top]:
            if not mask >> x & 1:
                violations.append(AxiomViolation(2, (interval.bottom, interval.top, x)))

    by_trunk: dict[int, list[int]] = {}  # members but the bottom, as a mask -> the bottoms
    for shape in dminus:
        by_trunk.setdefault(shape.member_mask ^ 1 << shape.bottom, []).append(shape.bottom)
    for trunk, bottoms in by_trunk.items():
        if len(bottoms) > 1:
            violations.append(AxiomViolation(3, tuple(bits(trunk | mask_of(bottoms)))))

    violations.sort(key=lambda v: (v.axiom, v.witness))
    return AxiomReport(is_d_complete=not violations, violations=tuple(violations))


class StructureFailure(NamedTuple):
    check: str
    witness: tuple[int, ...]


class StructureReport(NamedTuple):
    ok: bool
    failures: tuple[StructureFailure, ...]


def structure_report(P: Poset, intervals: tuple[DInterval, ...]) -> StructureReport:
    """Exhaustively verify the structural facts that hold in d-complete posets.

    Checks: every element is covered by at most two elements; neck and
    tail elements of a d-interval have no covers across its boundary; the
    six-element double-cover configuration is absent; bottoms and tops of
    d-intervals are unique; intervals having an element as a neck (tail)
    contain the unique interval it tops (bottoms).
    """
    upper, lower = P._upper, P._lower
    failures: list[StructureFailure] = []

    for v in range(P.n):
        if len(upper[v]) > 2:
            failures.append(StructureFailure("cover-bound", (v,) + upper[v]))

    for interval in intervals:
        mask = interval.member_mask
        for x in interval.neck:
            for below in lower[x]:
                if not mask >> below & 1:
                    failures.append(
                        StructureFailure("interval-closure", (interval.bottom, interval.top, x, below))
                    )
        for x in interval.tail:
            for above in upper[x]:
                if not mask >> above & 1:
                    failures.append(
                        StructureFailure("interval-closure", (interval.bottom, interval.top, x, above))
                    )

    config = _forbidden_configuration(P)
    if config is not None:
        failures.append(StructureFailure("forbidden-configuration", config))

    by_bottom: dict[int, list[DInterval]] = {}
    by_top: dict[int, list[DInterval]] = {}
    for interval in intervals:
        by_bottom.setdefault(interval.bottom, []).append(interval)
        by_top.setdefault(interval.top, []).append(interval)
    for p, group in sorted(by_bottom.items()):
        if len(group) > 1:
            failures.append(StructureFailure("unique-bottom", (p,) + tuple(iv.top for iv in group)))
    for p, group in sorted(by_top.items()):
        if len(group) > 1:
            failures.append(StructureFailure("unique-top", (p,) + tuple(iv.bottom for iv in group)))

    for interval in intervals:
        outside = ~interval.member_mask
        for x in interval.neck:
            owners = by_top.get(x, [])
            if len(owners) != 1 or owners[0].member_mask & outside:
                failures.append(StructureFailure("neck-containment", (interval.bottom, interval.top, x)))
        for x in interval.tail:
            owners = by_bottom.get(x, [])
            if len(owners) != 1 or owners[0].member_mask & outside:
                failures.append(StructureFailure("tail-containment", (interval.bottom, interval.top, x)))

    return StructureReport(ok=not failures, failures=tuple(failures))


def _forbidden_configuration(P: Poset) -> tuple[int, ...] | None:
    """Search for p1,p2,p3,q1,q2,q3 with each p_i covered by the two q_j, j != i.

    Each pair of q's shares a lower cover, so the pairs are pairs of
    upper covers of one element, and the q's are pairwise incomparable.
    Returns the first six elements found, q1 < q2 < q3 and each pool
    ascending, or None.
    """
    shared: dict[tuple[int, int], list[int]] = {}  # (q, q') -> common lower covers, ascending
    for t in range(P.n):
        for pair in combinations(P._upper[t], 2):
            shared.setdefault(pair, []).append(t)
    keys = sorted(shared)
    partners: dict[int, list[int]] = {}
    for a, b in keys:
        partners.setdefault(a, []).append(b)
    for q1, q2 in keys:
        for q3 in partners[q1]:
            if q3 <= q2 or (q2, q3) not in shared:
                continue
            pool1, pool2, pool3 = shared[(q2, q3)], shared[(q1, q3)], shared[(q1, q2)]
            for p1 in pool1:
                for p2 in pool2:
                    if p2 == p1:
                        continue
                    for p3 in pool3:
                        if p3 in (p1, p2):
                            continue
                        return (p1, p2, p3, q1, q2, q3)
    return None
