"""Detection of d_k-intervals and d_k^- convex sets, and the d-complete axioms.

A d_k-interval is an interval isomorphic to the double-tailed diamond
d_k(1); a d_k^- convex set is a convex subposet isomorphic to d_k(1) with
its maximum removed.  Both shapes are rigid, so detection is structural
rather than generic graph isomorphism: d_k^- sets grow outwards from
their unique incomparable pair, and the d-intervals are their
one-element completions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poset import Poset, mask_of


@dataclass(frozen=True)
class DInterval:
    """A detected d_k-interval [bottom, top]."""

    k: int
    bottom: int
    top: int
    sides: tuple[int, int]
    neck: tuple[int, ...]  # descending chain; neck[0] == top
    tail: tuple[int, ...]  # descending chain; tail[-1] == bottom

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.sides + self.neck + self.tail)

    @property
    def member_mask(self) -> int:
        return mask_of(self.sides + self.neck + self.tail)

    @property
    def diamond_top(self) -> int:
        """Lowest neck element: the top of the inner diamond."""
        return self.neck[-1]

    @property
    def strict_neck(self) -> tuple[int, ...]:
        return self.neck[:-1]

    @property
    def strict_tail(self) -> tuple[int, ...]:
        return self.tail[1:]


@dataclass(frozen=True)
class DMinusConvexSet:
    """A convex subposet isomorphic to d_k(1) minus its maximum."""

    k: int
    bottom: int
    sides: tuple[int, int]
    neck: tuple[int, ...]  # descending; empty when k == 3
    tail: tuple[int, ...]  # descending; tail[-1] == bottom

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.sides + self.neck + self.tail)

    @property
    def member_mask(self) -> int:
        return mask_of(self.sides + self.neck + self.tail)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: int  # 1 completion, 2 top-cover closure, 3 minimal-difference
    witness: tuple[int, ...]


@dataclass(frozen=True)
class AxiomReport:
    is_d_complete: bool
    violations: tuple[AxiomViolation, ...]


def find_d_intervals(
    P: Poset, dminus: tuple[DMinusConvexSet, ...] | None = None
) -> tuple[DInterval, ...]:
    """All d-intervals of P, sorted by (bottom, top).

    A d_k-interval minus its top is a d_k^- convex set, so the intervals
    are the one-element completions of ``dminus`` (by default
    :func:`find_d_minus_convex_sets`): every z covering the set's maximum
    (both sides when k == 3) with ``[bottom, z]`` equal to the set plus z.
    One set can have several completions, and all are kept.
    """
    if dminus is None:
        dminus = find_d_minus_convex_sets(P)
    found = []
    for shape in dminus:
        if shape.neck:
            candidates = P.upper_covers(shape.neck[0])
        else:
            candidates = set(P.upper_covers(shape.sides[0])) & set(P.upper_covers(shape.sides[1]))
        target = shape.member_mask
        for z in candidates:
            if P.interval_mask(shape.bottom, z) == target | (1 << z):
                found.append(
                    DInterval(
                        k=shape.k,
                        bottom=shape.bottom,
                        top=z,
                        sides=shape.sides,
                        neck=(z,) + shape.neck,
                        tail=shape.tail,
                    )
                )
    return tuple(sorted(found, key=lambda iv: (iv.bottom, iv.top)))


def find_d_minus_convex_sets(P: Poset) -> tuple[DMinusConvexSet, ...]:
    """All d_k^- convex subsets of P.

    The search is shape-directed: anchor on an incomparable pair with a
    common lower cover, then grow the tail chain downwards and the neck
    chain upwards in lockstep.  A convexity violation can never be cured
    by growing further (new elements lie strictly below or above the
    current set), so non-convex partial shapes are pruned.
    """
    out: list[DMinusConvexSet] = []
    for s1 in range(P.n):
        for s2 in range(s1 + 1, P.n):
            if not P.incomparable(s1, s2):
                continue
            shared = set(P.lower_covers(s1)) & set(P.lower_covers(s2))
            for t in shared:
                _grow(P, (s1, s2), [t], [], out)
    return tuple(sorted(out, key=lambda s: (s.k, s.bottom, tuple(sorted(s.members)))))


def _grow(
    P: Poset,
    sides: tuple[int, int],
    tail: list[int],
    neck: list[int],
    out: list[DMinusConvexSet],
) -> None:
    m = mask_of(sides) | mask_of(tail) | mask_of(neck)
    if not P.is_convex_mask(m):
        return
    out.append(
        DMinusConvexSet(
            k=len(tail) + 2,
            bottom=tail[-1],
            sides=sides,
            neck=tuple(reversed(neck)),
            tail=tuple(tail),
        )
    )
    if neck:
        next_necks = P.upper_covers(neck[-1])
    else:
        next_necks = tuple(set(P.upper_covers(sides[0])) & set(P.upper_covers(sides[1])))
    for nt in P.lower_covers(tail[-1]):
        for nn in next_necks:
            _grow(P, sides, tail + [nt], neck + [nn], out)


def check_d_complete(
    P: Poset,
    intervals: tuple[DInterval, ...] | None = None,
    dminus: tuple[DMinusConvexSet, ...] | None = None,
) -> AxiomReport:
    """Verify the three defining axioms, reporting every violation.

    Axiom 1: every d_k^- convex set extends by one element to a
    d_k-interval, that is, it is some d-interval minus its top.  Axiom 2:
    the top of a d-interval covers nothing outside it.  Axiom 3: no two
    d^- convex sets differ only in their minimal elements.
    """
    if dminus is None:
        dminus = find_d_minus_convex_sets(P)
    if intervals is None:
        intervals = find_d_intervals(P, dminus)
    violations: list[AxiomViolation] = []

    completed = {interval.member_mask ^ (1 << interval.top) for interval in intervals}
    for shape in dminus:
        if shape.member_mask not in completed:
            violations.append(AxiomViolation(1, tuple(sorted(shape.members))))

    for interval in intervals:
        members = interval.members
        for x in P.lower_covers(interval.top):
            if x not in members:
                violations.append(AxiomViolation(2, (interval.bottom, interval.top, x)))

    by_trunk: dict[frozenset[int], list[DMinusConvexSet]] = {}
    for shape in dminus:
        by_trunk.setdefault(shape.members - {shape.bottom}, []).append(shape)
    for group in by_trunk.values():
        if len(group) > 1:
            witness = tuple(sorted(frozenset.union(*(g.members for g in group))))
            violations.append(AxiomViolation(3, witness))

    violations.sort(key=lambda v: (v.axiom, v.witness))
    return AxiomReport(is_d_complete=not violations, violations=tuple(violations))


def up_of(P: Poset, p: int, intervals: tuple[DInterval, ...] | None = None) -> int | None:
    """The unique q with [p, q] a d-interval, or None.

    Raises if several candidates exist, which means P is not d-complete.
    """
    if intervals is None:
        intervals = find_d_intervals(P)
    tops = [iv.top for iv in intervals if iv.bottom == p]
    if len(tops) > 1:
        raise ValueError(
            f"element {p} is the bottom of {len(tops)} d-intervals; poset is not d-complete"
        )
    return tops[0] if tops else None


def down_of(P: Poset, p: int, intervals: tuple[DInterval, ...] | None = None) -> int | None:
    """The unique q with [q, p] a d-interval, or None; dual of up_of."""
    if intervals is None:
        intervals = find_d_intervals(P)
    bottoms = [iv.bottom for iv in intervals if iv.top == p]
    if len(bottoms) > 1:
        raise ValueError(
            f"element {p} is the top of {len(bottoms)} d-intervals; poset is not d-complete"
        )
    return bottoms[0] if bottoms else None


@dataclass(frozen=True)
class StructureFailure:
    check: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class StructureReport:
    ok: bool
    failures: tuple[StructureFailure, ...]


def structure_report(P: Poset, intervals: tuple[DInterval, ...] | None = None) -> StructureReport:
    """Exhaustively verify the structural facts that hold in d-complete posets.

    Checks: every element is covered by at most two elements; neck and
    tail elements of a d-interval have no covers across its boundary; the
    six-element double-cover configuration is absent; bottoms and tops of
    d-intervals are unique; intervals having an element as a neck (tail)
    contain the unique interval it tops (bottoms).
    """
    if intervals is None:
        intervals = find_d_intervals(P)
    failures: list[StructureFailure] = []

    for v in range(P.n):
        if len(P.upper_covers(v)) > 2:
            failures.append(StructureFailure("cover-bound", (v,) + P.upper_covers(v)))

    for interval in intervals:
        members = interval.members
        for x in interval.neck:
            for below in P.lower_covers(x):
                if below not in members:
                    failures.append(
                        StructureFailure("interval-closure", (interval.bottom, interval.top, x, below))
                    )
        for x in interval.tail:
            for above in P.upper_covers(x):
                if above not in members:
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
        for x in interval.neck:
            owners = by_top.get(x, [])
            if len(owners) != 1 or not owners[0].members <= interval.members:
                failures.append(StructureFailure("neck-containment", (interval.bottom, interval.top, x)))
        for x in interval.tail:
            owners = by_bottom.get(x, [])
            if len(owners) != 1 or not owners[0].members <= interval.members:
                failures.append(StructureFailure("tail-containment", (interval.bottom, interval.top, x)))

    return StructureReport(ok=not failures, failures=tuple(failures))


def _forbidden_configuration(P: Poset) -> tuple[int, ...] | None:
    """Search for p1,p2,p3,q1,q2,q3 with each p_i covered by the two q_j, j != i.

    The q's must be pairwise incomparable.  Returns the six elements or
    None.
    """
    n = P.n
    shared: dict[tuple[int, int], tuple[int, ...]] = {}
    for a in range(n):
        for b in range(a + 1, n):
            if P.incomparable(a, b):
                common = tuple(set(P.lower_covers(a)) & set(P.lower_covers(b)))
                if common:
                    shared[(a, b)] = common
    for (q1, q2) in shared:
        for q3 in range(q2 + 1, n):
            if not (P.incomparable(q1, q3) and P.incomparable(q2, q3)):
                continue
            pool1 = shared.get((q2, q3), ())
            pool2 = shared.get((q1, q3), ())
            pool3 = shared.get((q1, q2), ())
            for p1 in pool1:
                for p2 in pool2:
                    if p2 == p1:
                        continue
                    for p3 in pool3:
                        if p3 in (p1, p2):
                            continue
                        return (p1, p2, p3, q1, q2, q3)
    return None
