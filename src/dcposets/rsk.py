"""Toggle operations and the insertion bijection between fillings.

The map sends nonnegative fillings to order-reversing fillings by
inserting elements along a descending linear extension: the new element
is labeled with the negated input value, then every present element of
its diagonal is toggled.  A toggle replaces a label by
``max(labels of covering elements) + min(labels of covered elements) - label``,
with missing neighbors contributing 0.

Which elements are present at each step depends only on the insertion
order, so a (poset, order) pair is compiled once into a toggle program:
per inserted element, the present members of its diagonal, each with its
present upper and lower covers.  ``rsk``, ``inverse_rsk`` and ``toggle``
run that program through one step function on integer labels, with
denominators cleared; Fractions appear only at the API edges.  Elements
of one diagonal never cover each other, so the toggles of one step read
no label another of them writes: they commute.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping, Sequence

from .analysis import PosetAnalysis, analyze
from .diagonals import DiagonalPartition
from .dstructure import DInterval
from .hooks import exact_value, random_rational_point
from .poset import Poset, is_descending_extension

Filling = tuple[Fraction, ...]
# One toggle: (element, candidate upper covers, candidate lower covers).  An
# element without present covers on a side lists the sentinel id n, whose
# label is always 0.
Toggle = tuple[int, tuple[int, ...], tuple[int, ...]]
# Per inserted element, in insertion order: (element, its step's toggles).
Program = tuple[tuple[int, tuple[Toggle, ...]], ...]


class NonGenericPoint(RuntimeError):
    """A tie in a toggle selection prevented local-linearity detection."""


def normalize_filling(n: int, values, require_nonnegative: bool = False) -> Filling:
    """Coerce a sequence or mapping of exact values to a tuple of Fractions."""
    if isinstance(values, Mapping):
        missing = [i for i in range(n) if i not in values]
        if missing:
            raise ValueError(f"filling is missing elements {missing}")
        seq = [values[i] for i in range(n)]
    else:
        seq = list(values)
        if len(seq) != n:
            raise ValueError(f"filling has {len(seq)} values for {n} elements")
    out = [exact_value(v) for v in seq]
    if require_nonnegative and any(v < 0 for v in out):
        bad = next(i for i, v in enumerate(out) if v < 0)
        raise ValueError(f"filling must be nonnegative; element {bad} has value {out[bad]}")
    return tuple(out)


def is_order_reversing(P: Poset, s: Sequence[Fraction]) -> bool:
    """True iff labels weakly decrease going up the order."""
    return all(s[a] >= s[b] for a, b in P.covers)


# -- the toggle kernel -------------------------------------------------------


def compile_program(P: Poset, part: DiagonalPartition, order: Sequence[int]) -> Program:
    """The toggles the insertion runs along ``order``, a descending extension.

    Along a descending extension every upper cover of an element is
    inserted before it, so its upper candidates never change; its lower
    candidates are the lower covers inserted so far.  Candidates are
    listed by id, the order in which ties are detected.
    """
    sentinel = (P.n,)
    ups = [u or sentinel for u in P._upper]
    below: list[list[int]] = [[] for _ in range(P.n)]
    los = [sentinel] * P.n
    inserted: list[list[int]] = [[] for _ in range(part.count)]
    program = []
    for c in order:
        for u in P._upper[c]:
            insort(below[u], c)
            los[u] = tuple(below[u])
        members = inserted[part.diagonal_of[c]]
        members.append(c)
        program.append((c, tuple([(e, ups[e], los[e]) for e in members])))
    return tuple(program)


def _toggle_all(labels: list[int], toggles: Iterable[Toggle]) -> None:
    """The step function: toggle each element against its candidate covers."""
    get = labels.__getitem__
    for e, ups, los in toggles:
        labels[e] = max(map(get, ups)) + min(map(get, los)) - labels[e]


def _scale(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer labels over a common denominator, plus the sentinel's 0."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values] + [0], denom


def _program(P: Poset, order, analysis: PosetAnalysis) -> Program:
    if order is None:
        return analysis.insertion_program
    order = tuple(order)
    if not is_descending_extension(P, order):
        raise ValueError("insertion order must be a descending linear extension")
    return compile_program(P, analysis.diagonals, order)


def toggle(P: Poset, state: Mapping[int, Fraction], p: int) -> dict[int, Fraction]:
    """Toggle the label of p against its present neighbors.

    ``state`` may label only part of the poset; absent neighbors read as
    zero.  Returns a new mapping; toggling twice restores the input.
    """
    if p not in state:
        raise ValueError(f"element {p} carries no label")
    ups = tuple(u for u in P.upper_covers(p) if u in state)
    los = tuple(v for v in P.lower_covers(p) if v in state)
    read = (p, *ups, *los)
    scaled, denom = _scale([Fraction(state[q]) for q in read])
    labels = [0] * (P.n + 1)
    for q, v in zip(read, scaled):
        labels[q] = v
    _toggle_all(labels, ((p, ups or (P.n,), los or (P.n,)),))
    out = dict(state)
    out[p] = Fraction(labels[p], denom)
    return out


def rsk(
    P: Poset,
    filling,
    order: Iterable[int] | None = None,
    *,
    analysis: PosetAnalysis | None = None,
) -> Filling:
    """Image of a nonnegative filling under the insertion bijection.

    The result is order-reversing and independent of the insertion order;
    when none is given a stable insertion order is used.
    """
    a = analysis or analyze(P)
    a.ensure_d_complete()
    t = normalize_filling(P.n, filling, require_nonnegative=True)
    program = _program(P, order, a)
    labels, denom = _scale(t)
    for c, toggles in program:
        labels[c] = -labels[c]
        _toggle_all(labels, toggles)
    return tuple(Fraction(v, denom) for v in labels[:-1])


def inverse_rsk(
    P: Poset,
    labels,
    order: Iterable[int] | None = None,
    *,
    analysis: PosetAnalysis | None = None,
) -> Filling:
    """Recover the input filling from an order-reversing image.

    Runs the insertion steps backwards; toggles are involutions, so
    undoing the toggles of each step exposes the negated inserted value.
    """
    a = analysis or analyze(P)
    a.ensure_d_complete()
    s = normalize_filling(P.n, labels)
    if any(v < 0 for v in s):
        raise ValueError("image filling must be nonnegative")
    if not is_order_reversing(P, s):
        raise ValueError("image filling must be order-reversing")
    program = _program(P, order, a)
    state, denom = _scale(s)
    for c, toggles in reversed(program):
        _toggle_all(state, toggles)
        state[c] = -state[c]
    return tuple(Fraction(v, denom) for v in state[:-1])


def diagonal_sums(P: Poset, part: DiagonalPartition, s: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Per-diagonal sums of a filling's labels."""
    return tuple(sum((Fraction(s[p]) for p in members), Fraction(0)) for members in part.classes)


# A random input filling: n positive rationals, numerators and denominators in 1..16.
random_filling = random_rational_point


# -- stable insertion orders ----------------------------------------------


def is_stable(P: Poset, order: Sequence[int], intervals: tuple[DInterval, ...]) -> bool:
    """Stability of a descending linear extension.

    Inserting the bottom of a d-interval is forbidden while a side of that
    interval is a neck element of another d-interval already completed.
    A d-interval is completed exactly when its bottom has been inserted,
    since everything else in it dominates the bottom.  ``intervals`` are
    the d-intervals of P.
    """
    order = tuple(order)
    if not is_descending_extension(P, order):
        raise ValueError("order must be a descending linear extension")
    by_bottom: dict[int, list[DInterval]] = {}
    for interval in intervals:
        by_bottom.setdefault(interval.bottom, []).append(interval)
    present: list[DInterval] = []
    for p in order:
        fresh = by_bottom.get(p, [])
        present.extend(fresh)
        for interval in fresh:
            for side in interval.sides:
                for other in present:
                    if other is not interval and side in other.neck:
                        return False
    return True


def stable_insertion_order(P: Poset, *, analysis: PosetAnalysis | None = None) -> tuple[int, ...]:
    """Construct a stable insertion order for a d-complete poset.

    Working from the last insertion backwards: strip a minimal element
    lying in no d-interval when one exists; otherwise strip the bottom of
    a maximal d-interval whose diamond top is minimal among those of all
    maximal d-intervals.  The result is verified against the stability
    predicate before being returned.
    """
    a = analysis or analyze(P)
    a.ensure_d_complete()
    intervals = [(iv, iv.member_mask) for iv in a.d_intervals]
    remaining = (1 << P.n) - 1
    reversed_order: list[int] = []
    while remaining:
        present = [(iv, m) for iv, m in intervals if m & remaining == m]
        covered = 0
        for _, m in present:
            covered |= m
        free = [p for p in P.minimal_in_mask(remaining) if not (covered >> p) & 1]
        if free:
            c = min(free)
        else:
            maximal = [
                (iv, m)
                for iv, m in present
                if not any(m2 != m and m | m2 == m2 for _, m2 in present)
            ]
            tops = [iv.diamond_top for iv, _ in maximal]
            lowest = [
                iv
                for iv, _ in maximal
                if not any(t != iv.diamond_top and P.lt(t, iv.diamond_top) for t in tops)
            ]
            chosen = min(lowest, key=lambda iv: (iv.diamond_top, iv.bottom))
            c = chosen.bottom
            if P._dn[c] & remaining != 1 << c:
                raise RuntimeError("stable-order construction picked a non-minimal element")
        reversed_order.append(c)
        remaining ^= 1 << c
    order = tuple(reversed(reversed_order))
    if not is_stable(P, order, a.d_intervals):
        raise RuntimeError("constructed insertion order failed the stability predicate")
    return order


def random_descending_extension(P: Poset, rng: Random) -> tuple[int, ...]:
    """A linear extension sampled by repeatedly picking a random maximal element."""
    remaining = (1 << P.n) - 1
    out = []
    while remaining:
        out.append(rng.choice(P.maximal_in_mask(remaining)))
        remaining ^= 1 << out[-1]
    return tuple(out)


# -- volume preservation ---------------------------------------------------


def rsk_jacobian_det(
    P: Poset,
    filling,
    order: Iterable[int] | None = None,
    *,
    analysis: PosetAnalysis | None = None,
) -> Fraction:
    """Exact Jacobian determinant of the insertion map at a generic point.

    Every toggle is a piecewise-linear involution, so the map is piecewise
    linear.  One run at the base point records, per toggle, the upper
    cover of largest label and the lower cover of smallest label; a tie
    raises :class:`NonGenericPoint` as soon as it appears.  When every gap
    is strictly positive, the same choices are made on a neighborhood of
    the point, so there the map is the linear map those choices spell
    out.  Replaying them on integer coefficient rows (inserting c sets
    row_c = -e_c, a toggle sets row_e = row_max + row_min - row_e) yields
    that map exactly; its determinant is taken by fraction-free integer
    elimination.
    """
    a = analysis or analyze(P)
    a.ensure_d_complete()
    t = normalize_filling(P.n, filling, require_nonnegative=True)
    program = _program(P, order, a)
    labels, _ = _scale(t)
    trace = []
    for c, toggles in program:
        labels[c] = -labels[c]
        chosen = tuple(
            (e, (_select(labels, ups, 1),), (_select(labels, los, -1),))
            for e, ups, los in toggles
        )
        _toggle_all(labels, chosen)
        trace.append((c, chosen))

    n = P.n
    rows = [[0] * n for _ in range(n + 1)]  # row n, the sentinel's, stays zero
    for c, chosen in trace:
        rows[c][c] = -1
        for e, (cx,), (cy,) in chosen:
            rows[e] = [x + y - z for x, y, z in zip(rows[cx], rows[cy], rows[e])]
    return Fraction(_bareiss(rows[:n]))


def _select(labels: list[int], candidates: tuple[int, ...], sign: int) -> int:
    """The candidate with the largest ``sign * label``; raises on a tie with the running best."""
    best = candidates[0]
    for u in candidates[1:]:
        gap = sign * (labels[u] - labels[best])
        if gap == 0:
            raise NonGenericPoint("tie between toggle candidates at the base point")
        if gap > 0:
            best = u
    return best


def _bareiss(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Every entry after step k is a (k+1)-minor of the input, so each
    division by the previous pivot is exact.
    """
    m = [row[:] for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        if m[k][k] < 0:  # a positive pivot spares rescaling the rows it leaves alone
            m[k] = [-x for x in m[k]]
            sign = -sign
        rk = m[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k]
            if f:
                m[i] = [(pk * x - f * y) // prev for x, y in zip(ri, rk)]
            elif pk != prev:
                m[i] = [pk * x // prev for x in ri]
        prev = pk
    return sign * prev
