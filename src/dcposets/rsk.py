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
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Mapping, Sequence

from .analysis import PosetAnalysis, analyze
from .diagonals import DiagonalPartition
from .dstructure import DInterval
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
    out = []
    for v in seq:
        if isinstance(v, float):
            raise TypeError("fillings are exact: pass int or Fraction, not float")
        out.append(Fraction(v))
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


def random_filling(n: int, rng: Random) -> Filling:
    """Positive rationals with numerators and denominators in 1..16."""
    return tuple(Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(n))


# -- stable insertion orders ----------------------------------------------


def is_stable(
    P: Poset,
    order: Sequence[int],
    intervals: tuple[DInterval, ...] | None = None,
    *,
    analysis: PosetAnalysis | None = None,
) -> bool:
    """Stability of a descending linear extension.

    Inserting the bottom of a d-interval is forbidden while a side of that
    interval is a neck element of another d-interval already completed.
    A d-interval is completed exactly when its bottom has been inserted,
    since everything else in it dominates the bottom.
    """
    order = tuple(order)
    if not is_descending_extension(P, order):
        raise ValueError("order must be a descending linear extension")
    if intervals is None:
        if analysis is not None:
            intervals = analysis.d_intervals
        else:
            from .dstructure import find_d_intervals

            intervals = find_d_intervals(P)
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


# -- randomized oracle ------------------------------------------------------


@dataclass(frozen=True)
class OracleFailure:
    trial: int
    check: str
    detail: tuple


@dataclass(frozen=True)
class RskOracleReport:
    trials: int
    ok: bool
    failures: tuple[OracleFailure, ...]


def _missing_lower_events(program: Program, n: int) -> list[tuple[int, int]]:
    """Toggles of an already-present element with no present lower cover.

    Presence is determined by the insertion order alone, so this is a
    scan of the compiled program.  On d-complete input this list should
    be empty: the only toggle lacking a lower neighbor is the one at the
    freshly inserted element.
    """
    return [(c, e) for c, toggles in program for e, _, los in toggles if e != c and los == (n,)]


def rsk_oracles(
    P: Poset,
    trials: int = 100,
    seed: int = 0,
    *,
    analysis: PosetAnalysis | None = None,
) -> RskOracleReport:
    """Randomized consistency checks of the insertion map.

    Per trial filling: the image is identical under two independently
    sampled insertion orders; the image is order-reversing; each diagonal
    sum equals the hook-weighted sum of the input.  Additionally, for each
    minimal element c, removing c relates the diagonal sums of the smaller
    and larger posets through the diagonals adjacent to D(c), and a few
    random orders are scanned for toggles that would read a missing lower
    neighbor anywhere but at the fresh element.
    """
    a = analysis or analyze(P)
    a.ensure_d_complete()
    rng = Random(seed)
    part = a.diagonals
    hooks = a.hook_vectors
    failures: list[OracleFailure] = []

    for k in range(3):
        order = random_descending_extension(P, rng)
        events = _missing_lower_events(compile_program(P, part, order), P.n)
        if events:
            failures.append(OracleFailure(-1, "missing-lower-neighbor", (order, tuple(events))))

    removals = []
    for c in P.minimal_elements():
        keep = [v for v in range(P.n) if v != c]
        sub, old_ids = P.restrict(keep)
        removals.append((c, sub, analyze(sub), old_ids))

    recur_trials = min(trials, 20)
    for trial in range(trials):
        t = random_filling(P.n, rng)
        s1 = rsk(P, t, random_descending_extension(P, rng), analysis=a)
        s2 = rsk(P, t, random_descending_extension(P, rng), analysis=a)
        if s1 != s2:
            failures.append(OracleFailure(trial, "order-independence", (t, s1, s2)))
        if not is_order_reversing(P, s1):
            failures.append(OracleFailure(trial, "order-reversing", (t, s1)))
        sums = diagonal_sums(P, part, s1)
        for d in range(part.count):
            expected = sum((Fraction(hooks[p][d]) * t[p] for p in range(P.n)), Fraction(0))
            if sums[d] != expected:
                failures.append(OracleFailure(trial, "diagonal-sum", (d, sums[d], expected)))
        if trial < recur_trials:
            for c, sub, sub_a, old_ids in removals:
                sub_t = tuple(t[o] for o in old_ids)
                sub_s = rsk(sub, sub_t, analysis=sub_a)
                label = {o: sub_s[new] for new, o in enumerate(old_ids)}
                dc = part.diagonal_of[c]
                s_small = sum((label[p] for p in part.classes[dc] if p != c), Fraction(0))
                s_big = sum((s1[p] for p in part.classes[dc]), Fraction(0))
                rhs = t[c] + sum(
                    (
                        sum((label[p] for p in part.classes[d] if p != c), Fraction(0))
                        for d in part.neighbors(dc)
                    ),
                    Fraction(0),
                )
                if s_small + s_big != rhs:
                    failures.append(
                        OracleFailure(trial, "removal-recurrence", (c, s_small + s_big, rhs))
                    )
    return RskOracleReport(trials=trials, ok=not failures, failures=tuple(failures))
