"""Hook vectors, indicator vectors, and hook polynomial evaluation.

The hook vector of an element is indexed by diagonals and sums to the
classical hook length; it is defined recursively through d-intervals and
evaluated here with exact integer/rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Sequence

from .diagonals import DiagonalPartition
from .dstructure import DInterval, find_d_intervals
from .poset import Poset, mask_of

HookVector = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]


def hook_vectors(
    P: Poset,
    part: DiagonalPartition,
    intervals: tuple[DInterval, ...] | None = None,
    order: Sequence[int] | None = None,
) -> tuple[HookVector, ...]:
    """Hook vector of every element, indexed by diagonal id.

    An element that tops no d-interval counts, per diagonal, the elements
    it nonstrictly dominates; the top of the (unique) d-interval [b, p]
    with sides w, z gets h(w) + h(z) - h(b).  Any bottom-up processing
    order gives the same result; ``order`` may supply one explicitly.
    """
    if intervals is None:
        intervals = find_d_intervals(P)
    top_interval: dict[int, DInterval] = {}
    for interval in intervals:
        if interval.top in top_interval:
            raise ValueError(
                f"element {interval.top} tops several d-intervals; poset is not d-complete"
            )
        top_interval[interval.top] = interval

    if order is None:
        order = sorted(range(P.n), key=lambda v: bin(P._dn[v]).count("1"))
    else:
        order = list(order)
        if sorted(order) != list(range(P.n)):
            raise ValueError("processing order must list every element once")

    class_masks = [mask_of(members) for members in part.classes]
    vectors: list[HookVector | None] = [None] * P.n
    for p in order:
        interval = top_interval.get(p)
        if interval is None:
            dn = P._dn[p]
            vec = tuple(bin(dn & cm).count("1") for cm in class_masks)
        else:
            w, z = interval.sides
            hw, hz, hb = vectors[w], vectors[z], vectors[interval.bottom]
            if hw is None or hz is None or hb is None:
                raise ValueError("processing order visits a d-interval top before its members")
            vec = tuple(a + b - c for a, b, c in zip(hw, hz, hb))
        vectors[p] = vec
    return tuple(vectors)  # type: ignore[arg-type]


def hook_lengths(vectors: Sequence[HookVector]) -> tuple[int, ...]:
    return tuple(sum(v) for v in vectors)


def indicator_vector(part: DiagonalPartition, p: int) -> HookVector:
    """Kronecker delta on the diagonal of p."""
    d = part.diagonal_of[p]
    return tuple(1 if i == d else 0 for i in range(part.count))


def indicator_of_set(part: DiagonalPartition, members) -> HookVector:
    """Sum of the member indicators: per-diagonal multiplicities."""
    counts = [0] * part.count
    for p in members:
        counts[part.diagonal_of[p]] += 1
    return tuple(counts)


def hook_polynomial_eval(vector: Sequence[int], x: RationalPoint) -> Fraction:
    """Evaluate sum_D h^(D) * x_D exactly.

    Only the nonzero entries of the vector are summed, as integers over
    the common denominator of their coordinates.
    """
    if len(vector) != len(x):
        raise ValueError(f"vector is indexed by {len(vector)} diagonals, point by {len(x)}")
    terms = [(h, x[d]) for d, h in enumerate(vector) if h]
    denom = math.lcm(*(xd.denominator for _, xd in terms))
    return Fraction(sum(h * xd.numerator * (denom // xd.denominator) for h, xd in terms), denom)


def all_ones_point(count: int) -> RationalPoint:
    return (Fraction(1),) * count


def random_rational_point(count: int, rng: Random) -> RationalPoint:
    """Strictly positive rationals with numerators and denominators in 1..16."""
    return tuple(Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(count))


def validate_point(x: Sequence[Fraction], count: int) -> RationalPoint:
    point = tuple(Fraction(v) for v in x)
    if len(point) != count:
        raise ValueError(f"expected {count} diagonal values, got {len(point)}")
    if any(v <= 0 for v in point):
        raise ValueError("diagonal values must be strictly positive")
    return point
