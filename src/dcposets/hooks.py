"""Hook vectors, hook polynomial evaluation, and exact rational points.

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
from .dstructure import DInterval
from .poset import Poset, mask_of

HookVector = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]


def hook_vectors(
    P: Poset, part: DiagonalPartition, intervals: tuple[DInterval, ...]
) -> tuple[HookVector, ...]:
    """Hook vector of every element, indexed by diagonal id.

    An element that tops no d-interval counts, per diagonal, the elements
    it nonstrictly dominates; the top of the d-interval [b, p] with sides
    w, z gets h(w) + h(z) - h(b).  Elements are processed bottom-up, by
    downset size; any bottom-up order gives the same result.  The
    intervals must be those of a d-complete poset, in which each element
    tops at most one: :attr:`PosetAnalysis.hook_vectors` checks the axioms
    first.
    """
    top_interval = {interval.top: interval for interval in intervals}
    class_masks = [mask_of(members) for members in part.classes]
    vectors: list[HookVector] = [()] * P.n
    for p in sorted(range(P.n), key=lambda v: bin(P._dn[v]).count("1")):
        interval = top_interval.get(p)
        if interval is None:
            dn = P._dn[p]
            vectors[p] = tuple(bin(dn & cm).count("1") for cm in class_masks)
        else:
            w, z = interval.sides
            hw, hz, hb = vectors[w], vectors[z], vectors[interval.bottom]
            vectors[p] = tuple(a + b - c for a, b, c in zip(hw, hz, hb))
    return tuple(vectors)


def hook_lengths(vectors: Sequence[HookVector]) -> tuple[int, ...]:
    return tuple(sum(v) for v in vectors)


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


def exact_value(value) -> Fraction:
    """``value`` as a Fraction; floats are refused, since exact paths never round."""
    if isinstance(value, float):
        raise TypeError(f"exact values only: pass int or Fraction, not float {value!r}")
    return Fraction(value)


def validate_point(x: Sequence[Fraction], count: int) -> RationalPoint:
    point = tuple(exact_value(v) for v in x)
    if len(point) != count:
        raise ValueError(f"expected {count} diagonal values, got {len(point)}")
    if any(v <= 0 for v in point):
        raise ValueError("diagonal values must be strictly positive")
    return point
