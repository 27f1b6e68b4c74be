"""Hook vectors, hook polynomial evaluation, and exact rational points.

The hook vector of an element is indexed by diagonals and sums to the
classical hook length; it is defined recursively through d-intervals and
evaluated here with exact integer/rational arithmetic.
"""

from __future__ import annotations

import math
import operator
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
    for p in sorted(range(P.n), key=lambda v: P._dn[v].bit_count()):
        interval = top_interval.get(p)
        if interval is None:
            dn = P._dn[p]
            vectors[p] = tuple((dn & cm).bit_count() for cm in class_masks)
        else:
            w, z = interval.sides
            hw, hz, hb = vectors[w], vectors[z], vectors[interval.bottom]
            vectors[p] = tuple(a + b - c for a, b, c in zip(hw, hz, hb))
    return tuple(vectors)


def hook_lengths(vectors: Sequence[HookVector]) -> tuple[int, ...]:
    return tuple(sum(v) for v in vectors)


def hook_numerators(vectors: Sequence[HookVector], x: Sequence[Fraction]) -> tuple[list[int], int]:
    """Every H_p(x) = sum_D h_p^(D) x_D as an integer A_p over one denominator L.

    x is written once as integers c over its least common denominator L,
    so A_p = h_p . c is one integer dot product per element.  On a
    d-complete poset L is also the least common denominator of the
    H_p(x) (:func:`verify.rsk_polytope_check` proves it), so the A_p are
    the hooks' own numerators over it.
    """
    c, denom = common_denominator(x)
    for vector in vectors:
        if len(vector) != len(c):
            raise ValueError(f"vector is indexed by {len(vector)} diagonals, point by {len(c)}")
    return [sum(map(operator.mul, vector, c)) for vector in vectors], denom


def hook_polynomial_eval(vector: Sequence[int], x: RationalPoint) -> Fraction:
    """Evaluate sum_D h^(D) * x_D exactly, by :func:`hook_numerators`."""
    (numerator,), denom = hook_numerators((vector,), x)
    return Fraction(numerator, denom)


def common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of ``values`` over their least common denominator, and that denominator."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def all_ones_point(count: int) -> RationalPoint:
    return (Fraction(1),) * count


def _random_pairs(count: int, rng: Random) -> list[tuple[int, int]]:
    """Per coordinate, a numerator and then a denominator, each in 1..16."""
    return [(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(count)]


def random_scaled_point(count: int, rng: Random) -> tuple[list[int], int]:
    """The draws of :func:`random_rational_point` as integers over a common denominator."""
    pairs = _random_pairs(count, rng)
    denom = math.lcm(*(d for _, d in pairs))
    return [v * (denom // d) for v, d in pairs], denom


def random_rational_point(count: int, rng: Random) -> RationalPoint:
    """Strictly positive rationals with numerators and denominators in 1..16."""
    return tuple(Fraction(v, d) for v, d in _random_pairs(count, rng))


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
