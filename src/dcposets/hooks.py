"""Hook vectors, hook polynomial evaluation, and exact rational points.

The hook vector of an element is indexed by diagonals and sums to the
classical hook length; it is defined recursively through d-intervals.
That recursion, compiled once per poset into a :class:`HookProgram`,
evaluates every hook polynomial at a point with exact integer
arithmetic, without building the vectors, and builds the vectors when
run once at a point that packs each diagonal into its own bit field.
Every exact input, a filling or a point, becomes integer labels over one
denominator in :func:`exact_labels`, the package's one reader of them.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction
from random import Random
from typing import Mapping, NamedTuple, Sequence

from .diagonals import DiagonalPartition
from .dstructure import DInterval
from .poset import Poset, _require_count, _require_ids, bits

HookVector = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]


class HookProgram(NamedTuple):
    """Every hook polynomial of a d-complete poset as a recursion on its elements.

    ``sums`` lists, bottom-up, ``(p, q, rest)``: the downset sum of p is
    its own weight, plus the downset sum of q's one element (q is empty
    when p is minimal), plus the weights of ``rest``.  ``tops`` lists,
    bottom-up, ``(p, w, z, b)`` for each d-interval [b, p] with sides w
    and z.  Every id the program names is an element, 0..n-1.
    ``diagonal_of`` maps each element to its diagonal, and ``count`` is
    the number of diagonals.  :func:`hook_integers` evaluates it at
    integer weights, and :func:`hook_vectors` once at a packed point.
    """

    diagonal_of: tuple[int, ...]
    count: int
    sums: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    tops: tuple[tuple[int, int, int, int], ...]


def compile_hook_program(
    P: Poset, part: DiagonalPartition, intervals: tuple[DInterval, ...]
) -> HookProgram:
    """The d-interval recursion that defines every hook vector, compiled once per poset.

    The top of a d-interval [b, p] with sides w, z gets the hook vector
    h_p = h_w + h_z - h_b; every other element's vector counts, per
    diagonal, its downset: DS(p) = sum_{m <= p} e_(D(m)).  At a point x,
    H_p(x) = sum_D h_p^(D) x_D is linear in h_p, so the same recursion
    holds with x_(D(m)) for e_(D(m)).  Let q be p's lower cover with the
    largest downset, if p has one, and rest = down(p) - ({p} | down(q)).
    Then down(p) is the disjoint union of {p}, down(q) and rest, so
    DS(p) = e_(D(p)) + DS(q) + sum_{m in rest} e_(D(m)) exactly, with no
    DS(q) term when p is minimal.  A downset sum is kept for each element
    that tops no d-interval, and for the q of each element whose downset
    sum is kept; elements run bottom-up, by downset size, so every value
    a step reads is already set.  :func:`hook_integers` runs the program
    in O(n + sum |rest|) additions, where a dot product with every dense
    vector costs n times the number of diagonals (on a chain, every rest
    is empty); :func:`hook_vectors` runs it once at a packed point.  The
    intervals must be those of a d-complete poset, in which each element
    tops at most one: :attr:`PosetAnalysis.hook_program` checks the axioms
    first.
    """
    n = P.n
    dn, lower = P._dn, P._lower
    size = [d.bit_count() for d in dn]
    order = sorted(range(n), key=size.__getitem__)
    top_interval = {interval.top: interval for interval in intervals}
    kept = [p not in top_interval for p in range(n)]
    largest_below: list[tuple[int, ...]] = [()] * n
    for p in reversed(order):
        if kept[p] and lower[p]:
            q = max(lower[p], key=size.__getitem__)
            largest_below[p] = (q,)
            kept[q] = True
    sums, tops = [], []
    for p in order:
        if kept[p]:
            rest = dn[p] ^ 1 << p
            for q in largest_below[p]:
                rest ^= dn[q]
            sums.append((p, largest_below[p], tuple(bits(rest))))
        interval = top_interval.get(p)
        if interval is not None:
            tops.append((p, *interval.sides, interval.bottom))
    return HookProgram(part.diagonal_of, part.count, tuple(sums), tuple(tops))


def hook_numerators(program: HookProgram, x) -> tuple[list[int], int]:
    """Every H_p(x) = sum_D h_p^(D) x_D as an integer A_p over one denominator L.

    x is read by :func:`exact_labels`, as ``program.count`` values or a
    mapping by diagonal id, and written once as integers c over its least
    common denominator L; :func:`hook_integers` runs the
    :class:`HookProgram` on the weights c_(D(p)), so every A_p is an
    integer.  On a d-complete poset L is also the least common
    denominator of the H_p(x) (:func:`verify.rsk_polytope_check` proves
    it), so the A_p are the hooks' own numerators over it.
    """
    c, denom = exact_labels(x, program.count, "point", "diagonals")
    return hook_integers(program, [c[d] for d in program.diagonal_of]), denom


def hook_integers(program: HookProgram, weights: Sequence[int]) -> list[int]:
    """Every hook sum_D h_p^(D) c_D, from ``weights[p]`` = c_(D(p)): the :class:`HookProgram` run once.

    Each kept downset sum is written at its element's entry; the interval
    tops then overwrite theirs with their hooks, once no downset sum is
    read any more.
    """
    hooks = [0] * len(weights)
    for p, q, rest in program.sums:
        total = weights[p]
        for m in q:
            total += hooks[m]
        for m in rest:
            total += weights[m]
        hooks[p] = total
    for p, w, z, b in program.tops:
        hooks[p] = hooks[w] + hooks[z] - hooks[b]
    return hooks


def hook_vectors(program: HookProgram) -> tuple[HookVector, ...]:
    """Hook vector of every element, indexed by diagonal id: :func:`hook_integers` run once at a packed point.

    Element p gets the weight 2^(s D(p)), for the least s of 8, 16 and 64
    with n < 2^s, so each returned integer is sum_D v^(D) 2^(s D) for the
    vector v that the recursion computes at that element (Kronecker
    substitution): the program is linear in its weights, and Python ints
    add and subtract exactly.  Every value the program stores is an
    element's downset-count vector or hook vector, whose entries lie in
    0..n, below 2^s, so the s-bit fields of each returned integer are
    exactly that vector, whatever carries the sums passed through.  The
    output has n times the number of diagonals entries, so on a chain it
    is quadratic whatever the recursion.
    """
    n, count = len(program.diagonal_of), program.count
    width, code = next((width, code) for width, code in ((8, "B"), (16, "H"), (64, "Q")) if n < 1 << width)
    shifts = [1 << width * d for d in range(count)]
    hooks = hook_integers(program, [shifts[d] for d in program.diagonal_of])
    size = count * width // 8
    unpack = struct.Struct(f"<{count}{code}").unpack
    return tuple(unpack(h.to_bytes(size, "little")) for h in hooks)


def hook_polynomial_eval(vector: Sequence[int], x) -> Fraction:
    """Evaluate sum_D h^(D) * x_D exactly, as one integer dot product over x's least common denominator.

    x is read by :func:`exact_labels`, as one value per entry of
    ``vector`` or a mapping by diagonal id; floats are refused.
    """
    c, denom = exact_labels(x, len(vector), "point", "diagonals")
    return Fraction(sum(map(operator.mul, vector, c)), denom)


def all_ones_point(count: int) -> RationalPoint:
    """``count`` coordinates of 1, the count read as :func:`random_rational_point` reads it."""
    _require_count(count, "coordinate count", 0)
    return (Fraction(1),) * count


def random_scaled_points(count: int, trials: int, rng: Random):
    """``trials`` random points of ``count`` coordinates, from one ``rng.getrandbits(8 * count * trials)``.

    Byte k of the draw, its bits 8k to 8k + 7, is coordinate k % count of
    point k // count: its high nibble plus 1 is the numerator and its low
    nibble plus 1 the denominator.  The 256 byte values map one to one
    onto the 256 (numerator, denominator) pairs, so every numerator and
    denominator is uniform on 1..16, all independent.  This is
    :func:`random_rational_point`'s decoding, ``trials`` points at a time.
    Returns a ``count x trials`` numpy array of ``np.int64``
    whose column j is point j as integers over the lcm of its raw
    denominators, the low nibbles plus 1, before any fraction is reduced.
    That lcm can be a multiple of the point's least common denominator,
    so a column can be a multiple of :func:`random_scaled_point`'s
    labels: byte 0x22 decodes to 3/3, column [3] where
    :func:`random_scaled_point` gives [1] over 1.  The decoding runs in int64,
    which holds it exactly: a label is at most 16 * lcm(1..16) =
    11,531,520, below 2**24.  A caller that runs the points reads them
    into a label matrix by ``rsk._label_matrix``, which keeps int64 only
    where the run provably stays in it.  A count that is not an int, or is negative,
    is refused before ``rng`` is read; zero trials give a ``count x 0`` array.
    """
    _require_count(count, "coordinate count", 0)
    _require_count(trials, "trials", 0)
    import numpy as np  # numpy loads with the first batched draw, not with the package

    size = count * trials
    draw = np.frombuffer(rng.getrandbits(8 * size).to_bytes(size, "little"), dtype=np.uint8)
    pairs = draw.reshape(trials, count).astype(np.int64)
    numerators, denominators = (pairs >> 4) + 1, (pairs & 15) + 1
    denoms = np.lcm.reduce(denominators, axis=1, initial=1)
    labels = numerators * (denoms[:, None] // denominators)
    return labels.T


# Byte b decoded, Fraction(b // 16 + 1, b % 16 + 1), at index b: every random
# point shares these 256 objects instead of building its own.
_RATIONALS = tuple(Fraction(b // 16 + 1, b % 16 + 1) for b in range(256))


def random_rational_point(count: int, rng: Random) -> RationalPoint:
    """``count`` strictly positive rationals from one ``rng.getrandbits(8 * count)``.

    Byte k of the draw, of value b, is coordinate k, ``_RATIONALS[b]``:
    :func:`random_scaled_points`' decoding, so the point is column 0 of
    ``random_scaled_points(count, 1, rng)`` over the lcm of the raw
    denominators b % 16 + 1.
    """
    _require_count(count, "coordinate count", 0)
    return tuple(map(_RATIONALS.__getitem__, rng.getrandbits(8 * count).to_bytes(count, "little")))


# The numerator and the reduced denominator of _RATIONALS[b], at index b, as
# bytes.translate tables: both lie in 1..16.
_NUMERATORS = bytes(r.numerator for r in _RATIONALS)
_DENOMINATORS = bytes(r.denominator for r in _RATIONALS)


def random_scaled_point(count: int, rng: Random) -> tuple[list[int], int]:
    """:func:`random_rational_point` as integer labels over its least common denominator.

    The same ``rng.getrandbits(8 * count)`` is decoded, byte b to the
    numerator and reduced denominator of ``_RATIONALS[b]``, so the result
    is what :func:`exact_labels` reads from ``random_rational_point(count, rng)``, with
    ``rng`` left in the same state and no Fraction built.
    """
    _require_count(count, "coordinate count", 0)
    draw = rng.getrandbits(8 * count).to_bytes(count, "little")
    denominators = draw.translate(_DENOMINATORS)
    denom = math.lcm(*denominators)
    return list(map(operator.mul, draw.translate(_NUMERATORS), map(denom.__floordiv__, denominators))), denom


def exact_value(value) -> Fraction:
    """``value`` as a Fraction; floats are refused, since exact paths never round.

    Strings are refused too: ``Fraction("1")`` parses text, which is the
    file readers' job (``fileformats.parse_fraction``), not a library
    edge's.  Any other value is what ``Fraction(value)`` reads exactly,
    such as an int or a ``Decimal``; one it cannot read (None, a complex,
    a ``Decimal`` NaN) gets the same refusal, naming its type and value.
    A Fraction (and not a subclass) is returned as it is: it is
    immutable, so rebuilding it would only cost time.
    """
    if type(value) is Fraction:
        return value
    if not isinstance(value, (float, str)):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    kind = type(value).__name__
    raise TypeError(f"exact values only: pass int or Fraction, not {kind} {value!r}")


def exact_labels(values, count: int, what: str, unit: str) -> tuple[list[int], int]:
    """``count`` exact values as integer labels over their least common denominator, and that denominator.

    ``values`` is a sequence of ``count`` values, or a mapping that names
    exactly the ids 0..count-1; any other length or set of ids raises
    ``ValueError``, with the input named ``what`` and its ids ``unit``
    (a "filling" of "elements", a "point" of "diagonals").  Missing ids
    are named first, then the keys are read by :func:`poset._require_ids`.
    Each value is read once, by :func:`exact_value` and then
    ``as_integer_ratio()``: one call, where the ``numerator`` and
    ``denominator`` properties would take three reads.  Both parts then
    pass through ``operator.index``, so every label and the denominator
    are Python ints, exact at any size, even where a Fraction holds
    fixed-width numpy integers (``Fraction(np.int64(3))`` does).  Every
    denominator is positive, so each label has its value's sign, and
    labels over the one denominator compare as the values do.
    """
    if isinstance(values, Mapping):
        missing = [i for i in range(count) if i not in values]
        if missing:
            raise ValueError(f"{what} is missing {unit} {missing}")
        _require_ids(values, f"{what} names {unit}", count)
        values = [values[i] for i in range(count)]
    else:
        values = list(values)
        if len(values) != count:
            raise ValueError(f"{what} has {len(values)} values for {count} {unit}")
    ratios = [exact_value(v).as_integer_ratio() for v in values]
    denom = math.lcm(*[d for _, d in ratios])
    index = operator.index
    return [index(a) * (denom // index(d)) for a, d in ratios], denom
