import importlib
import re
import time
from bisect import insort
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcposets import (
    NonGenericPoint,
    Poset,
    PolytopeSpec,
    analyze,
    catalog,
    closed_form_volume,
    d_k_one,
    diagonal_sums,
    hook_polynomial_eval,
    inverse_rsk,
    is_order_reversing,
    is_stable,
    linear_extensions,
    monte_carlo_volume,
    polytope_membership,
    random_filling,
    rsk,
    rsk_jacobian_det,
    rsk_polytope_check,
    shifted_young,
    stable_insertion_order,
    tree,
    verify_multivariate,
    weight_sum,
    young,
)
from dcposets.acceptance import (
    classical_equivalence,
    diagonal_sum_identity,
    monte_carlo_agreement,
    multivariate_identity,
    order_independence,
    polytope_bijection,
    volume_preservation,
)
from dcposets.classical import toggle_rpp
from dcposets.families import young_box_ids
from dcposets.hooks import exact_labels
from dcposets.poset import is_descending_extension, mask_of
from dcposets.rsk import (
    DIRECTION_BOUND,
    _choices,
    _jacobian_times,
    _program,
    _random_order_insertion,
    _run,
    _toggle_all,
    random_descending_extension,
)

from conftest import chain, is_adjacent, lt, random_shape, restrict, seeded_joins, shifted_box_ids
from oracles import (
    _dense_jacobian_rows,
    _finite_difference_det,
    _reference_insertion,
    _reference_inverse,
    _reference_is_order_reversing,
    _reference_is_stable,
    _reference_program,
    _reference_stable_order,
)

# the package's ``rsk`` attribute is the function, not the module
rsk_module = importlib.import_module("dcposets.rsk")

WORKED_ORDER = (5, 4, 2, 3, 1, 0)
WORKED_INPUT = (2, 2, 3, 4, 2, 1)
WORKED_IMAGE = tuple(Fraction(v) for v in (11, 9, 6, 7, 4, 3))


def _toggle(P, labels, p):
    """``labels``, one int per element, with p toggled once by the kernel's step against all its covers."""
    out = list(labels)
    _toggle_all(out, ((p, P.upper_covers(p), P.lower_covers(p)),))
    return out


def test_toggle_isolated_negates():
    P = Poset(1)
    assert _toggle(P, [7], 0) == [-7]


def test_toggle_is_involution():
    P = d_k_one(4)
    labels = [5, 3, 8, 1, 9, 2]
    for p in range(P.n):
        twice = _toggle(P, _toggle(P, labels, p), p)
        assert twice == labels


def test_toggle_uses_max_cover_and_min_covered():
    # 9-element diamond lattice slice: toggling the center reads
    # max(covering labels) + min(covered labels) - own
    pairs = [
        (0, 1), (0, 2),
        (1, 3), (1, 4), (2, 4), (2, 5),
        (3, 6), (4, 6), (4, 7), (5, 7),
        (6, 8), (7, 8),
    ]
    P = Poset(9, pairs)
    labels = {8: 1, 6: 3, 7: 4, 3: 3, 4: 5, 5: 6, 1: 6, 2: 7, 0: 8}
    assert _toggle(P, [labels[p] for p in range(9)], 4)[4] == 4 + 6 - 5
    # no side of a d-complete poset has three candidates, so the kernel
    # refuses this hand-built toggle: element 6 against 0, 1, 2 above and
    # 3, 4, 5 below
    program = ((6, ((6, (0, 1, 2), (3, 4, 5)),)),)
    _refuses_long_sides([9, 4, 7, 6, 2, 5, 10], program)


def _refuses_long_sides(labels, program):
    """``_run`` on a label list and on a two-column label matrix, and ``_choices``,
    each raise ValueError on a program with a three-candidate side: it fails
    the unpack of a side's two candidates."""
    import numpy as np

    matrix = np.array([labels, labels[::-1]], dtype=object).T.copy()
    for run, start in ((_run, labels[:]), (_run, matrix), (_choices, labels[:])):
        with pytest.raises(ValueError, match="unpack"):
            run(start, program)


def test_singleton_map_is_identity():
    P = Poset(1)
    assert rsk(P, (Fraction(5, 3),)) == (Fraction(5, 3),)
    assert inverse_rsk(P, (Fraction(5, 3),)) == (Fraction(5, 3),)


def test_worked_example():
    P = d_k_one(4)
    a = analyze(P)
    image = rsk(P, WORKED_INPUT, WORKED_ORDER, analysis=a)
    assert image == WORKED_IMAGE
    assert diagonal_sums(P, image) == tuple(
        Fraction(v) for v in (14, 13, 6, 7)
    )
    assert inverse_rsk(P, WORKED_IMAGE, WORKED_ORDER, analysis=a) == tuple(
        Fraction(v) for v in WORKED_INPUT
    )
    # the other linear extension gives the same image
    assert rsk(P, WORKED_INPUT, (5, 4, 3, 2, 1, 0), analysis=a) == WORKED_IMAGE


def test_matches_classical_toggles_on_square():
    shape = (2, 2)
    P = young(shape)
    ids = young_box_ids(shape)
    rng = Random(11)
    for _ in range(25):
        matrix = [[rng.randint(0, 6) for _ in range(2)] for _ in range(2)]
        flat = [0] * 4
        for (i, j), e in ids.items():
            flat[e] = matrix[i - 1][j - 1]
        image = rsk(P, flat, range(4))
        rpp = toggle_rpp(matrix)
        for (i, j), e in ids.items():
            assert image[e] == rpp[i - 1][j - 1]


@pytest.mark.parametrize(
    "name", ["d3", "d4", "d5", "sample10", "young-3.2", "shifted-4.3.1", "tree-mixed", "chain5"]
)
def test_round_trip_random_fillings(family, analyses, name):
    P = family[name]
    a = analyses[name]
    rng = Random(7)
    for _ in range(50):
        t = random_filling(P.n, rng)
        s = rsk(P, t, analysis=a)
        assert is_order_reversing(P, s)
        assert inverse_rsk(P, s, analysis=a) == t


def test_round_trip_other_direction(family, analyses):
    P = family["d4"]
    a = analyses["d4"]
    rng = Random(3)
    for _ in range(25):
        t = random_filling(P.n, rng)
        s = rsk(P, t, analysis=a)
        assert rsk(P, inverse_rsk(P, s, analysis=a), analysis=a) == s


def test_input_validation():
    P = d_k_one(3)
    with pytest.raises(ValueError):
        rsk(P, (1, 2, 3, -1))
    with pytest.raises(ValueError):
        rsk(P, (1, 2, 3, 4), order=(0, 1, 2, 3))  # ascending, not descending
    with pytest.raises(ValueError):
        inverse_rsk(P, (0, 1, 1, 2))  # increasing up the order
    with pytest.raises(TypeError):
        rsk(P, (0.5, 1, 1, 1))


_D4 = d_k_one(4)  # 6 elements on 4 diagonals
_ORDER = (5, 4, 2, 3, 1, 0)  # a descending extension of _D4
_D3 = d_k_one(3)


def _in_order(q):
    """_ORDER with q in place of its first entry, 5."""
    return (q,) + _ORDER[1:]


def _d3_prepared():
    return [("d3", _D3, analyze(_D3))]


# Every edge that reads a caller's input: name -> (kind, call, what its reader
# calls the input, size).  A filling of _D4's 6 elements or a point on its 4
# diagonals, each read whole by exact_labels; an id of a 3-element poset or an
# entry of an insertion order of _D4, read by _require_ids; a count, read by
# _require_count, whose size is the least value it allows; a list of cover
# pairs of a 3-element poset, each read as two ids.  A tree's parent is an id,
# but -1 marks a root.
_EDGES = {
    "is_order_reversing": ("filling", lambda s: is_order_reversing(_D4, s), None, 6),
    "diagonal_sums": ("filling", lambda s: diagonal_sums(_D4, s), None, 6),
    "rsk": ("filling", lambda s: rsk(_D4, s), None, 6),
    "inverse_rsk": ("filling", lambda s: inverse_rsk(_D4, s), None, 6),
    "rsk_jacobian_det": ("filling", lambda s: rsk_jacobian_det(_D4, s), None, 6),
    "polytope_membership-values": (
        "filling",
        lambda s: polytope_membership(_D4, PolytopeSpec("rpp", (1,) * 4), s),
        None,
        6,
    ),
    "weight_sum": ("point", lambda x: weight_sum(_D4, analyze(_D4).diagonals, x), None, 4),
    "hook_polynomials": ("point", lambda x: analyze(_D4).hook_polynomials(x), None, 4),
    "hook_polynomial_eval": ("point", lambda x: hook_polynomial_eval((1, 2, 1, 1), x), None, 4),
    "polytope_membership-point": (
        "point",
        lambda x: polytope_membership(_D4, PolytopeSpec("fillings", x), (0,) * 6),
        None,
        4,
    ),
    "closed_form_volume": ("point", lambda x: closed_form_volume(_D4, PolytopeSpec("rpp", x)), None, 4),
    "rsk_polytope_check": ("point", lambda x: rsk_polytope_check(_D4, x, trials=1), None, 4),
    "Poset-pairs": ("ids", lambda q: Poset(3, [(0, 1), (1, q)]), "cover pair ids", 3),
    "Poset-names": ("ids", lambda q: Poset(3, names={q: "x"}), "named element ids", 3),
    "tree": ("parent", lambda q: tree([None, 0, q]), "cover pair ids", 3),
    "rsk-order": ("order", lambda q: rsk(_D4, (1,) * 6, _in_order(q)), "insertion order entries", 6),
    "inverse_rsk-order": ("order", lambda q: inverse_rsk(_D4, (1,) * 6, _in_order(q)), "insertion order entries", 6),
    "rsk_jacobian_det-order": (
        "order",
        lambda q: rsk_jacobian_det(_D4, (1,) * 6, _in_order(q)),
        "insertion order entries",
        6,
    ),
    "is_stable": (
        "order",
        lambda q: is_stable(_D4, _in_order(q), analyze(_D4).d_intervals),
        "insertion order entries",
        6,
    ),
    "Poset-pair-list": ("pairs", lambda pairs: Poset(3, pairs), None, 3),
    "Poset-count": ("count", Poset, "element count", 0),
    "d_k_one": ("count", d_k_one, "k of d_k(1)", 3),
    "young-part": ("count", lambda k: young((k,)), "partition part", 1),
    "shifted_young-part": ("count", lambda k: shifted_young((k,)), "partition part", 1),
    "verify_multivariate": ("count", lambda k: verify_multivariate(_D4, points=k), "points", 1),
    "rsk_polytope_check-trials": ("count", lambda k: rsk_polytope_check(_D4, trials=k), "trials", 1),
    "monte_carlo_volume": (
        "count",
        lambda k: monte_carlo_volume(_D4, PolytopeSpec("rpp", (1,) * 4), samples=k),
        "samples",
        1,
    ),
    "multivariate_identity": ("count", lambda k: multivariate_identity(_d3_prepared(), points=k), "points", 1),
    "diagonal_sum_identity": ("count", lambda k: diagonal_sum_identity(_d3_prepared(), trials=k), "trials", 1),
    "order_independence": ("count", lambda k: order_independence(_d3_prepared(), trials=k), "trials", 1),
    "volume_preservation": ("count", lambda k: volume_preservation(_d3_prepared(), points=k), "points", 1),
    "polytope_bijection": ("count", lambda k: polytope_bijection(_d3_prepared(), trials=k), "trials", 1),
    "classical_equivalence": ("count", lambda k: classical_equivalence(trials=k), "trials", 1),
    "monte_carlo_agreement": ("count", lambda k: monte_carlo_agreement(_d3_prepared(), samples=k), "samples", 1),
}
# Each reader's texts, as str.format templates of the edge's what, the last
# id (size - 1) or least count (size), the bad value and its type's name
_UNREADABLE = "exact values only: pass int or Fraction, not "
_NOT_ID = "{what} must be int, not {kind} {value!r}"
_OUTSIDE = "{what} outside 0..{last}: [{value!r}]"
_NOT_COUNT = "{what} must be an int, not {kind} {value!r}"
_BELOW = "{what} must be at least {least}, got {value!r}"


def _ids(make, error, text):
    """One cell for each kind of input that _require_ids reads."""
    return dict.fromkeys(("ids", "parent", "order"), (make, error, text))


def _key(key, kind):
    """A mapping naming the ids 0..n-1, with ``key`` standing for id 1."""
    what = {"filling": "filling names elements", "point": "point names diagonals"}[kind]
    text = f"{what} must be int, not {type(key).__name__} {key!r}"
    return (lambda n: {key if i == 1 else i: i + 1 for i in range(n)}, TypeError, text)


def _extra_key(n):
    return {**dict.fromkeys(range(n), 1), n: 1}


# name: {kind: (the input or bad value, from the edge's size; its error; its text)}
_BAD_INPUTS = {
    "float": {
        **dict.fromkeys(("filling", "point"), (lambda n: (0.5,) * n, TypeError, _UNREADABLE + "float 0.5")),
        **_ids(lambda n: float(n - 1), TypeError, _NOT_ID),
        "count": (lambda least: float(least + 1), TypeError, _NOT_COUNT),
    },
    "nan": dict.fromkeys(("filling", "point"), (lambda n: (float("nan"),) * n, TypeError, _UNREADABLE + "float nan")),
    "str": {
        **dict.fromkeys(("filling", "point"), (lambda n: ("1",) * n, TypeError, _UNREADABLE + "str '1'")),
        **_ids(lambda n: str(n - 1), TypeError, _NOT_ID),
        "count": (lambda least: str(least + 1), TypeError, _NOT_COUNT),
    },
    "short": {
        "filling": (lambda n: (1,) * (n - 1), ValueError, "filling has 5 values for 6 elements"),
        "point": (lambda n: (1,) * (n - 1), ValueError, "point has 3 values for 4 diagonals"),
    },
    "long": {
        "filling": (lambda n: (1,) * (n + 1), ValueError, "filling has 7 values for 6 elements"),
        "point": (lambda n: (1,) * (n + 1), ValueError, "point has 5 values for 4 diagonals"),
    },
    "extra-key": {
        "filling": (_extra_key, ValueError, "filling names elements outside 0..5: [6]"),
        "point": (_extra_key, ValueError, "point names diagonals outside 0..3: [4]"),
    },
    # ids 1..n: a mapping is read by id, not by the order of its keys
    "missing-key": {
        "filling": (lambda n: dict.fromkeys(range(1, n + 1), 1), ValueError, "filling is missing elements [0]"),
        "point": (lambda n: dict.fromkeys(range(1, n + 1), 1), ValueError, "point is missing diagonals [0]"),
    },
    # keys equal to id 1, so that `1 in values` and values[1] both find them
    "float-key": {kind: _key(1.0, kind) for kind in ("filling", "point")},
    "bool-key": {kind: _key(True, kind) for kind in ("filling", "point")},
    "bool": {**_ids(lambda n: True, TypeError, _NOT_ID), "count": (lambda least: True, TypeError, _NOT_COUNT)},
    "minus-one": {
        **_ids(lambda n: -1, ValueError, _OUTSIDE),
        "parent": (lambda n: -1, ValueError, "tree must have exactly one root, got 2"),
        "count": (lambda least: -1, ValueError, _BELOW),
    },
    "past-end": _ids(lambda n: n, ValueError, _OUTSIDE),
    "below": {"count": (lambda least: least - 1, ValueError, _BELOW)},
    "three-entry-pair": {
        "pairs": (lambda n: [(0, 1, 2)], ValueError, "cover pair must be two ids, not tuple (0, 1, 2)")
    },
    "one-entry-pair": {"pairs": (lambda n: [(0,)], ValueError, "cover pair must be two ids, not tuple (0,)")},
    "int-pair": {"pairs": (lambda n: [5], TypeError, "cover pair must be two ids, not int 5")},
    "none-pair": {"pairs": (lambda n: [(0, 1), None], TypeError, "cover pair must be two ids, not NoneType None")},
}


@pytest.mark.parametrize(
    "edge, bad",
    [
        pytest.param(edge, bad, id=f"{bad}-{edge}")
        for bad, cells in _BAD_INPUTS.items()
        for edge, (kind, _, _, _) in _EDGES.items()
        if kind in cells
    ],
)
def test_filling_edges_raise_typed_errors(edge, bad):
    # every reader of caller input: its own TypeError or ValueError, in full,
    # never an IndexError, KeyError, AttributeError or ZeroDivisionError from
    # the edge itself, nor Python's "cannot be interpreted as an integer"
    kind, call, what, size = _EDGES[edge]
    make, error, text = _BAD_INPUTS[bad][kind]
    value = make(size)
    message = text.format(what=what, last=size - 1, least=size, value=value, kind=type(value).__name__)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "value, kind", [(None, "NoneType"), (1j, "complex"), (Decimal("NaN"), "Decimal")], ids=["none", "complex", "nan"]
)
def test_unreadable_values_get_the_exact_value_refusal(value, kind):
    # Fraction() refuses these with "argument should be a string or a
    # Rational instance", though strings are refused too: every edge that
    # reads values through exact_value names the type and value instead
    message = f"^exact values only: pass int or Fraction, not {kind} {re.escape(repr(value))}$"
    for kind, edge, _, size in _EDGES.values():
        if kind in ("filling", "point"):
            with pytest.raises(TypeError, match=message):
                edge((1, value, 0, 1, 1, 1)[:size])
    # a value Fraction() reads exactly is taken
    assert rsk(_D4, (Decimal("1.5"),) * 6) == rsk(_D4, (Fraction(3, 2),) * 6)


def test_float_ids_raise_typed_errors():
    # a float id equal to an element passes the permutation and membership
    # checks, so each edge refuses it by type, naming the entry
    P = _D4
    order = (5.0, 4, 2, 3, 1, 0)
    assert is_descending_extension(P, (5, 4, 2, 3, 1, 0))
    image = rsk(P, (1,) * 6)
    for edge in (
        lambda: rsk(P, (1,) * 6, order),
        lambda: inverse_rsk(P, image, order),
        lambda: rsk_jacobian_det(P, (1,) * 6, order),
        lambda: rsk(P, (1,) * 6, iter([5, 4, 2, 3, 1, 0.0])),
    ):
        with pytest.raises(TypeError, match=r"^insertion order entries must be int, not float (5|0)\.0$"):
            edge()


@pytest.mark.parametrize(
    "order, error, message",
    [
        ((5.0, 4, 2, 3, 1, 0), TypeError, r"^insertion order entries must be int, not float 5\.0$"),
        (("5", 4, 2, 3, 1, 0), TypeError, r"^insertion order entries must be int, not str '5'$"),
        ((0, 1, 2, 3, 4, 5), ValueError, r"^insertion order must be a descending linear extension$"),
    ],
    ids=["float", "str", "ascending"],
)
def test_orders_that_are_no_descending_extension(order, error, message):
    # a float equal to an element and a string are refused as entries, not by
    # Python's own indexing or comparison errors, as an ascending order is;
    # is_stable and rsk read orders alike, naming the first bad entry
    P = _D4
    assert not is_descending_extension(P, order)
    with pytest.raises(error, match=message):
        is_stable(P, order, analyze(P).d_intervals)
    with pytest.raises(error, match=message):
        rsk(P, (1,) * 6, order)


def test_sign_and_order_checks_read_exact_values():
    # 1/3 and 1/2 on one cover: over their common denominator 6 they are 2
    # and 3, so the checks on scaled labels must order them as the rationals
    P = chain(2)  # 0 < 1
    lo, hi = Fraction(1, 3), Fraction(1, 2)
    with pytest.raises(ValueError, match="^image filling must be order-reversing$"):
        inverse_rsk(P, {0: lo, 1: hi})
    with pytest.raises(ValueError, match="^filling must be nonnegative; element 1 has value -1/3$"):
        inverse_rsk(P, {0: hi, 1: -lo})
    t = inverse_rsk(P, {0: hi, 1: lo})
    assert rsk(P, t) == (hi, lo)
    with pytest.raises(ValueError, match="^filling must be nonnegative; element 1 has value -1/3$"):
        rsk(P, (hi, -lo))
    with pytest.raises(ValueError, match="^filling must be nonnegative; element 0 has value -1/2$"):
        rsk_jacobian_det(P, {0: -hi, 1: lo})


def test_order_reversing_matches_fraction_reference(family, analyses):
    # integer labels over one common denominator against the definition read
    # Fraction by Fraction: random fillings, rsk images, images nudged by a
    # third of their denominator, and small mixed int/Fraction entries of
    # either sign, so both verdicts and many ties occur
    rng = Random(61)
    small = (-1, 0, 1, 2, Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(4, 2))
    verdicts = []
    for name, P in family.items():
        for _ in range(10):
            t = random_filling(P.n, rng)
            s = rsk(P, t, analysis=analyses[name])
            nudged = list(s)
            p = rng.randrange(P.n)
            nudged[p] += Fraction(rng.choice((-1, 1)), 3 * exact_labels(s, P.n, "filling", "elements")[1])
            mixed = [rng.choice(small) for _ in range(P.n)]
            negated = [-v if rng.getrandbits(1) else v for v in s]
            for filling in (t, s, nudged, mixed, negated):
                verdict = is_order_reversing(P, filling)
                assert verdict == _reference_is_order_reversing(P, filling), (name, filling)
                verdicts.append(verdict)
    assert verdicts.count(True) > 200 and verdicts.count(False) > 200


def test_filling_mapping_rejects_extra_ids():
    with pytest.raises(ValueError, match=r"outside 0\.\.0: \[5\]"):
        rsk(Poset(1), {0: 1, 5: 3})
    with pytest.raises(ValueError, match=r"outside 0\.\.2: \[-1, 3\]"):
        exact_labels({0: 1, -1: 2, 1: 1, 2: 1, 3: 4}, 3, "filling", "elements")
    with pytest.raises(ValueError, match="missing elements"):
        exact_labels({0: 1, 2: 1, 3: 4}, 3, "filling", "elements")
    # a mapping is read by id, whatever the order of its keys
    assert exact_labels({1: 2, 0: 1}, 2, "filling", "elements") == ([1, 2], 1)
    assert rsk(chain(2), {1: 2, 0: 1}) == rsk(chain(2), (1, 2))


def test_zero_filling_maps_to_zero(family, analyses):
    for name, P in family.items():
        z = (Fraction(0),) * P.n
        assert rsk(P, z, analysis=analyses[name]) == z


def test_stable_order_of_chain_is_descending():
    P = chain(4)
    assert stable_insertion_order(P, analyze(P).d_intervals) == (3, 2, 1, 0)


def test_stable_orders_family(family, analyses):
    for name, P in family.items():
        order = analyses[name].stable_order
        assert is_stable(P, order, analyses[name].d_intervals)


def test_unstable_order_detected():
    # inserting the bottom of the flat diamond before the bottom of the
    # double-tailed interval leaves a side acting as a neck elsewhere
    shape = (4, 3, 1)
    P = shifted_young(shape)
    ids = shifted_box_ids(shape)
    boxes = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 3)]
    order = tuple(ids[b] for b in boxes)
    intervals = analyze(P).d_intervals
    assert not is_stable(P, order, intervals)
    stable = stable_insertion_order(P, intervals)
    assert is_stable(P, stable, intervals)


def test_stable_order_matches_all_pairs_reference():
    posets = [e.poset for e in catalog()]
    posets += [young((12,) * 12), shifted_young((7, 6, 5, 4, 3, 2, 1))]
    posets += [d_k_one(k) for k in range(3, 61)]
    rng = Random(21)
    posets += [young(random_shape(rng, 45)) for _ in range(40)]
    posets += [shifted_young(random_shape(rng, 45, strict=True)) for _ in range(40)]
    posets += seeded_joins()
    for P in posets:
        assert stable_insertion_order(P, analyze(P).d_intervals) == _reference_stable_order(P)


def test_minimal_bottoms_decide_the_stable_order():
    """Lemmas (A) and (B) of ``stable_insertion_order`` at every choosing step.

    Containment is all-pairs, as in ``_reference_stable_order``.  At a step
    where every minimal element of what remains bottoms a d-interval, (A):
    each interval with a minimal bottom is maximal among the present ones;
    (B): each maximal one whose bottom is not minimal has a minimal-bottomed
    interval with a diamond top strictly below its own.
    """
    posets = [e.poset for e in catalog()] + list(seeded_joins())
    posets += [young((10,) * 10), shifted_young(tuple(range(8, 0, -1)))]
    steps = deep = 0
    for P in posets:
        a = analyze(P)
        intervals = [(iv, iv.member_mask) for iv in a.d_intervals]
        remaining = (1 << P.n) - 1
        for c in reversed(stable_insertion_order(P, a.d_intervals)):
            minimal = P.minimal_in_mask(remaining)
            present = [(iv, m) for iv, m in intervals if m & remaining == m]
            on_minimal = [iv for iv, _ in present if iv.bottom in minimal]
            if len(on_minimal) == len(minimal):
                steps += 1
                maximal = [
                    iv for iv, m in present if not any(m2 != m and m | m2 == m2 for _, m2 in present)
                ]
                assert all(iv in maximal for iv in on_minimal), (P, c)
                above = [J for J in maximal if J.bottom not in minimal]
                deep += bool(above)
                for J in above:
                    assert any(lt(P, I.diamond_top, J.diamond_top) for I in on_minimal), (P, c, J)
            remaining ^= 1 << c
    assert steps >= 250 and deep >= 100, (steps, deep)


def test_stability_verdicts_match_reference():
    posets = [(e.name, e.poset) for e in catalog()]
    posets += [
        ("shifted-7..1", shifted_young((7, 6, 5, 4, 3, 2, 1))),
        ("young-5.4.3.2", young((5, 4, 3, 2))),
    ]
    posets += [(f"join-{i}", P) for i, P in enumerate(seeded_joins())]
    verdicts = []
    for name, P in posets:
        a = analyze(P)
        rng = Random(f"stable {name}")
        orders = [a.stable_order] + [random_descending_extension(P, rng) for _ in range(20)]
        for iv in a.d_intervals:  # the neck mask ``is_stable`` unions
            assert P._up[iv.diamond_top] & P._dn[iv.top] == mask_of(iv.neck), (name, iv)
        for order in orders:
            verdict = is_stable(P, order, a.d_intervals)
            assert verdict == _reference_is_stable(P, order, a.d_intervals), (name, order)
            verdicts.append(verdict)
    assert verdicts.count(False) >= 30 and verdicts.count(True) >= 30


def test_long_double_tailed_diamond_stable_order():
    # The parent construction, with its all-intervals stability scan, took
    # 6-8 s here and returned the elements in descending id order.
    P = d_k_one(1000)
    a = analyze(P)
    a.axiom_report
    start = time.perf_counter()
    order = a.stable_order
    assert time.perf_counter() - start < 1.0
    assert order == tuple(range(P.n - 1, -1, -1))


def test_long_double_tailed_diamond_stability_check():
    # Counting neck owners element by element visits every neck, Θ(k²) on
    # d_k(1): 0.08-0.11 s on a 2-core VM, where one mask of completed necks
    # takes 2.5-4.2 ms.
    P = d_k_one(2000)
    a = analyze(P)
    order = a.stable_order
    start = time.perf_counter()
    assert is_stable(P, order, a.d_intervals)
    assert time.perf_counter() - start < 0.05


LARGE_POSETS = {
    "young-30x30": lambda: young((30,) * 30),
    "shifted-40..1": lambda: shifted_young(tuple(range(40, 0, -1))),
    "young-50x50": lambda: young((50,) * 50),
    "shifted-60..1": lambda: shifted_young(tuple(range(60, 0, -1))),
    "d2000(1)": lambda: d_k_one(2000),
}


@pytest.mark.parametrize("name", LARGE_POSETS)
def test_large_shape_stable_order(name):
    # A construction that rescanned the present intervals' masks for
    # containment at every step took 7-11 s on each of the first two; one
    # that rescanned the present intervals for maximality took 2-3 s on
    # young-50x50 and 1.3 s on shifted-60..1.
    P = LARGE_POSETS[name]()
    a = analyze(P)
    a.axiom_report
    start = time.perf_counter()
    order = a.stable_order
    assert time.perf_counter() - start < 1.0
    assert is_stable(P, order, a.d_intervals)


def test_diagonal_sums_partition_identity(family, analyses):
    P = family["sample10"]
    a = analyses["sample10"]
    rng = Random(1)
    zeros = diagonal_sums(P, (Fraction(0),) * P.n)
    assert set(zeros) == {Fraction(0)}
    for _ in range(10):
        t = random_filling(P.n, rng)
        s = rsk(P, t, analysis=a)
        assert sum(diagonal_sums(P, s), Fraction(0)) == sum(s, Fraction(0))


@pytest.mark.parametrize("name", ["d4", "d5", "sample10", "young-3.3", "shifted-4.3.1"])
def test_oracles(family, analyses, name):
    """Two consistency checks of the insertion that no battery criterion makes.

    Presence depends only on the insertion order, so a scan of the
    compiled toggle program finds every toggle of an already-present
    element with no present lower cover; on d-complete input there is
    none, the fresh element's toggle aside.  Removing a minimal element c
    relates the diagonal sums of the smaller and the larger poset through
    the diagonals adjacent to D(c).
    """
    P = family[name]
    a = analyses[name]
    part = a.diagonals
    rng = Random(13)
    for _ in range(3):
        program = _reference_program(P, part, random_descending_extension(P, rng))
        for c, toggles in program:
            assert all(los != () for e, _, los in toggles if e != c), (c, toggles)

    removals = []
    for c in P.minimal_elements():
        sub, old_ids = restrict(P, [v for v in range(P.n) if v != c])
        removals.append((c, sub, analyze(sub), old_ids))
    for _ in range(20):
        t = random_filling(P.n, rng)
        s = rsk(P, t, analysis=a)
        for c, sub, sub_a, old_ids in removals:
            sub_s = rsk(sub, tuple(t[o] for o in old_ids), analysis=sub_a)
            label = {o: sub_s[new] for new, o in enumerate(old_ids)}

            def small_sum(d):
                return sum((label[p] for p in part.classes[d] if p != c), Fraction(0))

            dc = part.diagonal_of[c]
            big_sum = sum((s[p] for p in part.classes[dc]), Fraction(0))
            neighbors = [d for d in range(part.count) if is_adjacent(part, dc, d)]
            rhs = t[c] + sum((small_sum(d) for d in neighbors), Fraction(0))
            assert small_sum(dc) + big_sum == rhs, (c, t)


def _seeded_fillings(n, rng, count):
    """Random rational fillings, every third one of small integers, which tie often."""
    for k in range(count):
        if k % 3 == 2:
            yield tuple(Fraction(rng.randint(0, 3)) for _ in range(n))
        else:
            yield random_filling(n, rng)


@pytest.mark.parametrize("name", ["d3", "d4", "sample10", "young-3.2"])
def test_jacobian_matches_finite_difference(family, analyses, name):
    P = family[name]
    a = analyses[name]
    rng = Random(29)
    orders = [None, random_descending_extension(P, rng), random_descending_extension(P, rng)]
    outcomes = set()
    for order in orders:
        seq = a.stable_order if order is None else order
        for t in _seeded_fillings(P.n, rng, 30):
            try:
                expected = _finite_difference_det(P, a, t, seq)
            except NonGenericPoint:
                with pytest.raises(NonGenericPoint):
                    rsk_jacobian_det(P, t, order, analysis=a)
                outcomes.add("tie")
                continue
            assert rsk_jacobian_det(P, t, order, analysis=a) == expected
            outcomes.add(expected)
    assert "tie" in outcomes and outcomes - {"tie"} <= {1, -1}


def _select(labels, candidates, sign):
    """The candidate with the largest ``sign * label``; raises on a tie with the running best."""
    best = candidates[0]
    for u in candidates[1:]:
        gap = sign * (labels[u] - labels[best])
        if gap == 0:
            raise NonGenericPoint("tie between toggle candidates at the base point")
        if gap > 0:
            best = u
    return best


def _reference_jacobian_rows(labels, program):
    """The two-step Jacobian rows: ``_select`` per multi-candidate side, then a rebuilt replay.

    Each step's choices go through ``_toggle_all``; each row is summed
    with ``get(j, 0)`` and rebuilt once more to drop its zeros.  Row n,
    one past the labels, is an absent cover's: empty, so zero.
    """
    n = len(labels)
    trace = []
    for c, toggles in program:
        labels[c] = -labels[c]
        chosen = tuple(
            (
                e,
                ups if len(ups) <= 1 else (_select(labels, ups, 1),),
                los if len(los) <= 1 else (_select(labels, los, -1),),
            )
            for e, ups, los in toggles
        )
        _toggle_all(labels, chosen)
        trace.append((c, chosen))

    rows = [{} for _ in range(n + 1)]
    for c, chosen in trace:
        rows[c] = {c: -1}
        for e, ups, los in chosen:
            (x,), (y,) = ups or (n,), los or (n,)
            row = dict(rows[x])
            for j, v in rows[y].items():
                row[j] = row.get(j, 0) + v
            for j, v in rows[e].items():
                row[j] = row.get(j, 0) - v
            rows[e] = {j: v for j, v in row.items() if v}
    return rows


# v_j = 2^(64 j): J v spells each row of J in base 2^64.  Rows whose entries
# lie below 2^63 in size give equal products only when they are equal, so
# comparing J v with a reference's rows times v compares the rows.
def _spelling_direction(n):
    return [2 ** (64 * j) for j in range(n)]


def _times(rows, v):
    """Each sparse row ``{column: entry}``'s product with v."""
    return [sum(x * v[j] for j, x in row.items()) for row in rows]


def test_one_candidate_sides_keep_the_ties():
    # the fused run reads a lone candidate directly and compares a pair of
    # candidates once; the fillings that tie, the labels the run leaves and the
    # Jacobian its choices spell are those of the two-step reference, on the
    # catalog, large posets and joins, under the stable order and a random one
    posets = [(e.name, e.poset) for e in catalog()] + [
        ("young-4x4", young((4, 4, 4, 4))),
        ("young-12x12", young((12,) * 12)),
        ("d50(1)", d_k_one(50)),
    ]
    posets += [(f"join-{i}", P) for i, P in enumerate(seeded_joins())]
    rng = Random(47)
    outcomes = {"tie": 0, "rows": 0}
    verdicts: dict[str, set[str]] = {}
    for name, P in posets:
        a = analyze(P)
        v = _spelling_direction(P.n)
        seen = verdicts.setdefault("joins" if name.startswith("join-") else name, set())
        for order in (None, random_descending_extension(P, rng)):
            program = _program(P, order, a)
            for t in _seeded_fillings(P.n, rng, 24 if P.n >= 50 else 6):
                labels, _ = exact_labels(t, P.n, "filling", "elements")
                expected_labels = labels[:]
                try:
                    expected = _reference_jacobian_rows(expected_labels, program)
                except NonGenericPoint as exc:
                    with pytest.raises(NonGenericPoint, match=str(exc)):
                        _choices(labels, program)
                    outcomes["tie"] += 1
                    seen.add("tie")
                    continue
                trace, _ = _choices(labels, program)
                jv, bound = _jacobian_times(trace, v)
                assert bound < 2**63 and jv == _times(expected, v), (name, order, t)
                assert bound >= max(sum(map(abs, row.values())) for row in expected)
                assert labels == expected_labels
                outcomes["rows"] += 1
                seen.add("rows")
    for name in ("young-12x12", "d50(1)", "joins"):
        assert verdicts[name] == {"tie", "rows"}, (name, verdicts[name])
    assert outcomes["tie"] >= 50 and outcomes["rows"] >= 1000, outcomes


def test_running_best_tie_rule():
    # [3, 3, 5]: the running best ties at the second candidate, before the
    # unique maximum 5 is read, and that raises; a lone candidate never does
    labels = [3, 3, 5, 1]
    with pytest.raises(NonGenericPoint):
        _select(labels, (0, 1, 2), 1)
    assert _select(labels, (0, 2, 1), 1) == 2
    assert _select(labels, (3,), -1) == 3
    # a program toggling element 3 against 0, 1, 2 above has a side no
    # d-complete poset has, and the kernel refuses it before any comparison,
    # as it does with [1, 1, 0] below, or with three candidates on each side
    _refuses_long_sides(labels, ((3, ((3, (0, 1, 2), ()),)),))
    _refuses_long_sides([1, 1, 0, 4, 2], ((3, ((3, (4,), (0, 1, 2)),)),))
    program = tuple((c, ((c, (), ()),)) for c in range(6))
    program += ((6, ((6, (0, 1, 2), (3, 4, 5)),)),)
    _refuses_long_sides([5, 3, 3, 1, 2, 2, 9], program)
    # two candidates, the longest side a d-complete poset has: an equal pair
    # raises on either side, and otherwise the strict winner is chosen,
    # first or second, and the gap between the two is recorded
    v = _spelling_direction(4)
    inserted = tuple((c, ((c, (), ()),)) for c in range(3))
    programs = {sides: inserted + ((3, ((3, *sides),)),) for sides in (((0, 1), (2,)), ((2,), (0, 1)))}
    for program in programs.values():
        for replay in (_choices, _reference_jacobian_rows):
            with pytest.raises(NonGenericPoint):
                replay([4, 4, 1, 9], program)
    for ups, los, labels, chosen in (
        ((0, 1), (2,), [5, 8, 1, 9], (1, 2)),
        ((0, 1), (2,), [8, 5, 1, 9], (0, 2)),
        ((2,), (0, 1), [5, 8, 1, 9], (2, 0)),
        ((2,), (0, 1), [8, 5, 1, 9], (2, 1)),
    ):
        program = programs[ups, los]
        expected_labels = labels[:]
        expected = _reference_jacobian_rows(expected_labels, program)
        trace, gap = _choices(labels, program)
        assert trace[-1] == (3, *chosen) and gap == 3, (ups, los, labels)
        assert _jacobian_times(trace, v)[0] == _times(expected, v)
        assert labels == expected_labels


def test_jacobian_rows_match_dense_replay():
    P = young((4, 4, 4, 4))
    a = analyze(P)
    rng = Random(41)
    v = _spelling_direction(P.n)
    checked = 0
    for order in (None, random_descending_extension(P, rng)):
        seq = a.stable_order if order is None else order
        program = _program(P, order, a)
        for _ in range(10):
            t = random_filling(P.n, rng)
            labels, denom = exact_labels(t, P.n, "filling", "elements")
            try:
                trace, _ = _choices(labels, program)
            except NonGenericPoint:
                continue
            image, dense = _dense_jacobian_rows(P, a, seq, t)
            assert tuple(Fraction(x, denom) for x in labels) == image
            jv, bound = _jacobian_times(trace, v)
            assert bound < 2**63
            assert jv == [sum(x * w for x, w in zip(row, v)) for row in dense] + [0]
            checked += 1
    assert checked >= 10


def test_derivative_scale_keeps_every_choice():
    # g is the smallest gap the reference insertion sees between compared
    # labels, and at K T + v, with K = floor(2 B V / g) + 1, the reference
    # makes the base point's choices and lands on K Phi(T) + J v, for v at
    # corners of the box [-V, V]^n and at random in it
    posets = [e.poset for e in catalog()][::6] + [young((4, 4, 4, 4)), *seeded_joins()[::6]]
    rng = Random(53)
    big = DIRECTION_BOUND
    checked = 0
    for P in posets:
        a = analyze(P)
        for t in _seeded_fillings(P.n, rng, 3):
            labels, denom = exact_labels(t, P.n, "filling", "elements")
            image = labels[:]
            try:
                trace, gap = _choices(image, a.insertion_program)
            except NonGenericPoint:
                continue
            base_trace, gaps = [], []
            _reference_insertion(P, a, a.stable_order, t, base_trace, gaps)
            assert Fraction(gap, denom) == min(gaps, default=0)
            for v in (
                [rng.choice((-big, big)) for _ in range(P.n)],
                [rng.randint(-big, big) for _ in range(P.n)],
            ):
                d, bound = _jacobian_times(trace, v)
                k = 2 * bound * big // gap + 1 if gap else 1
                moved_trace = []
                moved = _reference_insertion(
                    P, a, a.stable_order, [Fraction(k * x + w, denom) for x, w in zip(labels, v)], moved_trace
                )
                assert moved_trace == base_trace
                assert moved == tuple(Fraction(k * x + w, denom) for x, w in zip(image, d))
            checked += 1
    assert checked >= 60


@pytest.mark.parametrize(
    "P", [young((12,) * 12), d_k_one(50)], ids=["young-12x12", "d50(1)"]
)
def test_jacobian_unimodular_on_large_posets(P):
    a = analyze(P)
    rng = Random(1)
    for _ in range(200):
        try:
            det = rsk_jacobian_det(P, random_filling(P.n, rng), analysis=a)
        except NonGenericPoint:
            continue
        assert det == (-1) ** (P.n + _toggle_count(a.insertion_program))
        return
    pytest.fail("no generic point in 200 seeded fillings")


@pytest.mark.parametrize(
    "name", ["chain5", "d4", "d5", "d4-named", "sample10", "young-3.3", "shifted-4.3.1", "tree-mixed"]
)
def test_kernel_matches_reference(family, analyses, name):
    P = family[name]
    a = analyses[name]
    rng = Random(17)
    for t in _seeded_fillings(P.n, rng, 20):
        for order in (None, random_descending_extension(P, rng)):
            seq = a.stable_order if order is None else order
            s = rsk(P, t, order, analysis=a)
            assert s == _reference_insertion(P, a, seq, t)
            assert inverse_rsk(P, s, order, analysis=a) == _reference_inverse(P, a, seq, s)


def _general_step(labels, toggles):
    """The toggle as written, max over the upper candidates plus min over the lower, minus
    the label, an empty side reading 0."""
    get = labels.__getitem__
    for e, ups, los in toggles:
        labels[e] = max(map(get, ups), default=0) + min(map(get, los), default=0) - labels[e]


def test_kernel_fast_path_matches_general_step():
    posets = [(e.name, e.poset) for e in catalog()] + [
        ("young-12x12", young((12,) * 12)),
        ("shifted-7..1", shifted_young((7, 6, 5, 4, 3, 2, 1))),
    ]
    rng = Random(43)
    shapes = set()
    for name, P in posets:
        a = analyze(P)
        for order in (None, random_descending_extension(P, rng)):
            program = _program(P, order, a)
            shapes.update((len(ups), len(los)) for _, step in program for _, ups, los in step)
            for _ in range(3):
                t, _ = exact_labels(random_filling(P.n, rng), P.n, "filling", "elements")
                image, expected = t[:], t[:]
                _run(image, program)
                for c, toggles in program:
                    expected[c] = -expected[c]
                    _general_step(expected, toggles)
                assert image == expected, (name, order)
                _run(image, program, backward=True)
                for c, toggles in reversed(program):
                    _general_step(expected, toggles)
                    expected[c] = -expected[c]
                assert image == expected == t, (name, order)
    # the empty-side, one-candidate and two-candidate reads all ran, each against
    # each read of the other side that these programs have; none has a toggle
    # with two upper candidates and one lower one
    assert {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)} <= shapes


def test_toggle_sides_have_at_most_two_candidates():
    # the bound _toggle_all's docstring proves: every element has at most two
    # upper covers, and an element toggled after its own insertion tops a
    # d-interval, so covers at most two.  Checked on the step tables of the
    # catalog, the seeded joins and three larger posets, whose n steps make
    # up every program, and where both sides reach two candidates at once
    posets = [e.poset for e in catalog()] + list(seeded_joins())
    posets += [young((12,) * 12), shifted_young((7, 6, 5, 4, 3, 2, 1)), d_k_one(50)]
    shapes = Counter()
    for P in posets:
        steps = analyze(P).insertion_steps
        assert len(steps) == P.n
        shapes.update((len(ups), len(los)) for step in steps for _, ups, los in step)
    assert max(map(max, shapes)) == 2, shapes
    assert shapes[2, 2] >= 400, shapes


def test_insertion_steps_match_per_order_compilation():
    # every program read off the step table equals the one compiled step by
    # step along its order: on the catalog, the seeded joins, Young 12x12,
    # shifted 7..1 and d_50(1), along the stable order and 20 random ones
    posets = [e.poset for e in catalog()] + list(seeded_joins())
    posets += [young((12,) * 12), shifted_young((7, 6, 5, 4, 3, 2, 1)), d_k_one(50)]
    assert len(posets) == 359
    rng = Random(61)
    for P in posets:
        a = analyze(P)
        assert a.insertion_program == _reference_program(P, a.diagonals, a.stable_order)
        for _ in range(20):
            order = random_descending_extension(P, rng)
            assert _program(P, order, a) == _reference_program(P, a.diagonals, order), order


def _columns_match_scalar_loops(P, program, trials, draw):
    """Run ``program`` both ways on random label columns: ``_run`` on the label
    matrix against ``_run`` on each column's list, from two unrelated starting
    matrices, each label drawn by ``draw()``."""
    import numpy as np

    for backward in (False, True):
        columns = [[draw() for _ in range(P.n)] for _ in range(trials)]
        labels = np.array(columns, dtype=object).T.copy()
        _run(labels, program, backward)
        for j, column in enumerate(columns):
            _run(column, program, backward)
            assert labels[:, j].tolist() == column, (P.n, backward, j)
        assert {type(v) for v in labels[:, -1]} <= {int}


def test_column_runner_matches_scalar_loops():
    # on the catalog, the 60 seeded joins, Young 12x12 and d_50(1): one trial
    # along the stable program and along a random order's; 100 trials along
    # the stable program of the two large posets and of every tenth other one;
    # and 4 trials along every stable program from a tie-heavy start, labels
    # in 0..2, where two-candidate sides often hold equal labels, which a list
    # reads by one comparison and a matrix by np.maximum or np.minimum
    posets = [e.poset for e in catalog()] + list(seeded_joins())
    posets += [young((12,) * 12), d_k_one(50)]
    rng, tie_rng = Random(47), Random(48)
    spread = lambda: rng.getrandbits(9) - 40
    ties = lambda: tie_rng.randrange(3)
    shapes = set()
    tied = []
    for i, P in enumerate(posets):
        a = analyze(P)
        for order in (None, random_descending_extension(P, rng)):
            program = _program(P, order, a)
            shapes.update((len(ups), len(los)) for _, step in program for _, ups, los in step)
            # a side with no present cover is empty: every toggle names elements only
            assert all(q < P.n for _, step in program for e, ups, los in step for q in (e, *ups, *los))
            _columns_match_scalar_loops(P, program, 1, spread)
        if i % 10 == 0 or P.n > 60:
            _columns_match_scalar_loops(P, a.insertion_program, 100, spread)
        _columns_match_scalar_loops(P, a.insertion_program, 4, ties)
        # _choices refusing a tie-heavy start shows that a forward run met a tie
        try:
            _choices([ties() for _ in range(P.n)], a.insertion_program)
        except NonGenericPoint:
            tied.append(P.n)
    assert min(P.n for P in posets) == 1
    # the empty-side, one-candidate and multi-candidate reads all ran, each
    # against each read of the other side that these programs have
    assert {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2)} <= shapes
    assert len(tied) >= 30 and 144 in tied, tied


def _choice_descending_extension(P, rng):
    """The sampler as first written, one ``rng.choice`` per pick: the oracle for its draws."""
    waiting = [len(u) for u in P._upper]
    maximal = [v for v in range(P.n) if not waiting[v]]
    out = []
    while maximal:
        c = rng.choice(maximal)
        out.append(c)
        maximal.remove(c)
        for v in P._lower[c]:
            waiting[v] -= 1
            if not waiting[v]:
                insort(maximal, v)
    return tuple(out)


def test_random_orders_keep_their_draws():
    # the battery's seeds pin these orders; a Python whose random stream
    # differs from choice's rejection loop on getrandbits fails here
    posets = [(e.name, e.poset) for e in catalog()] + [
        ("young-12x12", young((12,) * 12)),
        ("d50(1)", d_k_one(50)),
    ]
    for name, P in posets:
        for seed in range(4):
            rng, oracle = Random(seed), Random(seed)
            for _ in range(3):
                assert random_descending_extension(P, rng) == _choice_descending_extension(P, oracle)
            assert rng.getstate() == oracle.getstate(), (name, seed)


def test_order_walk_matches_compiled_random_orders(monkeypatch):
    # order independence's walk against the path it replaced: _run along
    # the per-order compilation of random_descending_extension, drawn from a twin
    # stream with the same labels drawn in between.  Every draw gives the
    # same image, each walked path is a descending extension whose steps are
    # the compiled program's, toggles in the same order, and the two streams
    # end in the same state.  Three draws per seed revisit the memo's edges.
    posets = [(e.name, e.poset) for e in catalog()]
    posets += [(f"join-{i}", P) for i, P in enumerate(seeded_joins())]
    posets += [("young-12x12", young((12,) * 12)), ("d50(1)", d_k_one(50))]
    steps = []

    def recording(labels, toggles):
        steps.append(tuple(toggles))
        _toggle_all(labels, toggles)

    monkeypatch.setattr(rsk_module, "_toggle_all", recording)
    for name, P in posets:
        a = analyze(P)
        part = a.diagonals
        for seed in range(4):
            rng, oracle = Random(seed), Random(seed)
            insert = _random_order_insertion(P, a.insertion_steps, rng)
            for draw in range(3):
                t = [rng.randrange(1, 1000) for _ in range(P.n)]
                assert t == [oracle.randrange(1, 1000) for _ in range(P.n)]
                walked = t[:]
                steps.clear()
                insert(walked)
                # a step's last toggle is its inserted element's
                path = tuple(step[-1][0] for step in steps)
                assert is_descending_extension(P, path), (name, seed, draw)
                program = _reference_program(P, part, random_descending_extension(P, oracle))
                assert path == tuple(c for c, _ in program), (name, seed, draw)
                assert tuple(steps) == tuple(toggles for _, toggles in program), (name, seed, draw)
                assert all(q < P.n for step in steps for e, ups, los in step for q in (e, *ups, *los))
                _run(t, program)
                assert walked == t, (name, seed, draw)
            assert rng.getstate() == oracle.getstate(), (name, seed)


def test_jacobian_determinant_unimodular(family, analyses):
    for name in ("d3", "d4", "sample10", "young-3.2"):
        P = family[name]
        a = analyses[name]
        rng = Random(23)
        done = 0
        while done < 5:
            t = random_filling(P.n, rng)
            try:
                det = rsk_jacobian_det(P, t, analysis=a)
            except NonGenericPoint:
                continue
            assert det in (Fraction(1), Fraction(-1))
            done += 1


def _toggle_count(program):
    return sum(len(step) for _, step in program)


def test_jacobian_sign_is_step_parity():
    # each step is the identity with one row replaced, whose diagonal entry is
    # -1, so the determinant is (-1)^(n + T), T the program's toggle count;
    # inserting c toggles the members of its diagonal at or above it, so
    # T = sum over the diagonals D of |D|(|D|+1)/2, whatever the order
    rng = Random(31)
    signs = set()
    for entry in catalog():
        P = entry.poset
        a = analyze(P)
        toggles = sum(len(D) * (len(D) + 1) // 2 for D in a.diagonals.classes)
        for order in (None, random_descending_extension(P, rng)):
            assert _toggle_count(_program(P, order, a)) == toggles, (entry.name, order)
            expected = (-1) ** (P.n + toggles)
            done = 0
            for _ in range(40):
                try:
                    det = rsk_jacobian_det(P, random_filling(P.n, rng), order, analysis=a)
                except NonGenericPoint:
                    continue
                assert det == expected, (entry.name, order)
                signs.add(det)
                done += 1
                if done == 3:
                    break
            assert done == 3, entry.name
    assert signs == {1, -1}


def test_jacobian_rejects_ties():
    P = young((2, 2))
    with pytest.raises(NonGenericPoint):
        rsk_jacobian_det(P, (1, 1, 1, 1))


def _refusal_mismatches(posets, seed, orders, count):
    """Where ``rsk_jacobian_det`` and ``_choices`` disagree, and each poset's outcomes.

    Per poset, under the stable order and ``orders`` random ones, on
    ``count`` ``random_filling`` draws each: the Jacobian must raise
    ``NonGenericPoint`` exactly when ``_choices`` does on the same labels
    and program, and otherwise return (-1)^(n + len(trace)).
    """
    rng = Random(seed)
    mismatches = []
    outcomes: dict[str, Counter] = {}
    for name, P in posets:
        a = analyze(P)
        seen = outcomes.setdefault(name, Counter())
        for order in (None, *(random_descending_extension(P, rng) for _ in range(orders))):
            program = _program(P, order, a)
            for _ in range(count):
                t = random_filling(P.n, rng)
                labels, _ = exact_labels(t, P.n, "filling", "elements")
                try:
                    trace, _ = _choices(labels, program)
                    expected = (-1) ** (P.n + len(trace))
                except NonGenericPoint:
                    expected = "tie"
                try:
                    got = rsk_jacobian_det(P, t, order, analysis=a)
                except NonGenericPoint:
                    got = "tie"
                seen[expected] += 1
                if got != expected:
                    mismatches.append((name, order, t, expected, got))
    return mismatches, outcomes


def test_jacobian_refuses_exactly_the_choices_ties():
    # the Jacobian's recording-free run refuses a point iff the recording run
    # does, on the catalog, the seeded joins, Young 12x12 and d_50(1), under
    # the stable order and three random orders, on 6 fillings per order, or
    # 20 on the large two
    small = [(e.name, e.poset) for e in catalog()] + [(f"join-{i}", P) for i, P in enumerate(seeded_joins())]
    large = [("young-12x12", young((12,) * 12)), ("d50(1)", d_k_one(50))]
    mismatches, outcomes = _refusal_mismatches(small, 59, 3, 6)
    more, large_outcomes = _refusal_mismatches(large, 61, 3, 20)
    assert mismatches + more == []
    young_outcomes = large_outcomes["young-12x12"]
    assert young_outcomes["tie"] and young_outcomes.total() > young_outcomes["tie"], young_outcomes
    assert sum(seen["tie"] for seen in [*outcomes.values(), young_outcomes]) >= 80


def _min_above(labels, toggles):
    """A mutant of the strict step: the min of the upper side's candidates where the max belongs."""
    for e, ups, los in toggles:
        hi = labels[_select(labels, ups, -1)] if ups else 0
        lo = labels[_select(labels, los, -1)] if los else 0
        labels[e] = hi + lo - labels[e]


@pytest.mark.parametrize("mutant", [_toggle_all, _min_above], ids=["never-raises", "min-above"])
def test_refusal_check_catches_step_mutants(monkeypatch, mutant):
    # each mutant of the Jacobian's step refuses other points than _choices
    # on Young 12x12 and shifted 7..1, which the check above then reports
    monkeypatch.setattr(rsk_module, "_strict_step", mutant)
    posets = [("young-12x12", young((12,) * 12)), ("shifted-7..1", shifted_young((7, 6, 5, 4, 3, 2, 1)))]
    mismatches, _ = _refusal_mismatches(posets, 59, 3, 10)
    assert {name for name, *_ in mismatches} == {"young-12x12", "shifted-7..1"}


def test_order_independence_explicit(family, analyses):
    P = family["sample10"]
    a = analyses["sample10"]
    rng = Random(2)
    t = random_filling(P.n, rng)
    images = {
        rsk(P, t, random_descending_extension(P, rng), analysis=a) for _ in range(8)
    }
    assert len(images) == 1


@given(
    st.lists(
        st.fractions(min_value=0, max_value=8, max_denominator=12),
        min_size=6,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_round_trip_property(values):
    P = d_k_one(4)
    t = tuple(values)
    s = rsk(P, t)
    assert is_order_reversing(P, s)
    assert inverse_rsk(P, s) == t


def test_every_extension_gives_same_image():
    P = shifted_young((3, 2, 1))
    a = analyze(P)
    t = (3, 1, 4, 1, 5, 2)
    images = {rsk(P, t, ext, analysis=a) for ext in linear_extensions(P)}
    assert len(images) == 1
