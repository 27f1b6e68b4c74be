import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice
from pathlib import Path
from random import Random

import pytest

from dcposets import (
    all_ones_point,
    analyze,
    d_k_one,
    hook_polynomial_eval,
    is_order_reversing,
    linear_extensions,
    polytope_membership,
    random_rational_point,
    rsk,
    young,
)
from dcposets import verify
from dcposets.families import young_box_ids
from dcposets.hooks import (
    _RATIONALS,
    HookProgram,
    exact_labels,
    exact_value,
    hook_integers,
    hook_numerators,
    hook_vectors,
    random_scaled_point,
    random_scaled_points,
)
from dcposets.rsk import random_filling
from dcposets.verify import PolytopeSpec

from conftest import chain, corpus, large, relabel, restrict
from oracles import _dense_numerators, _reference_hook_vectors, _reference_positive_labels, classical_hook_length


def test_double_tailed_diamond_vectors():
    vectors = analyze(d_k_one(4)).hook_vectors
    assert vectors == (
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (1, 1, 1, 1),
        (1, 2, 1, 1),
    )
    assert tuple(map(sum, vectors)) == (1, 2, 3, 3, 4, 5)


def test_chain_hooks_count_downsets():
    a = analyze(chain(4))
    assert a.diagonals.count == 4
    assert tuple(map(sum, a.hook_vectors)) == (1, 2, 3, 4)


def test_tree_hooks_are_downset_sizes(family):
    for name in ("tree-star", "tree-mixed"):
        P = family[name]
        a = analyze(P)
        for p in range(P.n):
            assert a.hook_lengths[p] == len(P.downset(p))


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 2, 1), (2, 2), (5,), (2, 2, 2, 1)])
def test_young_hooks_match_classical(shape):
    P = young(shape)
    a = analyze(P)
    ids = young_box_ids(shape)
    for (i, j), e in ids.items():
        assert a.hook_lengths[e] == classical_hook_length(shape, i, j)


def test_hook_vectors_match_reference_on_joins():
    for _, P in corpus("joins"):
        a = analyze(P)
        assert a.hook_vectors == _reference_hook_vectors(a.poset, a.diagonals, a.d_intervals)


def test_hook_program_names_elements_only():
    # a minimal element's q is empty and every other element's q is one lower
    # cover, so every id the program names is an element, 0..n-1
    posets = [e.poset for e in corpus("catalog", "joins")] + [large("young-12x12"), large("d50(1)")]
    for P in posets:
        program = analyze(P).hook_program
        for p, q, rest in program.sums:
            assert len(q) == (1 if P.lower_covers(p) else 0) and set(q) <= set(P.lower_covers(p))
            assert all(0 <= v < P.n for v in (p, *q, *rest)), (P, p)
        assert all(0 <= v < P.n for top in program.tops for v in top), P
    assert min(P.n for P in posets) == 1


def test_hook_integers_are_the_numerators():
    # hook_numerators is hook_integers on x's numerators over its least
    # common denominator, one weight per element
    rng = Random(13)
    for _, P in corpus("catalog", "joins"):
        a = analyze(P)
        x = random_rational_point(a.diagonals.count, rng)
        c, denom = exact_labels(x, len(x), "point", "diagonals")
        weights = [c[d] for d in a.diagonals.diagonal_of]
        assert hook_numerators(a.hook_program, x) == (hook_integers(a.hook_program, weights), denom)
        vectors = _reference_hook_vectors(P, a.diagonals, a.d_intervals)
        assert hook_integers(a.hook_program, weights) == _dense_numerators(vectors, x)[0]


def test_hook_vectors_nonnegative(family, analyses):
    for name in family:
        for vec in analyses[name].hook_vectors:
            assert min(vec) >= 0


def test_hook_vectors_order_independent(family, analyses):
    for name in ("d4", "sample10", "shifted-4.3.1"):
        P = family[name]
        a = analyses[name]
        for ext in islice(linear_extensions(P), 2):
            # ascending processing orders
            assert _reference_hook_vectors(P, a.diagonals, a.d_intervals, reversed(ext)) == a.hook_vectors


def test_hook_polynomial_eval():
    vectors = analyze(d_k_one(4)).hook_vectors
    x = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert hook_polynomial_eval((0, 0, 0, 1), x) == Fraction(1, 4)
    assert hook_polynomial_eval(vectors[5], (Fraction(1),) * 4) == 5
    assert hook_polynomial_eval(vectors[5], x) == Fraction(31, 12)
    with pytest.raises(ValueError):
        hook_polynomial_eval(vectors[5], x[:3])


def test_hook_edges_refuse_floats():
    a = analyze(d_k_one(4))
    with pytest.raises(TypeError):
        a.hook_polynomials([0.5] * 4)
    with pytest.raises(TypeError):
        a.hook_polynomials([Fraction(1), 1, 1, 0.5])
    with pytest.raises(TypeError):
        hook_polynomial_eval((1, 0, 0, 0), (0.5, 1, 1, 1))
    assert a.hook_polynomials([1, 1, 1, 1]) == tuple(map(Fraction, a.hook_lengths))
    assert hook_polynomial_eval((1, 2, 0, 0), (1, Fraction(1, 2), 3, 3)) == 2


def test_hook_polynomials_match_naive_sum():
    rng = Random(4)
    for entry in corpus("catalog"):
        a = analyze(entry.poset)
        for _ in range(2):
            x = random_rational_point(a.diagonals.count, rng)
            vectors = _reference_hook_vectors(a.poset, a.diagonals, a.d_intervals)
            naive = tuple(sum((h * xd for h, xd in zip(v, x)), Fraction(0)) for v in vectors)
            assert a.hook_polynomials(x) == naive
            assert a.hook_polynomials(list(x)) == naive


def _lcm_hook_eval(vector, x):
    """H(x) over the nonzero entries only, as integers over the lcm of their denominators."""
    terms = [(h, x[d]) for d, h in enumerate(vector) if h]
    denom = math.lcm(*(xd.denominator for _, xd in terms))
    return Fraction(sum(h * xd.numerator * (denom // xd.denominator) for h, xd in terms), denom)


def test_integer_hooks_match_per_element_lcm():
    rng = Random(11)
    for entry in corpus("catalog"):
        P = entry.poset
        a = analyze(P)
        count = a.diagonals.count
        vectors = _reference_hook_vectors(a.poset, a.diagonals, a.d_intervals)
        points = [all_ones_point(count)] + [random_rational_point(count, rng) for _ in range(3)]
        for x in points:
            expected = tuple(_lcm_hook_eval(v, x) for v in vectors)
            assert a.hook_polynomials(x) == expected, (entry.name, x)
            assert tuple(hook_polynomial_eval(v, x) for v in vectors) == expected
            hooks, denom, cover_pairs = verify._polytope(P, PolytopeSpec("fillings", x), a)
            assert (hooks, denom) == exact_labels(expected, P.n, "filling", "elements"), (entry.name, x)
            assert cover_pairs == []


def test_hook_program_matches_dense_vectors_on_catalog():
    rng = Random(12)
    for entry in corpus("catalog"):
        relabelled = relabel(entry.poset, rng)
        for P in (entry.poset, relabelled):
            a = analyze(P)
            vectors = _reference_hook_vectors(a.poset, a.diagonals, a.d_intervals)
            assert a.hook_vectors == vectors, entry.name
            count = a.diagonals.count
            points = [all_ones_point(count)] + [random_rational_point(count, rng) for _ in range(3)]
            for x in points:
                expected = _dense_numerators(vectors, x)
                assert hook_numerators(a.hook_program, x) == expected, (entry.name, x)


SCALE = ("chain-2000", "d1000(1)", "young-12x12")


@pytest.mark.parametrize("name", SCALE)
def test_hook_program_matches_dense_vectors_at_scale(name):
    a = analyze(large(name))
    vectors = _reference_hook_vectors(a.poset, a.diagonals, a.d_intervals)
    assert a.hook_vectors == vectors
    x = random_rational_point(a.diagonals.count, Random(name))
    assert hook_numerators(a.hook_program, x) == _dense_numerators(vectors, x)


@pytest.mark.parametrize("name", ["catalog", *SCALE])
def test_hook_lengths_match_dense_vectors(name):
    posets = [e.poset for e in corpus(name)] if name == "catalog" else [large(name)]
    for P in posets:
        a = analyze(P)
        assert a.hook_lengths == tuple(map(sum, a.hook_vectors))


@pytest.mark.parametrize("name", ["chain-2000", "d2000(1)"])
def test_dense_hook_vectors_at_n_2000_are_fast(name):
    # the per-class mask recursion took 0.4-0.7 s on chain-2000 and
    # 0.8-1.3 s on d2000(1) on a 2-core box
    a = analyze(large(name))
    a.axiom_report, a.diagonals
    start = time.perf_counter()
    vectors = a.hook_vectors
    assert time.perf_counter() - start < 1.0
    assert a.hook_lengths == tuple(map(sum, vectors))


def test_packed_hook_vectors_take_64_bit_fields():
    # a chain's downset counts on one diagonal: past n = 2^16 every entry
    # needs a 64-bit field, and entries above 2^16 must come back whole
    n = 70_000
    sums = tuple((p, (p - 1,) if p else (), ()) for p in range(n))
    program = HookProgram((0,) * n, 1, sums, ())
    assert hook_vectors(program) == tuple((p + 1,) for p in range(n))


def _downset_sizes(P):
    return [P.downset_mask(p).bit_count() for p in range(P.n)]


def _corner_sum(P, lengths):
    """Sum over P's minimal elements m of prod lengths(P) / prod lengths(P - m).

    Every linear extension starts with a minimal element, so e(P) is the
    sum of the e(P - m), and the hook length formula on P and on each
    P - m makes the sum n.  P - m is an order filter of P, so the
    detector must also accept it as d-complete.
    """
    whole = math.prod(lengths(P))
    total = Fraction(0)
    for m in P.minimal_elements():
        Q, _ = restrict(P, [p for p in range(P.n) if p != m])
        assert analyze(Q).axiom_report.is_d_complete, m
        total += Fraction(whole, math.prod(lengths(Q)))
    return total


@pytest.mark.parametrize("name", ["catalog", "joins", "young-12.10.8.6.4.2"])
def test_corner_recursion(name):
    # 25 of the 60 joins are past IDEAL_LIMIT, where criterion 1 cannot run
    posets = [e.poset for e in corpus(name)] if name in ("catalog", "joins") else [large(name)]
    for P in posets:
        assert _corner_sum(P, lambda Q: analyze(Q).hook_lengths) == P.n


def test_corner_recursion_catches_downset_sizes_as_hooks():
    posets = [e.poset for e in corpus("catalog")]
    differ = [P for P in posets if list(analyze(P).hook_lengths) != _downset_sizes(P)]
    assert len(differ) == 46
    assert all(_corner_sum(P, _downset_sizes) != P.n for P in differ)


def test_hook_lengths_on_a_long_chain_are_fast():
    # summing the dense hook vectors took 0.4-0.6 s here
    a = analyze(large("chain-2000"))
    a.hook_program
    start = time.perf_counter()
    lengths = a.hook_lengths
    assert time.perf_counter() - start < 0.05
    assert lengths == tuple(range(1, 2001))


def test_hook_polynomials_on_a_long_chain_are_fast():
    # the second call is timed in a fresh interpreter, so what earlier tests
    # leave alive in this process does not move it
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1])\n"
        "from random import Random\n"
        "from dcposets import Poset, analyze, random_rational_point\n"
        "a = analyze(Poset(2000, [(i, i + 1) for i in range(1999)]))\n"
        "x = random_rational_point(a.diagonals.count, Random(2000))\n"
        "a.hook_polynomials(x)\n"
        "start = time.perf_counter()\n"
        "a.hook_polynomials(x)\n"
        "print(time.perf_counter() - start)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.02
    a = analyze(large("chain-2000"))
    x = random_rational_point(a.diagonals.count, Random(2000))
    # element p of the chain is diagonal p, and its hook is x_0 + ... + x_p
    assert a.hook_polynomials(x) == tuple(accumulate(x))


def test_hook_polynomials_reject_a_short_point():
    for P in (d_k_one(4), young((3, 2)), chain(3)):
        a = analyze(P)
        x = random_rational_point(a.diagonals.count, Random(0))
        with pytest.raises(ValueError):
            a.hook_polynomials(x[:-1])


class Half(Fraction):
    pass


def test_points_are_exact():
    assert exact_labels([Fraction(1, 2), 1], 2, "point", "diagonals") == ([1, 2], 2)
    with pytest.raises(TypeError):
        exact_labels([0.5, 1], 2, "point", "diagonals")
    with pytest.raises(TypeError):
        exact_labels([Fraction(1, 2), 0.5], 2, "point", "diagonals")
    # a Fraction is read as it is; ints and subclasses as the plain Fractions
    # they equal, and every label and the denominator are plain ints
    x = [Fraction(3, 4), Fraction(5), 2, Half(1, 2)]
    assert all(exact_value(x[i]) is x[i] for i in (0, 1))
    assert all(type(exact_value(v)) is Fraction for v in x)
    labels, denom = exact_labels(x, 4, "point", "diagonals")
    assert (labels, denom) == ([3, 20, 8, 2], 4)
    assert all(type(v) is int for v in labels) and type(denom) is int
    P = d_k_one(3)
    a = analyze(P)
    spec = PolytopeSpec("fillings", (0.5,) * a.diagonals.count)
    with pytest.raises(TypeError):
        polytope_membership(P, spec, (0,) * P.n)


def test_numpy_integers_are_read_as_python_ints():
    # a numpy integer, or a Fraction built from numpy integers, once left
    # fixed-width labels: rsk of np.int64(2**62) labels wrapped round into a
    # negative image that is not order-reversing, with a RuntimeWarning, and a
    # mix with a denominator past 2**63 raised OverflowError
    import numpy as np

    values = [np.int64(2**62), Fraction(np.int64(1), np.int64(3)), np.uint8(7), Fraction(1, 2**70)]
    labels, denom = exact_labels(values, 4, "filling", "elements")
    assert all(type(v) is int for v in labels) and type(denom) is int
    assert (labels, denom) == exact_labels([2**62, Fraction(1, 3), 7, Fraction(1, 2**70)], 4, "filling", "elements")
    P = d_k_one(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        image = rsk(P, [np.int64(2**62)] * P.n)
    assert image == rsk(P, [2**62] * P.n)
    assert is_order_reversing(P, image)


def test_point_sign_is_the_numerator_sign():
    # zero, negative, int and Fraction-subclass entries: same labels, same errors
    cases = [
        [Fraction(1, 2), 3],
        [Fraction(0), 1],
        [0, Fraction(1, 3)],
        [Fraction(-1, 2), 1],
        [-2, 1],
        [Half(-1, 2), 1],
        [Half(0, 5), 1],
        [Half(3, 7), True],
        [Fraction(7, -3), 1],
        [1, 2, 3],
    ]
    for x in cases:
        try:
            expected = _reference_positive_labels(x, 2)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                verify._positive_labels(x, 2)
            assert str(caught.value) == str(exc), x
            continue
        assert verify._positive_labels(x, 2) == expected, x
    with pytest.raises(ValueError, match="^diagonal values must be strictly positive$"):
        verify._positive_labels([Half(-1, 2), 1], 2)


def test_mapping_points_are_read_by_id():
    # keyed 1..4, the point was once read by the order of its keys, as
    # (1, 2, 3, 4): a weight sum of 1/15120 and hooks (1, 3, 6, 7, 10, 12);
    # keyed 0..3, it is the tuple
    P = d_k_one(4)
    a = analyze(P)
    x = (1, 2, 3, 4)
    edges = {
        "weight_sum": lambda x: verify.weight_sum(P, a.diagonals, x),
        "hook_polynomials": a.hook_polynomials,
        "hook_polynomial_eval": lambda x: hook_polynomial_eval(a.hook_vectors[0], x),
        "polytope_membership": lambda x: polytope_membership(P, PolytopeSpec("rpp", x), (Fraction(1, 24),) * 6),
    }
    for name, edge in edges.items():
        with pytest.raises(ValueError, match=r"^point is missing diagonals \[0\]$"):
            edge({d + 1: v for d, v in enumerate(x)})
        assert edge(dict(enumerate(x))) == edge(x), name
    assert edges["weight_sum"](x) == Fraction(1, 15120)
    assert edges["hook_polynomials"](x) == (1, 3, 6, 7, 10, 12)
    assert edges["hook_polynomial_eval"](x) == 1
    assert edges["polytope_membership"](x) is True


def test_random_points_keep_their_draws():
    # one getrandbits(8 * count), decoded as the batched draw decodes it: the
    # point is column 0 of a one-trial batch over that column's denominator;
    # 200 is chain-200's weight point count in the exact benchmark
    for count in (0, 1, 2, 9, 200):
        for seed in range(20):
            twin = Random(seed)
            column = random_scaled_points(count, 1, twin)[:, 0].tolist()
            (pairs,) = _byte_points(count, 1, Random(seed))
            denom = math.lcm(*(d for _, d in pairs))
            expected = tuple(Fraction(v, denom) for v in column)
            for draw in (random_rational_point, random_filling):
                rng = Random(seed)
                point = draw(count, rng)
                assert point == expected
                assert all(type(v) is Fraction for v in point)
                assert rng.getstate() == twin.getstate()
    assert len(_RATIONALS) == 256
    for v in range(1, 17):
        for d in range(1, 17):
            assert _RATIONALS[16 * (v - 1) + d - 1] == Fraction(v, d)


def test_scaled_point_is_the_rational_point_over_its_denominator():
    # the integer decoder reads the same bytes as random_rational_point, so
    # on a twin stream it gives that point's labels over its least common
    # denominator, draw after draw, and leaves the stream where it leaves it
    for count in (0, 1, 8, 64):
        for seed in range(10):
            rng, twin = Random(seed), Random(seed)
            for _ in range(5):
                labels, denom = random_scaled_point(count, rng)
                assert (labels, denom) == exact_labels(random_rational_point(count, twin), count, "point", "diagonals")
                assert all(type(v) is int for v in labels) and type(denom) is int
                assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize(
    "draw, error, message",
    [
        (partial(random_rational_point, -2), ValueError, r"^coordinate count must be at least 0, got -2$"),
        (partial(random_rational_point, 2.0), TypeError, r"^coordinate count must be an int, not float 2\.0$"),
        (partial(random_rational_point, "2"), TypeError, r"^coordinate count must be an int, not str '2'$"),
        (partial(random_scaled_point, -2), ValueError, r"^coordinate count must be at least 0, got -2$"),
        (partial(random_scaled_point, 2.0), TypeError, r"^coordinate count must be an int, not float 2\.0$"),
        # these three leaked getrandbits' own errors; zero trials stay an empty
        # draw (test_batched_points_keep_their_draw)
        (partial(random_scaled_points, -1, 3), ValueError, r"^coordinate count must be at least 0, got -1$"),
        (partial(random_scaled_points, 2, -2), ValueError, r"^trials must be at least 0, got -2$"),
        (partial(random_scaled_points, 2, 1.5), TypeError, r"^trials must be an int, not float 1\.5$"),
        # all_ones_point takes no rng, and reads its count as the draws do
        (lambda rng: all_ones_point(-1), ValueError, r"^coordinate count must be at least 0, got -1$"),
        (lambda rng: all_ones_point(True), TypeError, r"^coordinate count must be an int, not bool True$"),
        (lambda rng: all_ones_point(2.0), TypeError, r"^coordinate count must be an int, not float 2\.0$"),
        (lambda rng: all_ones_point("3"), TypeError, r"^coordinate count must be an int, not str '3'$"),
    ],
    ids=[
        "negative",
        "float",
        "str",
        "point-negative",
        "point-float",
        "scaled-negative-count",
        "scaled-negative-trials",
        "scaled-float-trials",
        "ones-negative",
        "ones-bool",
        "ones-float",
        "ones-str",
    ],
)
def test_random_points_refuse_bad_counts(draw, error, message):
    rng = Random(0)
    state = rng.getstate()
    with pytest.raises(error, match=message):
        draw(rng)
    assert rng.getstate() == state


def _byte_points(count, trials, rng):
    """The batched draw decoded byte by byte: per point, its (numerator, denominator) pairs."""
    bits = rng.getrandbits(8 * count * trials)
    points = []
    for trial in range(trials):
        point = []
        for p in range(count):
            byte = (bits >> 8 * (trial * count + p)) & 0xFF
            point.append((byte // 16 + 1, byte % 16 + 1))
        points.append(point)
    return points


class _RecordingRandom(Random):
    """A Random that records the width of every getrandbits call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def getrandbits(self, k):
        self.calls.append(k)
        return super().getrandbits(k)


def test_batched_points_keep_their_draw():
    # one getrandbits(8 * count * trials) per call: byte k is coordinate
    # k % count of point k // count, its high nibble plus 1 the numerator
    # and its low nibble plus 1 the denominator
    for count, trials in ((1, 1), (7, 100), (12, 3), (0, 5), (5, 0)):
        for seed in range(10):
            rng, oracle = _RecordingRandom(seed), Random(seed)
            labels = random_scaled_points(count, trials, rng)
            expected = _byte_points(count, trials, oracle)
            assert rng.calls == [8 * count * trials]
            assert rng.getstate() == oracle.getstate()
            assert labels.shape == (count, trials)
            for j, point in enumerate(expected):
                denom = math.lcm(*(d for _, d in point))
                column = labels[:, j].tolist()
                assert all(type(v) is int for v in column)
                assert column == [v * (denom // d) for v, d in point]
    # the 256 byte values decode to the 256 (numerator, denominator) pairs of
    # 1..16 x 1..16 once each, so both are uniform on 1..16 and independent.
    # Point b is (byte b, byte 0xF0): its second coordinate is 16/1, so its
    # labels are b's numerator and 16 times b's denominator
    draw = int.from_bytes(bytes(v for b in range(256) for v in (b, 0xF0)), "little")

    class Bytes:
        def getrandbits(self, k):
            assert k == 8 * 2 * 256
            return draw

    numerators, sixteens = random_scaled_points(2, 256, Bytes()).tolist()
    pairs = [(v, w // 16) for v, w in zip(numerators, sixteens)]
    assert pairs == [(b // 16 + 1, b % 16 + 1) for b in range(256)]
    assert sorted(pairs) == [(v, d) for v in range(1, 17) for d in range(1, 17)]
