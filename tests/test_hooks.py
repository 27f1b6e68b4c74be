from fractions import Fraction
from itertools import islice
from random import Random

import pytest

from dcposets import (
    analyze,
    catalog,
    d_k_one,
    hook_lengths,
    hook_polynomial_eval,
    linear_extensions,
    polytope_membership,
    random_rational_point,
    young,
)
from dcposets.families import young_box_ids
from dcposets.hooks import validate_point
from dcposets.verify import PolytopeSpec

from conftest import chain


def classical_hook_length(shape, i, j):
    """Arm + leg + 1 for a 1-based cell of a partition shape."""
    arm = shape[i - 1] - j
    leg = sum(1 for row in shape[i:] if row >= j)
    return arm + leg + 1


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
    assert hook_lengths(vectors) == (1, 2, 3, 3, 4, 5)


def test_chain_hooks_count_downsets():
    a = analyze(chain(4))
    assert a.diagonals.count == 4
    assert hook_lengths(a.hook_vectors) == (1, 2, 3, 4)


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


def test_hook_vectors_nonnegative(family, analyses):
    for name in family:
        for vec in analyses[name].hook_vectors:
            assert min(vec) >= 0


def _hook_vectors_in_order(P, a, order):
    """The recursive definition of hook vectors, evaluated along ``order``."""
    tops = {iv.top: iv for iv in a.d_intervals}
    vectors = {}
    for p in order:
        iv = tops.get(p)
        if iv is None:
            vectors[p] = tuple(len(P.downset(p) & members) for members in a.diagonals.classes)
        else:
            w, z = iv.sides
            vectors[p] = tuple(
                x + y - b for x, y, b in zip(vectors[w], vectors[z], vectors[iv.bottom])
            )
    return tuple(vectors[p] for p in range(P.n))


def test_hook_vectors_order_independent(family, analyses):
    for name in ("d4", "sample10", "shifted-4.3.1"):
        P = family[name]
        a = analyses[name]
        for ext in islice(linear_extensions(P), 2):
            # ascending processing orders
            assert _hook_vectors_in_order(P, a, reversed(ext)) == a.hook_vectors


def test_hook_polynomial_eval():
    vectors = analyze(d_k_one(4)).hook_vectors
    x = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert hook_polynomial_eval((0, 0, 0, 1), x) == Fraction(1, 4)
    assert hook_polynomial_eval(vectors[5], (Fraction(1),) * 4) == 5
    assert hook_polynomial_eval(vectors[5], x) == Fraction(31, 12)
    with pytest.raises(ValueError):
        hook_polynomial_eval(vectors[5], x[:3])


def test_hook_polynomials_match_naive_sum():
    rng = Random(4)
    for entry in catalog():
        a = analyze(entry.poset)
        for _ in range(2):
            x = random_rational_point(a.diagonals.count, rng)
            naive = tuple(sum((h * xd for h, xd in zip(v, x)), Fraction(0)) for v in a.hook_vectors)
            assert a.hook_polynomials(x) == naive
            assert a.hook_polynomials(list(x)) == naive  # the remembered point


def test_points_are_exact():
    assert validate_point([Fraction(1, 2), 1], 2) == (Fraction(1, 2), Fraction(1))
    with pytest.raises(TypeError):
        validate_point([0.5, 1], 2)
    P = d_k_one(3)
    a = analyze(P)
    spec = PolytopeSpec("fillings", (0.5,) * a.diagonals.count)
    with pytest.raises(TypeError):
        polytope_membership(P, spec, (0,) * P.n, analysis=a)
