from fractions import Fraction
from random import Random

import pytest

from dcposets import (
    analyze,
    catalog,
    compute_diagonals,
    d_k_one,
    hook_lengths,
    hook_polynomial_eval,
    hook_vectors,
    indicator_of_set,
    indicator_vector,
    linear_extensions,
    random_rational_point,
    young,
)
from dcposets.families import young_box_ids

from conftest import chain


def classical_hook_length(shape, i, j):
    """Arm + leg + 1 for a 1-based cell of a partition shape."""
    arm = shape[i - 1] - j
    leg = sum(1 for row in shape[i:] if row >= j)
    return arm + leg + 1


def test_double_tailed_diamond_vectors():
    P = d_k_one(4)
    part = compute_diagonals(P)
    vectors = hook_vectors(P, part)
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
    P = chain(4)
    part = compute_diagonals(P)
    vectors = hook_vectors(P, part)
    assert part.count == 4
    assert hook_lengths(vectors) == (1, 2, 3, 4)


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


def test_hook_vectors_order_independent(family):
    for name in ("d4", "sample10", "shifted-4.3.1"):
        P = family[name]
        part = compute_diagonals(P)
        exts = []
        for ext in linear_extensions(P):
            exts.append(tuple(reversed(ext)))  # ascending processing orders
            if len(exts) == 2:
                break
        results = {hook_vectors(P, part, order=o) for o in exts}
        assert len(results) == 1


def test_indicator_vectors():
    P = d_k_one(4)
    part = compute_diagonals(P)
    assert indicator_vector(part, 0) == (1, 0, 0, 0)
    assert indicator_vector(part, 4) == (0, 1, 0, 0)
    assert indicator_of_set(part, [0, 5, 4]) == (2, 1, 0, 0)


def test_hook_polynomial_eval():
    P = d_k_one(4)
    part = compute_diagonals(P)
    vectors = hook_vectors(P, part)
    x = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert hook_polynomial_eval(indicator_vector(part, 3), x) == Fraction(1, 4)
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

