import math

import pytest

from dcposets import (
    CycleError,
    catalog,
    ExtensionLimitError,
    Poset,
    count_linear_extensions,
    d_k_one,
    is_descending_extension,
    is_isomorphic,
    linear_extensions,
    shifted_young,
    young,
)
from dcposets.fileformats import FormatError, poset_from_text, poset_to_text
from dcposets.poset import order_ideal_masks, upper_set_masks

from conftest import antichain, chain


def test_singleton():
    P = Poset(1)
    assert P.n == 1
    assert P.covers == frozenset()
    assert P.leq(0, 0)


def test_two_chain_closure():
    P = Poset(2, [(0, 1)])
    pairs = {(a, b) for a in range(2) for b in range(2) if P.leq(a, b)}
    assert pairs == {(0, 0), (1, 1), (0, 1)}


def test_redundant_pairs_are_reduced():
    P = Poset(3, [(0, 1), (1, 2), (0, 2)])
    assert P.covers == frozenset({(0, 1), (1, 2)})
    assert P == Poset(3, [(0, 1), (1, 2)])


def test_cycle_detection():
    with pytest.raises(CycleError) as err:
        Poset(3, [(0, 1), (1, 2), (2, 0)])
    assert set(err.value.cycle) == {0, 1, 2}
    with pytest.raises(CycleError):
        Poset(1, [(0, 0)])


def test_bad_ids_rejected():
    with pytest.raises(ValueError):
        Poset(2, [(0, 5)])


def test_interval():
    C = chain(3)
    assert C.interval(0, 2) == {0, 1, 2}
    assert C.interval(1, 1) == {1}
    with pytest.raises(ValueError):
        C.interval(2, 0)
    # the inner diamond of the double-tailed diamond on 6 elements
    assert d_k_one(4).interval(1, 4) == {1, 2, 3, 4}


def test_convexity():
    C = chain(3)
    assert C.is_convex({0, 1, 2})
    assert C.is_convex({1})
    assert not C.is_convex({0, 2})
    named = d_k_one(4)
    assert named.is_convex(named.interval(0, 4))  # tail + sides + lower neck
    assert not named.is_convex({0, 2, 3, 4})  # drops the upper tail element


def test_extension_enumeration_basics():
    assert list(linear_extensions(antichain(2))) == [(0, 1), (1, 0)]
    exts = list(linear_extensions(d_k_one(4)))
    assert exts == [(5, 4, 2, 3, 1, 0), (5, 4, 3, 2, 1, 0)]
    for ext in exts:
        assert is_descending_extension(d_k_one(4), ext)


def _recursive_extensions(P):
    """Depth-first enumeration by recursion: smallest eligible id first."""
    seq = []

    def rec(remaining):
        if not remaining:
            yield tuple(seq)
            return
        for v in range(P.n):
            low = 1 << v
            if remaining & low and P.upset_mask(v) & remaining == low:
                seq.append(v)
                yield from rec(remaining ^ low)
                seq.pop()

    return rec((1 << P.n) - 1)


def test_extension_order_matches_recursive_enumeration():
    small = [e.poset for e in catalog() if e.poset.n <= 7] + [Poset(0)]
    assert len(small) > 100
    for P in small:
        assert list(linear_extensions(P)) == list(_recursive_extensions(P))


def test_long_chain_extension():
    P = chain(1200)
    assert list(linear_extensions(P)) == [tuple(range(1199, -1, -1))]


def test_counts():
    assert count_linear_extensions(chain(6)) == 1
    assert count_linear_extensions(d_k_one(4)) == 2
    assert count_linear_extensions(antichain(3)) == 6
    assert count_linear_extensions(shifted_young((7, 6, 5, 4, 3, 2, 1))) == 23178480


def test_ideal_limit():
    # antichain(n) has 2**n order ideals; the limit admits exactly 2**16
    assert count_linear_extensions(antichain(16)) == math.factorial(16)
    with pytest.raises(ExtensionLimitError, match="IDEAL_LIMIT"):
        count_linear_extensions(antichain(17))


@pytest.mark.parametrize(
    "name",
    ["chain5", "antichain2", "d4", "d5", "sample10", "young-3.2", "shifted-4.3.1", "tree-mixed"],
)
def test_count_matches_enumeration(family, name):
    P = family[name]
    assert count_linear_extensions(P) == sum(1 for _ in linear_extensions(P))


def test_every_extension_descends(family):
    for P in family.values():
        for ext in linear_extensions(P):
            assert is_descending_extension(P, ext)
            break  # the full scan runs in test_count_matches_enumeration


def test_square_young_is_diamond():
    assert is_isomorphic(young((2, 2)), d_k_one(3))
    assert not is_isomorphic(young((2, 1)), chain(3))


def test_restrict_upper_set():
    P = d_k_one(4)
    sub, old = P.restrict([2, 3, 4, 5])
    assert old == (2, 3, 4, 5)
    assert sub.covers == frozenset({(0, 2), (1, 2), (2, 3)})


def test_ideal_and_upper_set_masks():
    P = chain(3)
    assert sorted(order_ideal_masks(P)) == [0b000, 0b001, 0b011, 0b111]
    assert sorted(upper_set_masks(P)) == [0b000, 0b100, 0b110, 0b111]
    assert len(list(order_ideal_masks(antichain(3)))) == 8


def test_generator_validation():
    with pytest.raises(ValueError):
        young((1, 2))
    with pytest.raises(ValueError):
        d_k_one(2)
    with pytest.raises(ValueError):
        young(())


def test_text_round_trip(family):
    for P in family.values():
        text = poset_to_text(P)
        again = poset_from_text(text)
        assert again == P
        assert poset_to_text(again) == text


def test_text_parsing_tolerates_comments_and_order():
    text = "# a poset\ncover 0 1\nelements 3   # trailing\n\ncover 1 2\n"
    P = poset_from_text(text)
    assert P == chain(3)


def test_text_parsing_errors():
    with pytest.raises(FormatError):
        poset_from_text("cover 0 1\n")  # no elements line
    with pytest.raises(FormatError):
        poset_from_text("elements 2\nwobble 0 1\n")
    with pytest.raises(FormatError):
        poset_from_text("elements 2\ncover 0 5\n")


def test_names_round_trip():
    P = Poset(2, [(0, 1)], {0: "low", 1: "high"})
    assert poset_from_text(poset_to_text(P)) == P


def test_sample10_cover_count():
    from dcposets import builtin_poset

    assert len(builtin_poset("sample10").covers) == 12


def test_diamond_generator_shape():
    P = d_k_one(3)
    assert P.n == 4 and len(P.covers) == 4


def test_shifted_second_example_counts():
    from dcposets import shifted_young

    P = shifted_young((5, 4, 2))
    assert P.n == 11
    assert count_linear_extensions(P) == sum(1 for _ in linear_extensions(P))


def test_order_relation_is_partial_order(family):
    for P in family.values():
        for a in range(P.n):
            assert P.leq(a, a)
            for b in range(P.n):
                if a != b and P.leq(a, b):
                    assert not P.leq(b, a)
                for c in range(P.n):
                    if P.leq(a, b) and P.leq(b, c):
                        assert P.leq(a, c)
