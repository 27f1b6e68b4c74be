import copy
import gc
import math
import pickle
import time
from itertools import permutations
from random import Random

import pytest

from dcposets import (
    CycleError,
    analyze,
    ExtensionLimitError,
    Poset,
    count_linear_extensions,
    d_k_one,
    is_descending_extension,
    linear_extensions,
    shifted_young,
    tree,
    young,
)
from dcposets.families import young_box_ids
from dcposets.fileformats import FormatError, poset_from_text, poset_to_text
from dcposets import poset as poset_module
from dcposets.poset import IDEAL_LIMIT, compile_ideal_lattice, order_ideal_masks

from conftest import (
    antichain,
    chain,
    corpus,
    is_convex,
    is_isomorphic,
    lt,
    large,
    restrict,
    shifted_box_ids,
    upper_set_masks,
)
from oracles import _brute_force_order, _recursive_extensions, _reference_diagram


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


def test_construction_matches_brute_force_reduction():
    rng = Random(8)
    for _ in range(300):
        n = rng.randint(1, 12)
        rank = list(range(n))
        rng.shuffle(rank)
        density = rng.random()
        pairs = [
            (rank[i], rank[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density
        ]
        rng.shuffle(pairs)
        leq, covers = _brute_force_order(n, pairs)
        comparable = [(a, b) for a in range(n) for b in range(n) if a != b and leq[a][b]]
        # redundant and repeated input pairs, and every comparable pair (what restrict passes)
        for given in (pairs + pairs[: len(pairs) // 3], comparable):
            P = Poset(n, given)
            assert P.covers == covers
            for v in range(n):
                assert P.upper_covers(v) == tuple(sorted(b for a, b in covers if a == v))
                assert P.lower_covers(v) == tuple(sorted(a for a, b in covers if b == v))
                assert P.upset_mask(v) == sum(1 << b for b in range(n) if leq[v][b])
                assert P.downset_mask(v) == sum(1 << a for a in range(n) if leq[a][v])
                for b in range(n):
                    assert P.leq(v, b) == leq[v][b]
                    assert P.incomparable(v, b) == (not leq[v][b] and not leq[b][v])
            full = (1 << n) - 1
            assert P.minimal_elements() == P.minimal_in_mask(full) == tuple(
                v for v in range(n) if not any(leq[a][v] for a in range(n) if a != v)
            )
            assert P.maximal_in_mask(full) == tuple(
                v for v in range(n) if not any(leq[v][b] for b in range(n) if b != v)
            )


def test_cycle_detection():
    with pytest.raises(CycleError) as err:
        Poset(3, [(0, 1), (1, 2), (2, 0)])
    assert set(err.value.cycle) == {0, 1, 2}
    with pytest.raises(CycleError):
        Poset(1, [(0, 0)])


def test_one_shot_pairs_build_the_same_poset():
    # each pair is unpacked once: a pair given as a one-shot iterator was
    # consumed by the id check and then read again, empty, by the construction
    pairs = [(0, 1), (1, 2), (0, 2), (3, 1)]
    assert Poset(4, [iter(pair) for pair in pairs]) == Poset(4, pairs)
    assert Poset(3, [iter((0, 1))]) == Poset(3, [(0, 1)])
    assert Poset(2, (iter(pair) for pair in [(0, 1), (0, 1)])).covers == {(0, 1)}


def test_bad_ids_rejected():
    with pytest.raises(ValueError):
        Poset(2, [(0, 5)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Poset(3, [(0, 1.0)]), r"cover pair ids must be int, not float 1\.0"),
        (lambda: Poset(3, [(0, 1), ("2", 1)]), r"cover pair ids must be int, not str '2'"),
        (lambda: tree([None, 0.0]), r"cover pair ids must be int, not float 0\.0"),
        (lambda: Poset(2.0), r"element count must be an int, not float 2\.0"),
        (lambda: Poset(None), r"element count must be an int, not NoneType None"),
        (lambda: Poset(2, [(0, 1)], names={1.0: "b"}), r"named element ids must be int, not float 1\.0"),
        (lambda: Poset(2, [(0, 1)], {0: 5}), r"name of element 0 must be str, not int 5"),
    ],
    ids=["float-pair", "str-pair", "float-parent", "float-count", "none-count", "float-name", "int-name"],
)
def test_non_int_ids_raise_typed_errors(build, message):
    # a float id equal to an element passed the range checks and then leaked
    # list indexing's or range's own TypeError; a name that is not a str was
    # kept and refused only when the poset was written
    with pytest.raises(TypeError, match=f"^{message}$"):
        build()


# every public query method of a Poset, with the arguments it takes: element
# ids, or one bitmask of elements
ID_QUERIES = {
    "leq": 2,
    "incomparable": 2,
    "upper_covers": 1,
    "lower_covers": 1,
    "upset_mask": 1,
    "downset_mask": 1,
    "downset": 1,
    "interval_mask": 2,
    "interval": 2,
}
MASK_QUERIES = ("minimal_in_mask", "maximal_in_mask")


@pytest.mark.parametrize("bad", ["-1", "n", "True", "1.0"])
@pytest.mark.parametrize("method", [*ID_QUERIES, *MASK_QUERIES])
def test_queries_refuse_what_is_no_id(method, bad):
    # a negative id once answered for element n - 1, an id at n or a mask
    # with a bit past n - 1 raised IndexError, and True and 1.0 passed as 1;
    # now each argument slot refuses them, with the error of _require_ids
    # (or, for a mask, of its count reader), whichever slot holds the bad one
    P = d_k_one(4)
    n = P.n
    query = getattr(P, method)
    if method in MASK_QUERIES:
        value = {"-1": -1, "n": 1 << n | 1, "True": True, "1.0": 1.0}[bad]
        kind, message = {
            "-1": (ValueError, r"^mask must be at least 0, got -1$"),
            "n": (ValueError, r"^mask has a bit at or past n = 6: 0x41$"),
            "True": (TypeError, r"^mask must be an int, not bool True$"),
            "1.0": (TypeError, r"^mask must be an int, not float 1\.0$"),
        }[bad]
        with pytest.raises(kind, match=message):
            query(value)
        return
    value = {"-1": -1, "n": n, "True": True, "1.0": 1.0}[bad]
    kind, message = {
        "-1": (ValueError, r"^element id outside 0\.\.5: \[-1\]$"),
        "n": (ValueError, r"^element id outside 0\.\.5: \[6\]$"),
        "True": (TypeError, r"^element id must be int, not bool True$"),
        "1.0": (TypeError, r"^element id must be int, not float 1\.0$"),
    }[bad]
    for slot in range(ID_QUERIES[method]):
        args = [0] * ID_QUERIES[method]
        args[slot] = value
        with pytest.raises(kind, match=message):
            query(*args)


def test_interval():
    C = chain(3)
    assert C.interval(0, 2) == {0, 1, 2}
    assert C.interval(1, 1) == {1}
    with pytest.raises(ValueError):
        C.interval(2, 0)
    # the inner diamond of the double-tailed diamond on 6 elements
    assert d_k_one(4).interval(1, 4) == {1, 2, 3, 4}


def test_convexity():
    # the all-pairs oracle behind the brute-force d^- scans of test_dstructure
    C = chain(3)
    assert is_convex(C, {0, 1, 2})
    assert is_convex(C, {1})
    assert not is_convex(C, {0, 2})
    named = d_k_one(4)
    assert is_convex(named, named.interval(0, 4))  # tail + sides + lower neck
    assert not is_convex(named, {0, 2, 3, 4})  # drops the upper tail element


def test_extension_enumeration_basics():
    assert list(linear_extensions(antichain(2))) == [(0, 1), (1, 0)]
    exts = list(linear_extensions(d_k_one(4)))
    assert exts == [(5, 4, 2, 3, 1, 0), (5, 4, 3, 2, 1, 0)]
    for ext in exts:
        assert is_descending_extension(d_k_one(4), ext)


def test_descending_extension_matches_all_pairs_definition():
    small = [e.poset for e in corpus("catalog") if e.poset.n <= 6]
    for P in small:
        for perm in permutations(range(P.n)):
            expected = not any(lt(P, a, b) for i, a in enumerate(perm) for b in perm[i + 1 :])
            assert is_descending_extension(P, perm) == expected
    P = d_k_one(3)
    assert not is_descending_extension(P, (3, 2, 1))
    assert not is_descending_extension(P, (3, 2, 1, 1))


def test_extension_order_matches_recursive_enumeration():
    small = [e.poset for e in corpus("catalog") if e.poset.n <= 7] + [Poset(0)]
    assert len(small) > 100
    for P in small:
        assert list(linear_extensions(P)) == list(_recursive_extensions(P))


def test_long_chain_extension():
    P = large("chain-1200")
    assert list(linear_extensions(P)) == [tuple(range(1199, -1, -1))]


def test_counts():
    assert count_linear_extensions(chain(6)) == 1
    assert count_linear_extensions(d_k_one(4)) == 2
    assert count_linear_extensions(antichain(3)) == 6
    assert count_linear_extensions(large("shifted-7..1")) == 23178480


def test_ideal_limit():
    # antichain(n) has 2**n order ideals; the limit admits exactly 2**16
    assert count_linear_extensions(antichain(16)) == math.factorial(16)
    with pytest.raises(ExtensionLimitError, match="IDEAL_LIMIT"):
        count_linear_extensions(antichain(17))


REFUSAL = "poset has more than IDEAL_LIMIT = 65536 order ideals; refusing"


def _random_poset(rng, n):
    rank = list(range(n))
    rng.shuffle(rank)
    density = rng.random() / 2
    pairs = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)]
    return Poset(n, [pair for pair in pairs if rng.random() < density])


def _walk_only(monkeypatch, P):
    """The lattice walk's ideal count or refusal message, with the sweep switched off."""
    with monkeypatch.context() as m:
        m.setattr(poset_module, "_frontier_ideal_count", lambda P: None)
        try:
            return len(compile_ideal_lattice(P).first)
        except ExtensionLimitError as exc:
            return str(exc)


def _sweep(P):
    try:
        return poset_module._frontier_ideal_count(P)
    except ExtensionLimitError as exc:
        return str(exc)


def test_frontier_sweep_matches_walk(monkeypatch):
    rng = Random(15)
    posets = [e.poset for e in corpus("catalog")]
    posets += [_random_poset(rng, rng.randint(1, 14)) for _ in range(200)]
    posets += [large(name) for name in ("young-8x8", "shifted-12..1", "young-12x12")] + [antichain(17)]
    for P in posets:
        assert _sweep(P) == _walk_only(monkeypatch, P), P
    assert _sweep(large("young-8x8")) == 12870
    assert _sweep(large("shifted-12..1")) == 4096
    assert _sweep(large("young-12x12")) == REFUSAL


def test_chain_bound_caps_the_ideal_count():
    rng = Random(16)
    posets = [e.poset for e in corpus("catalog")]
    posets += [_random_poset(rng, rng.randint(1, 14)) for _ in range(200)]
    posets += [large("young-8x8"), large("shifted-12..1")]
    for P in posets:
        assert poset_module._chain_bound(P) >= len(compile_ideal_lattice(P).first), P
    assert poset_module._chain_bound(large("chain-2000")) == 2001
    assert poset_module._chain_bound(large("young-6x5")) <= IDEAL_LIMIT
    assert poset_module._chain_bound(large("young-12x12")) > IDEAL_LIMIT


def test_no_sweep_where_the_chain_bound_rules_out_a_refusal(monkeypatch):
    def sweep(P):
        raise AssertionError("swept a poset whose chain bound is within IDEAL_LIMIT")

    monkeypatch.setattr(poset_module, "_frontier_ideal_count", sweep)
    assert len(compile_ideal_lattice(large("chain-2000")).first) == 2001
    assert len(compile_ideal_lattice(large("young-6x5")).first) == 462
    # antichain(16) has a bound of exactly 2**16 = IDEAL_LIMIT
    assert count_linear_extensions(antichain(16)) == math.factorial(16)


def test_walk_refuses_on_a_one_wide_stretch(monkeypatch):
    # antichain(16)'s 2**16 ideals, then one more for each element of the
    # chain 16 < 17 < 18 < 19 above it, each on a level of its own; the
    # sweep spends its budget, so the walk decides
    P = Poset(20, [(i, 16) for i in range(16)] + [(16, 17), (17, 18), (18, 19)])
    assert _sweep(P) is None
    assert _walk_only(monkeypatch, P) == REFUSAL
    with pytest.raises(ExtensionLimitError, match=f"^{REFUSAL}$"):
        compile_ideal_lattice(P)


def test_young_12x12_refused_before_the_walk():
    P = large("young-12x12")
    start = time.perf_counter()
    with pytest.raises(ExtensionLimitError) as err:
        count_linear_extensions(P)
    assert time.perf_counter() - start < 0.05
    assert str(err.value) == REFUSAL


def test_sweep_budget_leaves_the_decision_to_the_walk():
    # 15 minimal elements below both T = 15 and Z = 116, and the chain
    # 16 < ... < 115 above T: the sweep takes the chain before Z, so its
    # 2**15 frontier patterns would be swept once per chain element
    pairs = [(i, t) for i in range(15) for t in (15, 116)] + [(i, i + 1) for i in range(15, 115)]
    P = Poset(117, pairs)
    assert poset_module._frontier_ideal_count(P) is None
    start = time.perf_counter()
    lattice = compile_ideal_lattice(P)
    assert time.perf_counter() - start < 0.5
    assert len(lattice.first) == 2**15 - 1 + 204 == 32971


def _chain_push_count(lattice):
    """Maximal chains of the ideal lattice: each ideal's count pushed to the ideals covering it."""
    chains = [0] * len(lattice.first)
    chains[0] = 1
    for i, successors in enumerate(lattice.successors):
        c = chains[i]
        for j in successors:
            chains[j] += c
    return chains[-1]


def test_lattice_successors_are_the_covering_ideals():
    # ideal J covers ideal I exactly when J = I + {v} for one element v, so
    # the masks of order_ideal_masks, looked up by mask, give each ideal's
    # covering ideals with no walk; successors[i] must hold those, each
    # once.  The joins are those whose chain bound proves at most 2**14
    # ideals (19 of 60): the whole corpus takes about 0.1 s
    joins = [e.poset for e in corpus("joins") if poset_module._chain_bound(e.poset) <= 2**14]
    assert len(joins) == 19
    posets = [e.poset for e in corpus("catalog")] + joins
    posets += [antichain(8), chain(50), Poset(0), Poset(3, [(0, 1), (1, 2), (0, 2)])]
    for P in posets:
        masks = list(order_ideal_masks(P))
        index = {mask: i for i, mask in enumerate(masks)}
        singles = [1 << v for v in range(P.n)]
        successors = compile_ideal_lattice(P).successors
        assert len(successors) == len(masks) and successors[-1] == (), P
        for i, mask in enumerate(masks):
            covering = sorted(index[mask | b] for b in singles if not mask & b and mask | b in index)
            assert len(set(successors[i])) == len(successors[i]), (P, i)
            assert sorted(successors[i]) == covering, (P, i)


def test_count_fold_matches_chain_push():
    posets = [e.poset for e in corpus("catalog")] + [antichain(16), large("chain-1200")]
    for P in posets:
        a = analyze(P)
        assert count_linear_extensions(P) == _chain_push_count(a.ideal_lattice), P


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
    sub, old = restrict(P, [2, 3, 4, 5])
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
    # each directive takes exactly its fields, and names the line and its form;
    # the first was once read as a 3-element chain, the others raised IndexError's text
    for text, line, form in (
        ("elements 3 7\ncover 0 1 2\ncover 1 2 junk\n", 1, "elements <n>"),
        ("elements 3\ncover 0 1 2\n", 2, "cover <lower> <upper>"),
        ("elements 3\ncover 1 2 junk\n", 2, "cover <lower> <upper>"),
        ("elements\n", 1, "elements <n>"),
        ("elements 3\ncover 0\n", 2, "cover <lower> <upper>"),
        ("elements 3\ncover 0 x\n", 2, "cover <lower> <upper>"),
        ("elements 3\nname 1\n", 2, "name <id> <text>"),
        ("elements 3\nname x low\n", 2, "name <id> <text>"),
        ("elements two\n", 1, "elements <n>"),
    ):
        with pytest.raises(FormatError, match=f"^line {line}: expected '{form}', got "):
            poset_from_text(text)
    # the writer names an element once; a second name once replaced the first
    with pytest.raises(FormatError, match="^line 3: repeated name for element 0$"):
        poset_from_text("elements 2\nname 0 a\nname 0 b\n")


def test_names_round_trip():
    P = Poset(2, [(0, 1)], {0: "low", 1: "high"})
    assert poset_from_text(poset_to_text(P)) == P
    # the rest of a name line is the name, comment cut and spaces collapsed
    P = Poset(2, [(0, 1)], {0: "low one", 1: "x=1,y=2"})
    assert poset_from_text(poset_to_text(P)) == P
    assert poset_from_text("elements 1\nname 0  low   one  # a comment\n").names == {0: "low one"}
    # a name that would read back as another, or add a line, is refused
    for name in ("x\ncover 0 1", "a#b", "two  spaces", " edge", "edge ", "tab\there", ""):
        with pytest.raises(FormatError, match="^name of element 0 does not round-trip: "):
            poset_to_text(Poset(2, [(0, 1)], {0: name}))


def test_diagram_builders_match_reference():
    shapes = 0
    for entry in corpus("catalog"):
        kind, _, parts = entry.name.partition("-")
        if kind not in ("young", "shifted"):
            continue
        shape = tuple(int(v) for v in parts.split("."))
        shifted = kind == "shifted"
        n, covers, names, ids = _reference_diagram(shape, shifted)
        P = shifted_young(shape) if shifted else young(shape)
        assert (P.n, P.covers, P.names) == (n, covers, names), entry.name
        assert (shifted_box_ids if shifted else young_box_ids)(shape) == ids, entry.name
        shapes += 1
    assert shapes > 30


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


def test_analyze_returns_the_live_analysis():
    P = young((3, 3, 1))
    a = analyze(P)
    assert analyze(P) is a
    # every derived field is built, so none of them can hold a reference back to a
    a.extension_count, a.hook_lengths, a.hook_vectors, a.insertion_program
    ref = P._analysis
    enabled = gc.isenabled()
    gc.disable()
    try:
        del a
        # freed by reference counting alone: poset and analysis form no cycle
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    fresh = analyze(P)
    assert fresh.poset is P and P._analysis() is fresh


def test_poset_pickles_and_copies_without_its_analysis():
    P = young((3, 2))
    a = analyze(P)
    a.extension_count
    for Q in (pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P)):
        assert Q == P and Q is not P and Q.names == P.names
        b = analyze(Q)
        assert b is not a and b.poset is Q
        assert b.extension_count == a.extension_count
    assert analyze(P) is a
