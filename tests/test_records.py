"""The package's records: NamedTuples with the reprs, equality and pickling of frozen records."""

import pickle
from fractions import Fraction

import pytest

from dcposets import analyze, catalog, d_k_one, young
from dcposets.acceptance import CriterionResult
from dcposets.catalog import CatalogEntry
from dcposets.classical import GTPattern, SSYT
from dcposets.diagonals import DiagonalFailure, DiagonalPartition, DiagonalReport
from dcposets.dstructure import (
    AxiomReport,
    AxiomViolation,
    DInterval,
    DMinusConvexSet,
    StructureFailure,
    StructureReport,
)
from dcposets.poset import mask_of
from dcposets.verify import (
    BijectionReport,
    MultivariateFailure,
    MultivariateReport,
    PolytopeSpec,
    ProctorReport,
    VolumeEstimate,
)

# (record built from positional fields, its repr as the frozen dataclasses printed it)
RECORDS = [
    (
        lambda: DInterval(4, 0, 5, (1, 2), (5, 3), (0,)),
        "DInterval(k=4, bottom=0, top=5, sides=(1, 2), neck=(5, 3), tail=(0,))",
    ),
    (
        lambda: DMinusConvexSet(3, 0, (1, 2), (), (0,)),
        "DMinusConvexSet(k=3, bottom=0, sides=(1, 2), neck=(), tail=(0,))",
    ),
    (lambda: AxiomViolation(1, (0, 1, 2)), "AxiomViolation(axiom=1, witness=(0, 1, 2))"),
    (
        lambda: AxiomReport(False, (AxiomViolation(2, (0, 3, 1)),)),
        "AxiomReport(is_d_complete=False, violations=(AxiomViolation(axiom=2, witness=(0, 3, 1)),))",
    ),
    (
        lambda: StructureFailure("unique-top", (3, 0, 1)),
        "StructureFailure(check='unique-top', witness=(3, 0, 1))",
    ),
    (lambda: StructureReport(True, ()), "StructureReport(ok=True, failures=())"),
    (
        lambda: DiagonalPartition((0, 1, 0), (frozenset({0, 2}), frozenset({1})), ((0, 1),)),
        "DiagonalPartition(diagonal_of=(0, 1, 0), classes=(frozenset({0, 2}), frozenset({1})), "
        "adjacent=((0, 1),))",
    ),
    (lambda: DiagonalFailure(4, (2, 5)), "DiagonalFailure(prop=4, witness=(2, 5))"),
    (
        lambda: DiagonalReport(False, (DiagonalFailure(1, (0,)),)),
        "DiagonalReport(ok=False, failures=(DiagonalFailure(prop=1, witness=(0,)),))",
    ),
    (
        lambda: CatalogEntry("young-2", young((2,))),
        "CatalogEntry(name='young-2', poset=Poset(n=2, covers=[(1, 0)]))",
    ),
    (
        lambda: ProctorReport(2, 3, 6, True),
        "ProctorReport(extensions=2, hook_product=3, factorial=6, ok=True)",
    ),
    (
        lambda: MultivariateFailure((Fraction(1, 2), Fraction(3)), Fraction(1), Fraction(2)),
        "MultivariateFailure(point=(Fraction(1, 2), Fraction(3, 1)), lhs=Fraction(1, 1), "
        "rhs=Fraction(2, 1))",
    ),
    (
        lambda: MultivariateReport(20, 0, 5, True, ()),
        "MultivariateReport(points=20, seed=0, extensions=5, ok=True, failures=())",
    ),
    (
        lambda: PolytopeSpec("rpp", (Fraction(1), Fraction(2, 3))),
        "PolytopeSpec(kind='rpp', x=(Fraction(1, 1), Fraction(2, 3)))",
    ),
    (
        lambda: BijectionReport(100, 7, False, ((3, "round-trip", (Fraction(1, 4),), (Fraction(1, 4),)),)),
        "BijectionReport(trials=100, seed=7, ok=False, "
        "failures=((3, 'round-trip', (Fraction(1, 4),), (Fraction(1, 4),)),))",
    ),
    (
        lambda: VolumeEstimate("fillings", 20000, 0, 4914, 1.0, 0.2457, 0.003044105040894614),
        "VolumeEstimate(kind='fillings', samples=20000, seed=0, hits=4914, box_volume=1.0, "
        "estimate=0.2457, std_error=0.003044105040894614)",
    ),
    (
        lambda: CriterionResult("counting-identity", True, ("line one", "line two")),
        "CriterionResult(name='counting-identity', ok=True, lines=('line one', 'line two'))",
    ),
    (lambda: SSYT(((1, 1, 2), (2, 3))), "SSYT(rows=((1, 1, 2), (2, 3)))"),
    (lambda: GTPattern(((3, 1), (2,))), "GTPattern(rows=((3, 1), (2,)))"),
]


@pytest.mark.parametrize("build, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_records_keep_repr_equality_and_pickling(build, text):
    record = build()
    assert repr(record) == text
    twin = build()
    assert twin is not record and twin == record and hash(twin) == hash(record)
    # keyword construction names the same fields, in the same order
    assert type(record)(**record._asdict()) == record
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == text


def test_polytope_spec_checks_its_kind():
    with pytest.raises(ValueError, match="kind must be 'fillings' or 'rpp', got 'bogus'"):
        PolytopeSpec("bogus", (Fraction(1),))
    with pytest.raises(ValueError, match="got 'Rpp'"):
        PolytopeSpec(kind="Rpp", x=(Fraction(1),))
    assert PolytopeSpec(kind="fillings", x=(Fraction(1),)).kind == "fillings"


def test_diagonal_count_is_a_property():
    part = analyze(young((3, 2))).diagonals
    assert part.count == len(part.classes) == 4
    assert isinstance(type(part).count, property)


def _shapes():
    """Every d-interval and d^- set of the catalog and two larger posets."""
    for P in [e.poset for e in catalog()] + [young((6, 5, 3)), d_k_one(12)]:
        a = analyze(P)
        yield from a.d_intervals
        yield from a.d_minus_sets


def _shifted(shape, by: int):
    """``shape`` relabelled v -> v + by, built field by field as a relabelling builds it."""
    fields = [f + by if isinstance(f, int) else tuple(v + by for v in f) for f in shape[1:]]
    return type(shape)(shape.k, *fields)


def test_member_masks_read_their_own_fields():
    shapes = list(_shapes())
    assert any(isinstance(s, DInterval) for s in shapes)
    assert any(isinstance(s, DMinusConvexSet) for s in shapes)
    for shape in shapes:
        # the finders store the mask they already know; it is the members'
        assert "member_mask" in vars(shape)
        assert shape.member_mask == mask_of(shape.members)
        # built by hand: no mask until it is read, then its own members'
        by_hand = _shifted(shape, 3)
        assert vars(by_hand) == {}
        assert by_hand.member_mask == mask_of(by_hand.members) == shape.member_mask << 3
        assert vars(by_hand) == {"member_mask": by_hand.member_mask}
        # a _replace copy computes its mask from its new fields
        moved = shape._replace(tail=shape.tail[:-1] + (99,))
        assert vars(moved) == {}
        expected = shape.member_mask ^ 1 << shape.bottom | 1 << 99
        assert moved.member_mask == mask_of(moved.members) == expected
        copy = pickle.loads(pickle.dumps(shape))
        assert copy == shape and copy.member_mask == shape.member_mask


def test_member_mask_is_computed_once(monkeypatch):
    from dcposets import dstructure

    calls = []
    monkeypatch.setattr(dstructure, "mask_of", lambda ids: calls.append(ids) or mask_of(ids))
    iv = DInterval(3, 0, 3, (1, 2), (3,), (0,))
    assert iv.member_mask == iv.member_mask == 0b1111
    assert len(calls) == 1
