from fractions import Fraction
from functools import cache, partial
from random import Random

import pytest

from dcposets import (
    NonGenericPoint,
    Poset,
    analyze,
    builtin_poset,
    catalog,
    d_k_one,
    shifted_young,
    tree,
    verify,
    young,
)
from dcposets.catalog import CatalogEntry
from dcposets.poset import bits, mask_of, order_ideal_masks
from dcposets.rsk import _toggle_all


def chain(n: int) -> Poset:
    return Poset(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return Poset(n, [])


def lt(P: Poset, a: int, b: int) -> bool:
    return a != b and P.leq(a, b)


def shifted_box_ids(shape) -> dict[tuple[int, int], int]:
    """Map (row, column) (1-based) to the element id used by ``shifted_young``.

    Boxes are numbered row-major, and row i starts at column i.
    """
    boxes = [(i, j) for i, row in enumerate(shape, start=1) for j in range(i, i + row)]
    return {box: e for e, box in enumerate(boxes)}


def random_shape(rng, max_boxes: int, strict: bool = False) -> tuple[int, ...]:
    """A random Young shape (distinct rows when ``strict``) of at most ``max_boxes`` boxes."""
    while True:
        if strict:
            rows = rng.sample(range(1, 13), rng.randint(1, 8))
        else:
            rows = [rng.randint(1, 10) for _ in range(rng.randint(1, 10))]
        if sum(rows) <= max_boxes:
            return tuple(sorted(rows, reverse=True))


def join(P: Poset, Q: Poset, y: int) -> Poset:
    """P with Q hung below y: Q's top becomes a new lower cover of y, and Q's ids follow P's."""
    (top,) = (q for q in range(Q.n) if not Q.upper_covers(q))
    pairs = [*P.covers, *((a + P.n, b + P.n) for a, b in Q.covers), (top + P.n, y)]
    return Poset(P.n + Q.n, pairs)


# The test corpus, defined once: the tiers ``catalog`` and ``joins`` by
# ``corpus``, and the large posets by ``large``.  They hand out posets, never
# analyses, so no analysis outlives the test that holds it, and a test that
# patches a package seam still derives everything afresh.

JOINS_SEED = 21
JOINS_COUNT = 60


@cache
def seeded_joins() -> tuple[CatalogEntry, ...]:
    """The joins tier: 60 d-complete posets grown by joins of catalog pieces
    with at most 6 elements, named ``join-0`` to ``join-59``.

    Each starts from a random piece and tries 2..10 joins, each hanging a
    random piece below a random element; a join is kept when it is
    d-complete.  Only posets that took at least one join are kept.
    """
    rng = Random(JOINS_SEED)
    pieces = [e.poset for e in catalog() if e.poset.n <= 6]
    out: list[Poset] = []
    while len(out) < JOINS_COUNT:
        P = start = rng.choice(pieces)
        for _ in range(rng.randint(2, 10)):
            joined = join(P, rng.choice(pieces), rng.randrange(P.n))
            if analyze(joined).is_d_complete:
                P = joined
        if P is not start:
            out.append(P)
    return tuple(CatalogEntry(f"join-{i}", P) for i, P in enumerate(out))


TIERS = {"catalog": catalog, "joins": seeded_joins}


def corpus(*tiers: str) -> list[CatalogEntry]:
    """The named tiers, in the order given; ``acceptance.prepare`` takes the list as it is."""
    return [entry for tier in tiers for entry in TIERS[tier]()]


# every large poset a test builds by name: Young r x c has r rows of c boxes
RECTANGLES = ((4, 4), (5, 5), (6, 5), (6, 6), (8, 6), (8, 8), (10, 10), (12, 12), (30, 30), (50, 50))
LARGE = {
    **{f"young-{r}x{c}": partial(young, (c,) * r) for r, c in RECTANGLES},
    "young-5.4.3.2": partial(young, (5, 4, 3, 2)),
    "young-12.10.8.6.4.2": partial(young, (12, 10, 8, 6, 4, 2)),
    **{f"shifted-{k}..1": partial(shifted_young, tuple(range(k, 0, -1))) for k in (7, 8, 12, 40, 60)},
    **{f"d{k}(1)": partial(d_k_one, k) for k in (50, 200, 1000, 2000)},
    **{f"chain-{n}": partial(chain, n) for n in (200, 300, 1200, 2000)},
}


def large(name: str) -> Poset:
    """A fresh build of the large poset ``name`` on every call."""
    return LARGE[name]()


# the catalog posets a mutant test runs on: seven have a side with two
# candidates, and tree-0 has none
MUTANT_POSETS = ("d4", "d5", "young-3.2", "young-3.3.2", "shifted-4.2", "shifted-4.3.1", "sample10", "tree-0")


def is_adjacent(part, c: int, d: int) -> bool:
    """Whether diagonals c and d of the partition are adjacent."""
    return (min(c, d), max(c, d)) in part.adjacent


def restrict(P: Poset, members) -> tuple[Poset, tuple[int, ...]]:
    """Induced subposet on ``members``, with the old ids listed by new id."""
    keep = sorted(set(members))
    index = {old: new for new, old in enumerate(keep)}
    pairs = [(index[a], index[b]) for a in keep for b in keep if a != b and P.leq(a, b)]
    names = {index[o]: nm for o, nm in P.names.items() if o in index}
    return Poset(len(keep), pairs, names), tuple(keep)


def upper_set_masks(P: Poset):
    """All upper-set bitmasks (complements of downsets), empty included."""
    full = (1 << P.n) - 1
    for ideal in order_ideal_masks(P):
        yield full ^ ideal


def is_convex(P: Poset, members) -> bool:
    """All-pairs convexity: every interval between two members stays inside."""
    m = mask_of(members)
    for a in bits(m):
        for b in bits(P.upset_mask(a) & m):
            if P.interval_mask(a, b) & ~m:
                return False
    return True


def is_isomorphic(P: Poset, Q: Poset) -> bool:
    """Brute-force isomorphism test, intended for small posets only."""
    if P.n != Q.n or len(P.covers) != len(Q.covers):
        return False

    def signature(R: Poset, v: int) -> tuple[int, int, int, int]:
        return (
            bin(R.upset_mask(v)).count("1"),
            bin(R.downset_mask(v)).count("1"),
            len(R.upper_covers(v)),
            len(R.lower_covers(v)),
        )

    sig_p = [signature(P, v) for v in range(P.n)]
    sig_q = [signature(Q, v) for v in range(Q.n)]
    if sorted(sig_p) != sorted(sig_q):
        return False

    mapping = [-1] * P.n
    used = [False] * Q.n

    def rec(i: int) -> bool:
        if i == P.n:
            return True
        for q in range(Q.n):
            if used[q] or sig_q[q] != sig_p[i]:
                continue
            if all(
                P.leq(j, i) == Q.leq(mapping[j], q) and P.leq(i, j) == Q.leq(q, mapping[j])
                for j in range(i)
            ):
                mapping[i] = q
                used[q] = True
                if rec(i + 1):
                    return True
                used[q] = False
                mapping[i] = -1
        return False

    return rec(0)


def _double_where_first_denominator_is_even(monkeypatch):
    """The c2 mutant: a weight sum doubled where the point's first coordinate
    has an even denominator, both in ``verify.weight_sum`` (the point loop's
    seam) and in ``verify.fold_columns`` (criterion 2's), whose rows are the
    points ``verify.random_scaled_point`` drew last, in order."""
    weight_sum, draw, fold = verify.weight_sum, verify.random_scaled_point, verify.fold_columns
    drawn = []

    def doubled_weight_sum(P, part, x, *args, **kwargs):
        value = weight_sum(P, part, x, *args, **kwargs)
        return 2 * value if x[0].denominator % 2 == 0 else value

    def recorded_draw(count, rng):
        labels, denom = draw(count, rng)
        drawn.append(Fraction(labels[0], denom))
        return labels, denom

    def doubled_fold(lattice, rows):
        points = drawn[-len(rows) :]
        drawn.clear()
        return [
            (2 * total if x.denominator % 2 == 0 else total, product)
            for x, (total, product) in zip(points, fold(lattice, rows))
        ]

    monkeypatch.setattr(verify, "weight_sum", doubled_weight_sum)
    monkeypatch.setattr(verify, "random_scaled_point", recorded_draw)
    monkeypatch.setattr(verify, "fold_columns", doubled_fold)


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


def _min_above(labels, toggles):
    """A mutant of the strict step: the min of the upper side's candidates where the max belongs."""
    for e, ups, los in toggles:
        hi = labels[_select(labels, ups, -1)] if ups else 0
        lo = labels[_select(labels, los, -1)] if los else 0
        labels[e] = hi + lo - labels[e]


def _max_below_step(labels, toggles, top=max, bottom=min):
    """A wrong step function: the lower side is read with the max, as the upper side is."""
    _toggle_all(labels, toggles, top, top)


def _first_candidate_step(labels, toggles, top=max, bottom=min):
    """A wrong step function: each side is read at its first candidate only."""
    _toggle_all(labels, [(e, ups[:1], los[:1]) for e, ups, los in toggles], top, bottom)


def _random_perm(n, rng) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _renumber(P, perm):
    """P with each element v renumbered perm[v]."""
    return Poset(P.n, [(perm[a], perm[b]) for a, b in P.covers])


def relabel(P, rng):
    """P with its elements renumbered by a random permutation drawn from ``rng``."""
    return _renumber(P, _random_perm(P.n, rng))


FAMILY = {
    "singleton": chain(1),
    "chain5": chain(5),
    "antichain2": antichain(2),
    "d3": d_k_one(3),
    "d4": d_k_one(4),
    "d5": d_k_one(5),
    "d4-named": builtin_poset("d4-named"),
    "sample10": builtin_poset("sample10"),
    "young-3.2": young((3, 2)),
    "young-2.2.1": young((2, 2, 1)),
    "young-3.3": young((3, 3)),
    "shifted-3.1": shifted_young((3, 1)),
    "shifted-4.3.1": shifted_young((4, 3, 1)),
    "tree-star": tree([None, 0, 0, 0]),
    "tree-mixed": tree([None, 0, 0, 1, 1, 2]),
}


@pytest.fixture(scope="session")
def family():
    return dict(FAMILY)


@pytest.fixture(scope="session")
def analyses():
    return {name: analyze(P) for name, P in FAMILY.items()}
