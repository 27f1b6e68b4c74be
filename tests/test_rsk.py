from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcposets import (
    NonGenericPoint,
    Poset,
    analyze,
    d_k_one,
    diagonal_sums,
    inverse_rsk,
    is_order_reversing,
    is_stable,
    linear_extensions,
    random_filling,
    rsk,
    rsk_jacobian_det,
    shifted_young,
    stable_insertion_order,
    toggle,
    young,
)
from dcposets.classical import toggle_rpp
from dcposets.families import shifted_box_ids, young_box_ids
from dcposets.rsk import (
    _bareiss,
    compile_program,
    normalize_filling,
    random_descending_extension,
)

from conftest import chain

WORKED_ORDER = (5, 4, 2, 3, 1, 0)
WORKED_INPUT = (2, 2, 3, 4, 2, 1)
WORKED_IMAGE = tuple(Fraction(v) for v in (11, 9, 6, 7, 4, 3))


def test_toggle_isolated_negates():
    P = Poset(1)
    assert toggle(P, {0: Fraction(7)}, 0)[0] == -7


def test_toggle_is_involution():
    P = d_k_one(4)
    state = {i: Fraction(v) for i, v in enumerate((5, 3, 8, 1, 9, 2))}
    for p in range(P.n):
        twice = toggle(P, toggle(P, state, p), p)
        assert twice == state


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
    state = {k: Fraction(v) for k, v in labels.items()}
    assert toggle(P, state, 4)[4] == Fraction(4) + Fraction(6) - Fraction(5)


def test_singleton_map_is_identity():
    P = Poset(1)
    assert rsk(P, (Fraction(5, 3),)) == (Fraction(5, 3),)
    assert inverse_rsk(P, (Fraction(5, 3),)) == (Fraction(5, 3),)


def test_worked_example():
    P = d_k_one(4)
    a = analyze(P)
    image = rsk(P, WORKED_INPUT, WORKED_ORDER, analysis=a)
    assert image == WORKED_IMAGE
    assert diagonal_sums(P, a.diagonals, image) == tuple(
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


def test_zero_filling_maps_to_zero(family, analyses):
    for name, P in family.items():
        z = (Fraction(0),) * P.n
        assert rsk(P, z, analysis=analyses[name]) == z


def test_stable_order_of_chain_is_descending():
    assert stable_insertion_order(chain(4)) == (3, 2, 1, 0)


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
    stable = stable_insertion_order(P)
    assert is_stable(P, stable, intervals)


def test_diagonal_sums_partition_identity(family, analyses):
    P = family["sample10"]
    a = analyses["sample10"]
    rng = Random(1)
    zeros = diagonal_sums(P, a.diagonals, (Fraction(0),) * P.n)
    assert set(zeros) == {Fraction(0)}
    for _ in range(10):
        t = random_filling(P.n, rng)
        s = rsk(P, t, analysis=a)
        assert sum(diagonal_sums(P, a.diagonals, s), Fraction(0)) == sum(s, Fraction(0))


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
        program = compile_program(P, part, random_descending_extension(P, rng))
        for c, toggles in program:
            assert all(los != (P.n,) for e, _, los in toggles if e != c), (c, toggles)

    removals = []
    for c in P.minimal_elements():
        sub, old_ids = P.restrict([v for v in range(P.n) if v != c])
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
            neighbors = [d for d in range(part.count) if part.adjacent[dc][d]]
            rhs = t[c] + sum((small_sum(d) for d in neighbors), Fraction(0))
            assert small_sum(dc) + big_sum == rhs, (c, t)


# -- reference implementations ------------------------------------------------
#
# The dict-based insertion and the finite-difference Jacobian below are the
# straightforward forms of the kernel; the compiled integer kernel must agree
# with them value for value.


def _reference_toggle(P, state, p):
    above = [state[u] for u in P.upper_covers(p) if u in state]
    below = [state[v] for v in P.lower_covers(p) if v in state]
    out = dict(state)
    out[p] = (max(above) if above else 0) + (min(below) if below else 0) - state[p]
    return out


def _reference_insertion(P, a, order, values, trace=None, gaps=None):
    """Insert along ``order``, toggling the present diagonal in id order.

    ``trace`` receives every toggle's (element, chosen upper, chosen lower),
    -1 for absent; ``gaps`` receives the distance of each later selection
    candidate from the running best.
    """
    part = a.diagonals
    state = {}
    for c in order:
        state[c] = -values[c]
        for e in sorted(x for x in part.classes[part.diagonal_of[c]] if x in state):
            picks = []
            for covers, better in ((P.upper_covers(e), 1), (P.lower_covers(e), -1)):
                best = None
                for u in covers:
                    if u not in state:
                        continue
                    if best is None:
                        best = u
                        continue
                    if gaps is not None:
                        gaps.append(abs(state[u] - state[best]))
                    if better * (state[u] - state[best]) > 0:
                        best = u
                picks.append(-1 if best is None else best)
            if trace is not None:
                trace.append((e, *picks))
            state = _reference_toggle(P, state, e)
    return tuple(state[i] for i in range(P.n))


def _reference_inverse(P, a, order, labels):
    part = a.diagonals
    state = dict(enumerate(labels))
    out = [None] * P.n
    for c in reversed(order):
        for e in sorted(x for x in part.classes[part.diagonal_of[c]] if x in state):
            state = _reference_toggle(P, state, e)
        out[c] = -state.pop(c)
    return tuple(out)


def _det(matrix):
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def _finite_difference_det(P, a, t, order):
    """Jacobian determinant from n perturbed runs, shrinking the step until
    every run makes the base point's choices; ties raise NonGenericPoint."""
    t = normalize_filling(P.n, t)
    base_trace, gaps = [], []
    base = _reference_insertion(P, a, order, t, base_trace, gaps)
    if any(g == 0 for g in gaps):
        raise NonGenericPoint("tie between toggle candidates at the base point")
    eps = (min(gaps) if gaps else Fraction(1)) / 2**20
    for _ in range(4):
        columns = []
        for j in range(P.n):
            shifted = list(t)
            shifted[j] += eps
            trace = []
            image = _reference_insertion(P, a, order, shifted, trace)
            if trace != base_trace:
                break
            columns.append([(x - y) / eps for x, y in zip(image, base)])
        else:
            return _det([[columns[j][i] for j in range(P.n)] for i in range(P.n)])
        eps /= 2**10
    raise NonGenericPoint("could not confine the perturbation to one linearity cell")


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


def test_bareiss_matches_fraction_elimination():
    rng = Random(5)
    for n in range(7):
        for _ in range(40):
            m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                m[-1] = [x + y for x, y in zip(m[0], m[1])]  # singular
            assert _bareiss(m) == _det([[Fraction(x) for x in row] for row in m])


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
        assert det in (Fraction(1), Fraction(-1))
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
        state = {p: v for p, v in enumerate(t) if rng.random() < 0.7}
        for p in state:
            assert toggle(P, state, p) == _reference_toggle(P, state, p)


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


def test_jacobian_rejects_ties():
    P = young((2, 2))
    with pytest.raises(NonGenericPoint):
        rsk_jacobian_det(P, (1, 1, 1, 1))


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
