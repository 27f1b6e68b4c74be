import re
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcposets import analyze, classical, rsk, young
from dcposets.classical import (
    GTPattern,
    SSYT,
    _check_square_order,
    _validated_matrix,
    classical_insert_rsk,
    gt_from_rpp,
    is_rpp,
    order_from_ranks,
    row_major_order,
    ssyt_from_gt,
    toggle_rpp,
    two_line_array,
)
from dcposets.families import young_box_ids

MATRIX = [[1, 0, 2], [0, 2, 0], [1, 1, 0]]
RANKS = [[1, 2, 3], [4, 6, 8], [5, 7, 9]]


def test_two_line_array():
    assert two_line_array(MATRIX) == [
        (1, 1), (1, 3), (1, 3), (2, 2), (2, 2), (3, 1), (3, 2),
    ]


def test_two_line_array_refuses_a_biword_past_sys_maxsize():
    # an entry past sys.maxsize raised Python's OverflowError from the list
    # repeat; a biword of more than sys.maxsize pairs is refused by name,
    # before any pair is built, also where no one entry passes the limit
    for matrix in ([[10**20, 1], [1, 1]], [[2**62, 2**62]]):
        with pytest.raises(classical.BiwordLimitError, match=rf"past sys\.maxsize = {sys.maxsize} biword pairs$"):
            two_line_array(matrix)
        with pytest.raises(ValueError, match="sys.maxsize"):
            classical_insert_rsk(matrix)


def test_insertion_pair():
    p, q = classical_insert_rsk(MATRIX)
    assert p.rows == ((1, 1, 2, 2), (2, 3), (3,))
    assert q.rows == ((1, 1, 1, 3), (2, 2), (3,))


def test_zero_matrix_gives_empty_tableaux():
    p, q = classical_insert_rsk([[0, 0], [0, 0]])
    assert p.rows == () and q.rows == ()


def test_insertion_properties_random():
    rng = Random(6)
    for _ in range(50):
        matrix = [[rng.randint(0, 3) for _ in range(3)] for _ in range(3)]
        p, q = classical_insert_rsk(matrix)
        total = sum(sum(row) for row in matrix)
        assert p.size == q.size == total
        assert p.shape == q.shape


def test_toggle_rpp_single_cell():
    assert toggle_rpp([[7]]) == [[7]]


def test_toggle_rpp_pinned_example():
    rpp = toggle_rpp(MATRIX, order_from_ranks(RANKS))
    assert rpp == [[1, 2, 3], [1, 2, 3], [2, 4, 4]]
    assert is_rpp(rpp)


def _random_valid_order(shape, rng):
    remaining = set(row_major_order(shape))
    out = []
    while remaining:
        ready = [
            (i, j)
            for (i, j) in remaining
            if (i - 1, j) not in remaining and (i, j - 1) not in remaining
        ]
        out.append(ready[rng.randrange(len(ready))])
        remaining.remove(out[-1])
    return tuple(out)


def test_toggle_rpp_order_independent():
    rng = Random(8)
    shape = (3, 3, 3)
    for _ in range(20):
        matrix = [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]
        base = toggle_rpp(matrix)
        assert toggle_rpp(matrix, _random_valid_order(shape, rng)) == base


def _full_scan_toggle_rpp(matrix, order=None):
    """toggle_rpp as first written: a dict of placed cells, and every placement
    scans all of ``order`` for the placed cells of its content diagonal."""
    rows = _validated_matrix(matrix, rectangular=False)
    shape = tuple(len(r) for r in rows)
    if order is None:
        order = row_major_order(shape)
    else:
        order = tuple((i, j) for i, j in order)
    _check_square_order(shape, order)

    out: dict[tuple[int, int], int] = {}

    def read(i: int, j: int) -> int:
        return out.get((i, j), 0)

    for i, j in order:
        out[(i, j)] = max(read(i - 1, j), read(i, j - 1)) + rows[i][j]
        for x, y in order:
            if (x, y) in out and (x, y) != (i, j) and x - y == i - j:
                out[(x, y)] = (
                    max(read(x - 1, y), read(x, y - 1))
                    + min(read(x + 1, y), read(x, y + 1))
                    - out[(x, y)]
                )
    return [[out[(i, j)] for j in range(width)] for i, width in enumerate(shape)]


@pytest.mark.parametrize(
    "shape", [(1,), (5,), (1, 1, 1), (3, 2), (4, 2, 1), (2, 2, 1), (5, 3, 3, 1), (6, 4, 4, 2, 1, 1)]
)
def test_toggle_rpp_matches_the_full_scan(shape):
    # the toggles of each placement, found through the placed cells of its
    # diagonal, are the full scan's, under the default order and random ones
    rng = Random(len(shape) * 10 + shape[0])
    for _ in range(15):
        matrix = [[rng.randint(0, 4) for _ in range(width)] for width in shape]
        for order in (None, _random_valid_order(shape, rng), _random_valid_order(shape, rng)):
            assert toggle_rpp(matrix, order) == _full_scan_toggle_rpp(matrix, order), (matrix, order)


def test_toggle_rpp_rejects_bad_order():
    with pytest.raises(ValueError):
        toggle_rpp(MATRIX, ((0, 1), (0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)))
    with pytest.raises(ValueError):
        order_from_ranks([[1, 2], [2, 3]])


def test_gt_extraction_pinned():
    rpp = [[1, 2, 3], [1, 2, 3], [2, 4, 4]]
    lower, upper = gt_from_rpp(rpp)
    assert lower.rows == ((4, 2, 1), (4, 1), (2,))
    assert upper.rows == ((4, 2, 1), (3, 2), (3,))
    p, q = classical_insert_rsk(MATRIX)
    assert ssyt_from_gt(lower).rows == p.rows
    assert ssyt_from_gt(upper).rows == q.rows


def test_gt_requires_square_rpp():
    with pytest.raises(ValueError):
        gt_from_rpp([[1, 2, 3], [1, 2, 3]])
    with pytest.raises(ValueError):
        gt_from_rpp([[3, 1], [1, 5]])  # not an RPP


def test_gt_interlacing_validation():
    with pytest.raises(ValueError):
        GTPattern(((1, 3), (2,)))
    GTPattern(((3, 1), (2,)))
    GTPattern(((3, 1, 0), (2, 1), (1,)))
    with pytest.raises(ValueError, match=r"^rows must shrink by one$"):
        GTPattern(((3, 1), (2, 1)))
    with pytest.raises(ValueError, match=r"^entries must be nonnegative$"):
        GTPattern(((3, -1), (2,)))
    # the first j that fails is named
    with pytest.raises(ValueError, match=r"^interlacing fails: 1 >= 2 >= 0 is false$"):
        GTPattern(((3, 1, 0), (2, 2), (1,)))
    with pytest.raises(ValueError, match=r"^interlacing fails: 3 >= 4 >= 1 is false$"):
        GTPattern(((3, 1, 0), (4, 2), (1,)))


def test_ssyt_validation():
    with pytest.raises(ValueError):
        SSYT(((2, 1),))
    with pytest.raises(ValueError):
        SSYT(((1, 1), (1,)))
    SSYT(((1, 1, 2), (2, 3), (4,)))
    with pytest.raises(ValueError, match=r"^row \(1, 0\) is not weakly increasing$"):
        SSYT(((1, 0),))
    with pytest.raises(ValueError, match=r"^shape is not a partition$"):
        SSYT(((1,), (2, 3)))
    with pytest.raises(ValueError, match=r"^columns must strictly increase$"):
        SSYT(((1, 2), (1, 3)))


def test_constant_rpp_gives_superstandard():
    rpp = [[2, 2, 2], [2, 2, 2], [2, 2, 2]]
    lower, upper = gt_from_rpp(rpp)
    expected = SSYT(((1, 1), (2, 2), (3, 3)))
    assert ssyt_from_gt(lower) == expected
    assert ssyt_from_gt(upper) == expected


@pytest.mark.parametrize("size", [3, 4])
def test_full_pipeline_equivalence(size):
    rng = Random(size)
    for _ in range(40):
        matrix = [[rng.randint(0, 4) for _ in range(size)] for _ in range(size)]
        rpp = toggle_rpp(matrix)
        lower, upper = gt_from_rpp(rpp)
        p, q = classical_insert_rsk(matrix)
        assert (ssyt_from_gt(lower).rows, ssyt_from_gt(upper).rows) == (p.rows, q.rows)


@pytest.mark.parametrize("shape", [(3, 3), (3, 2), (2, 2, 1), (4, 1)])
def test_toggle_rpp_matches_generalized_map(shape):
    P = young(shape)
    a = analyze(P)
    ids = young_box_ids(shape)
    rng = Random(sum(shape))
    for _ in range(25):
        matrix = [[rng.randint(0, 4) for _ in range(width)] for width in shape]
        flat = [0] * P.n
        for (i, j), e in ids.items():
            flat[e] = matrix[i - 1][j - 1]
        image = rsk(P, flat, range(P.n), analysis=a)
        rpp = toggle_rpp(matrix)
        assert is_rpp(rpp)
        for (i, j), e in ids.items():
            assert image[e] == rpp[i - 1][j - 1]


def test_is_rpp_reads_columns():
    # each row weakly increases, so only a column can refuse
    assert is_rpp([[0, 1], [1]])
    assert not is_rpp([[1, 1], [0]])
    assert not is_rpp([[1], [0]])
    # ragged: a column compares only the cells both rows have
    assert is_rpp(((0, 1, 1), (0, 2), (3,))) and not is_rpp(((0, 1, 1), (0, 0)))


def _genexpr_ssyt(rows):
    """SSYT's checks as generator expressions, as first written."""
    for row in rows:
        if any(a > b for a, b in zip(row, row[1:])):
            raise ValueError(f"row {row} is not weakly increasing")
    for upper, lower in zip(rows, rows[1:]):
        if len(lower) > len(upper):
            raise ValueError("shape is not a partition")
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            raise ValueError("columns must strictly increase")


def _genexpr_gt_pattern(rows):
    """GTPattern's checks as generator expressions, as first written."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n - i:
            raise ValueError("rows must shrink by one")
        if any(v < 0 for v in row):
            raise ValueError("entries must be nonnegative")
    for wide, narrow in zip(rows, rows[1:]):
        for j, v in enumerate(narrow):
            if not wide[j] >= v >= wide[j + 1]:
                raise ValueError(f"interlacing fails: {wide[j]} >= {v} >= {wide[j + 1]} is false")


def _dict_is_rpp(rows):
    """is_rpp as first written: a dict of cells, each compared with its right and lower neighbour."""
    grid = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    for (i, j), v in grid.items():
        if (i, j + 1) in grid and grid[(i, j + 1)] < v:
            return False
        if (i + 1, j) in grid and grid[(i + 1, j)] < v:
            return False
    return True


def _verdict(check, rows):
    """None if ``check`` accepts rows, else its ValueError's text."""
    try:
        check(rows)
    except ValueError as error:
        return str(error)
    return None


_entries = st.integers(-2, 4)
# ragged rows, shapes that are not partitions and negative entries
_arrays = st.lists(st.lists(_entries, max_size=5).map(tuple), max_size=5).map(tuple)


def _nudge(draw, rows):
    """rows with up to three entries each moved by one."""
    rows = [list(row) for row in rows]
    filled = [i for i, row in enumerate(rows) if row]
    for _ in range(draw(st.integers(0, 3)) if filled else 0):
        i = draw(st.sampled_from(filled))
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] += draw(st.sampled_from((-1, 1)))
    return tuple(map(tuple, rows))


@st.composite
def _tableaux(draw):
    """Rows sorted, longest first, row i raised by 3i: columns mostly strictly
    increase.  Some have entries moved by one."""
    rows = sorted(draw(_arrays), key=len, reverse=True)
    return _nudge(draw, [tuple(sorted(v + 3 * i for v in row)) for i, row in enumerate(rows)])


@st.composite
def _patterns(draw):
    """Interlacing triangles of nonnegative entries, some with entries moved by one."""
    n = draw(st.integers(0, 5))
    top = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    rows = [tuple(sorted(top, reverse=True))]
    for length in range(n - 1, 0, -1):
        wide = rows[-1]
        rows.append(tuple(draw(st.integers(wide[j + 1], wide[j])) for j in range(length)))
    return _nudge(draw, rows if n else [])


@given(st.one_of(_arrays, _tableaux()))
@settings(max_examples=200, deadline=None)
def test_ssyt_checks_match_the_generator_expressions(rows):
    assert _verdict(SSYT, rows) == _verdict(_genexpr_ssyt, rows)


@given(st.one_of(_arrays, _patterns()))
@settings(max_examples=200, deadline=None)
def test_gt_pattern_checks_match_the_generator_expressions(rows):
    assert _verdict(GTPattern, rows) == _verdict(_genexpr_gt_pattern, rows)


@given(st.one_of(_arrays, _tableaux()))
@settings(max_examples=200, deadline=None)
def test_is_rpp_matches_the_cell_dict(rows):
    assert is_rpp(rows) == _dict_is_rpp(rows)


_partitions = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
    lambda widths: tuple(sorted(widths, reverse=True))
)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_toggle_rpp_refuses_a_given_order_that_breaks_precedence(data):
    # a caller's order is checked: the first cell, in order, placed after the
    # cell below it or to its right is named; an order that breaks nothing
    # gives the default order's rpp
    shape = data.draw(_partitions)
    order = tuple(data.draw(st.permutations(row_major_order(shape))))
    matrix = [[data.draw(st.integers(0, 4)) for _ in range(width)] for width in shape]
    position = {cell: k for k, cell in enumerate(order)}
    broken = [
        (cell, later)
        for cell in order
        for later in ((cell[0] + 1, cell[1]), (cell[0], cell[1] + 1))
        if position.get(later, len(order)) < position[cell]
    ]
    if broken:
        cell, later = broken[0]
        with pytest.raises(ValueError, match=re.escape(f"cell {cell} must precede {later}")):
            toggle_rpp(matrix, order)
    else:
        assert toggle_rpp(matrix, order) == toggle_rpp(matrix)


def test_toggle_rpp_checks_only_a_given_order(monkeypatch):
    # row-major order is valid by construction, so only a caller's order is checked
    def refuse(shape, order):
        raise AssertionError("order checked")

    monkeypatch.setattr(classical, "_check_square_order", refuse)
    assert toggle_rpp(MATRIX) == [[1, 2, 3], [1, 2, 3], [2, 4, 4]]
    with pytest.raises(AssertionError, match="order checked"):
        toggle_rpp(MATRIX, row_major_order((3, 3, 3)))
