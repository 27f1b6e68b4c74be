"""Classical RSK machinery on Young diagrams.

Two-line-array row insertion producing a pair of semistandard tableaux,
the toggle-based construction of a reverse plane partition from an
integer filling, and the Gelfand-Tsetlin extraction relating the two.
Used as an independent oracle for the generalized insertion map on
Young-diagram posets.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from operator import ge, gt
from typing import NamedTuple, Sequence

Matrix = list[list[int]]
Coords = tuple[tuple[int, int], ...]


class _Rows(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class SSYT(_Rows):
    """Semistandard Young tableau: weakly increasing rows, strictly increasing columns."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        for row in rows:
            if any(map(gt, row, row[1:])):
                raise ValueError(f"row {row} is not weakly increasing")
        for upper, lower in zip(rows, rows[1:]):
            if len(lower) > len(upper):
                raise ValueError("shape is not a partition")
            if any(map(ge, upper, lower)):
                raise ValueError("columns must strictly increase")
        return super().__new__(cls, rows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(self.shape)


class GTPattern(_Rows):
    """Triangular array with interlacing rows, longest row first."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n - i:
                raise ValueError("rows must shrink by one")
            if min(row) < 0:  # nonempty: its length is n - i >= 1
                raise ValueError("entries must be nonnegative")
        for wide, narrow in zip(rows, rows[1:]):
            if all(map(ge, wide, narrow)) and all(map(ge, narrow, wide[1:])):
                continue
            j = next(j for j, v in enumerate(narrow) if not wide[j] >= v >= wide[j + 1])
            raise ValueError(
                f"interlacing fails: {wide[j]} >= {narrow[j]} >= {wide[j + 1]} is false"
            )
        return super().__new__(cls, rows)


def _validated_matrix(matrix: Sequence[Sequence[int]], rectangular: bool) -> Matrix:
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    widths = [len(r) for r in rows]
    if rectangular:
        if len(set(widths)) != 1:
            raise ValueError("matrix rows must have equal length")
    else:
        if any(a < b for a, b in zip(widths, widths[1:])):
            raise ValueError("row lengths must be weakly decreasing")
    for row in rows:
        for v in row:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"entries must be nonnegative integers, got {v!r}")
    return rows


class BiwordLimitError(ValueError):
    """A matrix whose biword is longer than ``sys.maxsize``, the most items a list can index."""


def two_line_array(matrix: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Biword of a nonnegative integer matrix: (i, j) repeated entry times, 1-based.

    The biword has as many pairs as the entries sum to; past
    ``sys.maxsize`` no list can hold them, and :class:`BiwordLimitError`
    names the limit before any pair is built.
    """
    rows = _validated_matrix(matrix, rectangular=True)
    length = sum(map(sum, rows))
    if length > sys.maxsize:
        raise BiwordLimitError(f"matrix entries sum to {length}, past sys.maxsize = {sys.maxsize} biword pairs")
    pairs = []
    for i, row in enumerate(rows, start=1):
        for j, mult in enumerate(row, start=1):
            pairs.extend ([(i, j)] * mult)
    return pairs


def classical_insert_rsk(matrix: Sequence[Sequence[int]]) -> tuple[SSYT, SSYT]:
    """Row-insertion RSK of an integer matrix: the tableau pair (P, Q)."""
    insertion: list[list[int]] = []
    recording: list[list[int]] = []
    for i, j in two_line_array(matrix):
        value = j
        row = 0
        while True:
            if row == len(insertion):
                insertion.append([value])
                recording.append([i])
                break
            spot = bisect_right(insertion[row], value)
            if spot == len(insertion[row]):
                insertion[row].append(value)
                recording[row].append(i)
                break
            insertion[row][spot], value = value, insertion[row][spot]
            row += 1
    return (
        SSYT(tuple(tuple(r) for r in insertion)),
        SSYT(tuple(tuple(r) for r in recording)),
    )


def row_major_order(shape: Sequence[int]) -> Coords:
    return tuple((i, j) for i, width in enumerate(shape) for j in range(width))


def order_from_ranks(ranks: Sequence[Sequence[int]]) -> Coords:
    """Square ordering from a matrix of 1-based ranks."""
    cells = [(rank, (i, j)) for i, row in enumerate(ranks) for j, rank in enumerate(row)]
    cells.sort()
    expected = list(range(1, len(cells) + 1))
    if [rank for rank, _ in cells] != expected:
        raise ValueError("ranks must be a permutation of 1..#cells")
    return tuple(cell for _, cell in cells)


def _check_square_order(shape: tuple[int, ...], order: Coords) -> None:
    cells = {(i, j) for i, width in enumerate(shape) for j in range(width)}
    if set(order) != cells or len(order) != len(cells):
        raise ValueError("ordering must list every cell exactly once")
    position = {cell: k for k, cell in enumerate(order)}
    for i, j in order:
        for later in ((i + 1, j), (i, j + 1)):
            if later in position and position[later] < position[(i, j)]:
                raise ValueError(f"cell {(i, j)} must precede {later}")


def toggle_rpp(matrix: Sequence[Sequence[int]], order: Coords | None = None) -> Matrix:
    """Reverse plane partition built from an integer filling by toggling.

    Cells are placed along ``order`` (which must list (i, j) before
    (i+1, j) and (i, j+1); row-major by default).  A new cell gets
    max(upper, left) + filling value; the other present cells of its
    content diagonal are toggled via
    max(up, left) + min(down, right) - value, absent neighbors read 0.

    Only a given ``order`` is checked.  The default needs no check: the
    row lengths are weakly decreasing, so the shape is a partition, and
    row-major order lists each of its cells once, every cell after the
    one to its left and the one above it.
    """
    rows = _validated_matrix(matrix, rectangular=False)
    shape = tuple(len(r) for r in rows)
    if order is None:
        order = row_major_order(shape)
    else:
        order = tuple((i, j) for i, j in order)
        _check_square_order(shape, order)

    # cell (i, j) at grid[i + 1][j + 1]: absent and not yet placed cells read 0
    grid = [[0] * (shape[0] + 2) for _ in range(len(shape) + 2)]
    placed: dict[int, list[tuple[int, int]]] = {}  # content diagonal -> its placed cells
    for i, j in order:
        grid[i + 1][j + 1] = max(grid[i][j + 1], grid[i + 1][j]) + rows[i][j]
        diagonal = placed.setdefault(i - j, [])
        for x, y in diagonal:
            above, row, below = grid[x - 1 : x + 2]
            row[y] = max(above[y], row[y - 1]) + min(below[y], row[y + 1]) - row[y]
        diagonal.append((i + 1, j + 1))
    return [grid[i + 1][1 : width + 1] for i, width in enumerate(shape)]


def is_rpp(rows: Sequence[Sequence[int]]) -> bool:
    """Weakly increasing along rows and down columns.

    Rows may be ragged: a column compares only the cells present in both
    of two neighbouring rows, which ``zip`` pairs.
    """
    if any(any(map(gt, row, row[1:])) for row in rows):
        return False
    return not any(any(map(gt, upper, lower)) for upper, lower in zip(rows, rows[1:]))


def gt_from_rpp(rpp: Sequence[Sequence[int]]) -> tuple[GTPattern, GTPattern]:
    """Lower- and upper-triangular Gelfand-Tsetlin patterns of a square RPP.

    Row of length L in the lower pattern reads the entries on the
    triangle's diagonal r - c = n - L from bottom-right to top-left; the
    upper pattern reads the transpose.
    """
    rows = _validated_matrix(rpp, rectangular=True)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("Gelfand-Tsetlin extraction needs a square RPP")
    if not is_rpp(rows):
        raise ValueError("input is not a reverse plane partition")
    lower = tuple(
        tuple(rows[n - 1 - m][length - 1 - m] for m in range(length))
        for length in range(n, 0, -1)
    )
    upper = tuple(
        tuple(rows[length - 1 - m][n - 1 - m] for m in range(length))
        for length in range(n, 0, -1)
    )
    return GTPattern(lower), GTPattern(upper)


def ssyt_from_gt(pattern: GTPattern) -> SSYT:
    """The unique SSYT whose entries <= i fill the shape of the i-th row from the bottom."""
    shapes = [tuple(v for v in row if v > 0) for row in reversed(pattern.rows)]
    for shape in shapes:
        if any(a < b for a, b in zip(shape, shape[1:])):
            raise ValueError(f"row {shape} is not a partition")
    rows: list[list[int]] = []
    previous: tuple[int, ...] = ()
    for entry, shape in enumerate(shapes, start=1):
        for r, width in enumerate(shape):
            if r >= len(rows):
                rows.append([])
            old = previous[r] if r < len(previous) else 0
            if width < old:
                raise ValueError("shapes must grow along the pattern")
            rows[r].extend([entry] * (width - old))
        previous = shape
    return SSYT(tuple(tuple(r) for r in rows))
