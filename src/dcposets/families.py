"""Generators for the standard poset families.

Young diagrams, shifted Young diagrams, rooted trees and the double-tailed
diamonds d_k(1), plus two named built-in posets used throughout the tests.
"""

from __future__ import annotations

from typing import Sequence

from .poset import Poset, _require_count


def _box_ids(shape: Sequence[int], shifted: bool) -> dict[tuple[int, int], int]:
    """Map (row, column) (1-based) to element ids, row-major.

    Row i starts at column 1, or at column i in a shifted diagram.
    """
    boxes = []
    for i, row in enumerate(shape, start=1):
        start = i if shifted else 1
        boxes += [(i, j) for j in range(start, start + row)]
    return {box: e for e, box in enumerate(boxes)}


def _diagram(shape: Sequence[int], shifted: bool) -> Poset:
    """Box (i, j) is covered by the boxes directly above and to the left."""
    shape = tuple(shape)
    _check_partition(shape, strict=shifted)
    index = _box_ids(shape, shifted)
    pairs = []
    for (i, j), e in index.items():
        if (i - 1, j) in index:
            pairs.append((e, index[(i - 1, j)]))
        if (i, j - 1) in index:
            pairs.append((e, index[(i, j - 1)]))
    names = {e: f"{i},{j}" for (i, j), e in index.items()}
    return Poset(len(index), pairs, names)


def young(shape: Sequence[int]) -> Poset:
    """Young diagram of a partition, one element per box.

    Box (i, j) is covered by the boxes directly above and to the left, so
    the top-left corner is the maximum.  Elements are numbered row-major;
    each carries its "i,j" coordinates (1-based) as a name.
    """
    return _diagram(shape, shifted=False)


def young_box_ids(shape: Sequence[int]) -> dict[tuple[int, int], int]:
    """Map (row, column) (1-based) to the element id used by :func:`young`."""
    return _box_ids(shape, shifted=False)


def shifted_young(shape: Sequence[int]) -> Poset:
    """Shifted Young diagram of a strict partition; row i is indented i-1."""
    return _diagram(shape, shifted=True)


def tree(parent: Sequence[int | None]) -> Poset:
    """Rooted tree poset: each child is covered by its parent, root maximal.

    ``parent[i]`` is the parent id of node i; the single root uses None
    (or -1); :class:`Poset` reads every other entry as a cover pair id.
    """
    roots = [i for i, p in enumerate(parent) if p is None or p == -1]
    if len(roots) != 1:
        raise ValueError(f"tree must have exactly one root, got {len(roots)}")
    return Poset(len(parent), [(i, p) for i, p in enumerate(parent) if i != roots[0]])


def d_k_one(k: int) -> Poset:
    """The double-tailed diamond d_k(1) on 2k-2 elements.

    Ids run bottom-up: tail chain 0..k-3, side elements k-2 and k-1,
    neck chain k..2k-3 with the top at 2k-3.
    """
    _require_count(k, "k of d_k(1)", 3)
    n = 2 * k - 2
    pairs = []
    for i in range(k - 3):
        pairs.append((i, i + 1))
    pairs.append((k - 3, k - 2))
    pairs.append((k - 3, k - 1))
    pairs.append((k - 2, k))
    pairs.append((k - 1, k))
    for i in range(k, 2 * k - 3):
        pairs.append((i, i + 1))
    return Poset(n, pairs)


def d4_named() -> Poset:
    """d_4(1) with its conventional element letters as names."""
    letters = {0: "p", 1: "c", 2: "a", 3: "b", 4: "d", 5: "q"}
    base = d_k_one(4)
    return Poset(base.n, sorted(base.covers), letters)


#: A 10-element d-complete poset that is neither a tree, a Young diagram
#: nor a shifted Young diagram.  Ids run bottom-up, left-to-right.
_SAMPLE10_COVERS = (
    (0, 3), (0, 4), (1, 4), (2, 4), (2, 5),
    (3, 6), (4, 6), (4, 7), (5, 7),
    (6, 8), (7, 8), (8, 9),
)


def sample10() -> Poset:
    return Poset(10, _SAMPLE10_COVERS)


_BUILTINS = {
    "sample10": sample10,
    "d4-named": d4_named,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_poset(name: str) -> Poset:
    """Named built-in posets: ``sample10`` and ``d4-named``."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown built-in poset {name!r}; choices: {', '.join(builtin_names())}") from None


def _check_partition(shape: tuple[int, ...], strict: bool) -> None:
    if not shape:
        raise ValueError("partition must be nonempty")
    for part in shape:
        _require_count(part, "partition part")
    for a, b in zip(shape, shape[1:]):
        if strict and a <= b:
            raise ValueError(f"strict partition required: {shape}")
        if not strict and a < b:
            raise ValueError(f"partition parts must be weakly decreasing: {shape}")
