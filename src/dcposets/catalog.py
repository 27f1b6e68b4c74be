"""Built-in catalog of test posets.

Young diagrams and shifted Young diagrams with at most 8 boxes, all
rooted trees with at most 8 nodes, the double-tailed diamonds d_3..d_6,
and the two named built-ins.  Every member is d-complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .families import builtin_poset, d_k_one, shifted_young, tree, young
from .poset import Poset

MAX_BOXES = 8
MAX_TREE_NODES = 8
DIAMOND_KS = (3, 4, 5, 6)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    poset: Poset


def partitions(total: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive compositions of ``total``, lexicographically descending."""

    def rec(remaining: int, largest: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield acc
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from rec(remaining - part, part, acc + (part,))

    yield from rec(total, total, ())


def strict_partitions(total: int) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing positive compositions of ``total``."""

    def rec(remaining: int, largest: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield acc
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from rec(remaining - part, part - 1, acc + (part,))

    yield from rec(total, total, ())


@cache
def rooted_tree_codes(n: int) -> tuple[tuple, ...]:
    """Canonical codes of the unlabeled rooted trees on n nodes.

    A code is the tuple of child codes in weakly decreasing (size, code)
    order; enforcing that order during generation makes each multiset of
    subtrees appear exactly once.
    """
    if n == 1:
        return ((),)
    results: list[tuple] = []

    def extend(remaining: int, bound: tuple | None, acc: tuple) -> None:
        if remaining == 0:
            results.append(acc)
            return
        max_size = remaining if bound is None else min(remaining, bound[0])
        for size in range(max_size, 0, -1):
            for code in rooted_tree_codes(size):
                key = (size, code)
                if bound is None or key <= bound:
                    extend(remaining - size, key, acc + (code,))

    extend(n - 1, None, ())
    return tuple(results)


def _code_size(code: tuple) -> int:
    return 1 + sum(_code_size(child) for child in code)


def tree_from_code(code: tuple) -> Poset:
    parent: list[int | None] = []

    def build(c: tuple, parent_id: int | None) -> None:
        my_id = len(parent)
        parent.append(parent_id)
        for child in c:
            build(child, my_id)

    build(code, None)
    return tree(parent)


def level_sequence(code: tuple) -> tuple[int, ...]:
    out: list[int] = []

    def walk(c: tuple, depth: int) -> None:
        out.append(depth)
        for child in c:
            walk(child, depth + 1)

    walk(code, 0)
    return tuple(out)


def _fmt_parts(parts: tuple[int, ...]) -> str:
    return ".".join(str(p) for p in parts)


@cache
def catalog() -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []
    for k in DIAMOND_KS:
        entries.append(CatalogEntry(f"d{k}", d_k_one(k)))
    entries.append(CatalogEntry("d4-named", builtin_poset("d4-named")))
    entries.append(CatalogEntry("sample10", builtin_poset("sample10")))
    for total in range(1, MAX_BOXES + 1):
        for shape in partitions(total):
            entries.append(CatalogEntry(f"young-{_fmt_parts(shape)}", young(shape)))
    for total in range(1, MAX_BOXES + 1):
        for shape in strict_partitions(total):
            entries.append(CatalogEntry(f"shifted-{_fmt_parts(shape)}", shifted_young(shape)))
    for n in range(1, MAX_TREE_NODES + 1):
        for code in rooted_tree_codes(n):
            entries.append(
                CatalogEntry(f"tree-{_fmt_parts(level_sequence(code))}", tree_from_code(code))
            )
    return tuple(entries)


@cache
def catalog_map() -> dict[str, Poset]:
    return {entry.name: entry.poset for entry in catalog()}


def catalog_names() -> tuple[str, ...]:
    return tuple(entry.name for entry in catalog())
