"""Finite posets stored as Hasse diagrams with a cached order relation.

Elements are the dense integer ids ``0..n-1``.  Subsets are frozensets in
the public API; bitmask ints are used internally and exposed through the
``*_mask`` helpers for the modules that need them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Mapping


class CycleError(ValueError):
    """The input relations admit no partial order."""

    def __init__(self, cycle: Iterable[int]):
        self.cycle = tuple(cycle)
        chain = " < ".join(str(x) for x in self.cycle)
        super().__init__(f"cover relations contain a cycle: {chain}")


class ExtensionLimitError(RuntimeError):
    """The poset's order-ideal lattice has more than ``IDEAL_LIMIT`` ideals.

    Also raised by callers that refuse a poset with too many linear
    extensions for an enumeration or a sampled check.
    """


# The ideal-lattice walk refuses posets with more ideals than this.  Its two
# live levels set the peak memory of exact counting.
IDEAL_LIMIT = 2**16


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


class Poset:
    """Immutable finite poset built from ``(lower, upper)`` cover pairs.

    The reflexive-transitive closure is computed eagerly; redundant input
    pairs are silently removed by transitive reduction.  A cycle in the
    input raises :class:`CycleError` naming a witness.
    """

    __slots__ = ("n", "names", "covers", "_up", "_dn", "_upper", "_lower")

    def __init__(
        self,
        n: int,
        pairs: Iterable[tuple[int, int]] = (),
        names: Mapping[int, str] | None = None,
    ):
        if n < 0:
            raise ValueError("element count must be nonnegative")
        edges: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"cover pair ({a}, {b}) references an element outside 0..{n - 1}")
            if a == b:
                raise CycleError((a, a))
            if (a, b) not in seen:
                seen.add((a, b))
                edges[a].append(b)

        order = _topological_order(n, edges)
        up = [0] * n
        for v in reversed(order):
            m = 1 << v
            for w in edges[v]:
                m |= up[w]
            up[v] = m
        # A direct edge a -> b is a cover unless b lies strictly above the head
        # of another direct edge from a; every cover is a direct edge.
        upper: list[list[int]] = [[] for _ in range(n)]
        lower: list[list[int]] = [[] for _ in range(n)]
        for a in range(n):
            above = 0
            for w in edges[a]:
                above |= up[w] ^ (1 << w)
            for b in edges[a]:
                if not above >> b & 1:
                    upper[a].append(b)
                    lower[b].append(a)
        dn = [0] * n
        for v in order:
            m = 1 << v
            for u in lower[v]:
                m |= dn[u]
            dn[v] = m

        self.n = n
        self._up = tuple(up)
        self._dn = tuple(dn)
        self.covers = frozenset((a, b) for a in range(n) for b in upper[a])
        self._upper = tuple(tuple(sorted(u)) for u in upper)
        self._lower = tuple(tuple(sorted(v)) for v in lower)
        self.names = dict(names) if names else {}
        for key in self.names:
            if not 0 <= key < n:
                raise ValueError(f"name given for unknown element {key}")

    # -- order queries ---------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.n)

    def leq(self, a: int, b: int) -> bool:
        return (self._up[a] >> b) & 1 == 1

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def incomparable(self, a: int, b: int) -> bool:
        return not self.leq(a, b) and not self.leq(b, a)

    def upper_covers(self, x: int) -> tuple[int, ...]:
        """Elements covering ``x``."""
        return self._upper[x]

    def lower_covers(self, x: int) -> tuple[int, ...]:
        """Elements covered by ``x``."""
        return self._lower[x]

    def upset_mask(self, x: int) -> int:
        return self._up[x]

    def downset_mask(self, x: int) -> int:
        return self._dn[x]

    def downset(self, x: int) -> frozenset[int]:
        return frozenset(bits(self._dn[x]))

    def interval_mask(self, p: int, q: int) -> int:
        if not self.leq(p, q):
            raise ValueError(f"interval [{p}, {q}] is empty: {p} is not below {q}")
        return self._up[p] & self._dn[q]

    def interval(self, p: int, q: int) -> frozenset[int]:
        """The set ``{x : p <= x <= q}``; requires ``p <= q``."""
        return frozenset(bits(self.interval_mask(p, q)))

    def is_convex_mask(self, m: int) -> bool:
        for a in bits(m):
            for b in bits(self._up[a] & m & ~(1 << a)):
                if (self._up[a] & self._dn[b]) & ~m:
                    return False
        return True

    def is_convex(self, members: Iterable[int]) -> bool:
        """True iff every interval between two members stays inside."""
        return self.is_convex_mask(mask_of(members))

    def minimal_in_mask(self, m: int) -> tuple[int, ...]:
        return tuple(v for v in bits(m) if self._dn[v] & m == 1 << v)

    def maximal_in_mask(self, m: int) -> tuple[int, ...]:
        return tuple(v for v in bits(m) if self._up[v] & m == 1 << v)

    def minimal_elements(self) -> tuple[int, ...]:
        return self.minimal_in_mask((1 << self.n) - 1)

    # -- derived posets --------------------------------------------------

    def restrict(self, members: Iterable[int]) -> tuple["Poset", tuple[int, ...]]:
        """Induced subposet on ``members``.

        Returns the new poset together with the old ids listed by new id.
        """
        keep = sorted(set(members))
        index = {old: new for new, old in enumerate(keep)}
        pairs = [
            (index[a], index[b])
            for a in keep
            for b in keep
            if a != b and self.leq(a, b)
        ]
        names = {index[o]: nm for o, nm in self.names.items() if o in index}
        return Poset(len(keep), pairs, names), tuple(keep)

    # -- housekeeping ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self.covers == other.covers and self.names == other.names

    def __hash__(self) -> int:
        return hash((self.n, self.covers, tuple(sorted(self.names.items()))))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={sorted(self.covers)})"


def _topological_order(n: int, edges: list[list[int]]) -> list[int]:
    indeg = [0] * n
    for a in range(n):
        for b in edges[a]:
            indeg[b] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in edges[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) == n:
        return order
    leftover = set(range(n)) - set(order)
    preds: dict[int, list[int]] = {v: [] for v in leftover}
    for a in leftover:
        for b in edges[a]:
            if b in leftover:
                preds[b].append(a)
    v = min(leftover)
    path: list[int] = []
    pos: dict[int, int] = {}
    while v not in pos:
        pos[v] = len(path)
        path.append(v)
        v = preds[v][0]
    raise CycleError(tuple(reversed(path[pos[v]:])))


# -- linear extensions ---------------------------------------------------


def linear_extensions(P: Poset) -> Iterator[tuple[int, ...]]:
    """Yield every linear extension exactly once, maximal element first.

    The enumeration is deterministic: at each step the smallest eligible
    id is tried first.  The search keeps an explicit stack, one frame per
    chosen element, so long chains need no recursion.
    """
    up, lower = P._up, P._lower
    full = (1 << P.n) - 1
    top = mask_of(P.maximal_in_mask(full))
    seq: list[int] = []
    # frame: [elements left, the maximal ones among them, those not tried yet]
    stack = [[full, top, top]]
    while stack:
        frame = stack[-1]
        remaining, eligible, untried = frame
        if not remaining:
            yield tuple(seq)
        if untried:
            low = untried & -untried
            frame[2] = untried ^ low
            v = low.bit_length() - 1
            rest = remaining ^ low
            nxt = eligible ^ low
            for w in lower[v]:
                if up[w] & rest == 1 << w:
                    nxt |= 1 << w
            seq.append(v)
            stack.append([rest, nxt, nxt])
        else:
            stack.pop()
            if seq:
                seq.pop()


def count_linear_extensions(P: Poset) -> int:
    """Exact number of linear extensions, by :func:`fold_ideals`.

    Raises :class:`ExtensionLimitError` when P has more than
    ``IDEAL_LIMIT`` order ideals, however few elements it has.
    """
    return fold_ideals(P)


def is_descending_extension(P: Poset, order: Iterable[int]) -> bool:
    """True iff ``order`` lists all elements with larger elements first."""
    seq = tuple(order)
    if sorted(seq) != list(range(P.n)):
        return False
    pos = [0] * P.n
    for i, v in enumerate(seq):
        pos[v] = i
    return all(pos[b] < pos[a] for a, b in P.covers)


def _ideal_levels(P: Poset, finish: Callable | None = None) -> Iterator[dict[int, list]]:
    """The lattice of order ideals, one level (ideal size) at a time.

    Each level maps an ideal's bitmask to ``[value, addable]``: ``addable``
    is the mask of elements outside the ideal whose strict downset lies
    inside it, and ``value`` is the sum of the values of the ideals it
    covers (1 for the empty ideal), replaced by ``finish(mask, value)``
    when ``finish`` is given.  A new ideal's addable mask is its parent's
    minus the added element plus those upper covers of that element that
    became addable, so a step costs O(covers), not O(n).  Only the current
    and the next level are held.
    """
    below = tuple(d ^ (1 << v) for v, d in enumerate(P._dn))
    upper = P._upper
    level = {0: [1, mask_of(v for v in range(P.n) if not below[v])]}
    visited = 1
    for _ in range(P.n):
        yield level
        nxt: dict[int, list] = {}
        for mask, (value, addable) in level.items():
            rest = addable
            while rest:
                low = rest & -rest
                rest ^= low
                grown = mask | low
                entry = nxt.get(grown)
                if entry is not None:
                    entry[0] += value
                    continue
                visited += 1
                if visited > IDEAL_LIMIT:
                    raise ExtensionLimitError(
                        f"poset has more than IDEAL_LIMIT = {IDEAL_LIMIT} order ideals; refusing"
                    )
                reach = addable ^ low
                for w in upper[low.bit_length() - 1]:
                    if not below[w] & ~grown:
                        reach |= 1 << w
                nxt[grown] = [value, reach]
        if finish is not None:
            for mask, entry in nxt.items():
                entry[0] = finish(mask, entry[0])
        level = nxt
    yield level


def fold_ideals(P: Poset, finish: Callable | None = None):
    """Fold values up the ideal lattice; the value of the full ideal.

    Without ``finish`` this counts the maximal chains of the lattice, which
    are the linear extensions.  ``finish(mask, total)`` turns the summed
    values of the ideals below ``mask`` into the value of ``mask``.
    """
    for level in _ideal_levels(P, finish):
        pass
    return level[(1 << P.n) - 1][0]


def order_ideal_masks(P: Poset) -> Iterator[int]:
    """All downset bitmasks, the empty set included, smallest ideals first.

    Raises :class:`ExtensionLimitError` past ``IDEAL_LIMIT`` ideals.
    """
    for level in _ideal_levels(P):
        yield from level


def upper_set_masks(P: Poset) -> Iterator[int]:
    """All upper-set bitmasks (complements of downsets), empty included."""
    full = (1 << P.n) - 1
    for ideal in order_ideal_masks(P):
        yield full ^ ideal
