"""Finite posets stored as Hasse diagrams with a cached order relation.

Elements are the dense integer ids ``0..n-1``.  Subsets are frozensets in
the public API; bitmask ints are used internally and exposed through the
``*_mask`` helpers for the modules that need them.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from operator import add, floordiv, mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class CycleError(ValueError):
    """The input relations admit no partial order."""

    def __init__(self, cycle: Iterable[int]):
        self.cycle = tuple(cycle)
        chain = " < ".join(str(x) for x in self.cycle)
        super().__init__(f"cover relations contain a cycle: {chain}")


class ExtensionLimitError(RuntimeError):
    """The poset's order-ideal lattice has more than ``IDEAL_LIMIT`` ideals."""


# The ideal-lattice walk refuses posets with more ideals than this.  Its two
# live levels of masks and its per-ideal arrays set the peak memory of exact
# counting.
IDEAL_LIMIT = 2**16
_REFUSAL = f"poset has more than IDEAL_LIMIT = {IDEAL_LIMIT} order ideals; refusing"


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _require_ids(ids: Iterable, what: str, n: int) -> None:
    """Refuse a non-int id (TypeError, naming the first; a bool is none) or ids outside 0..n-1 (ValueError).

    One pass keeps the entries that are not ints in range, and only those
    are read again: an int subclass other than bool is an id too.
    """
    bad = [q for q in ids if type(q) is not int or not 0 <= q < n]
    wrong = [q for q in bad if type(q) is bool or not isinstance(q, int)]
    if wrong:
        raise TypeError(f"{what} must be int, not {type(wrong[0]).__name__} {wrong[0]!r}")
    bad = [q for q in bad if not 0 <= q < n]
    if bad:
        raise ValueError(f"{what} outside 0..{n - 1}: {bad}")


def _pair_entries(pairs: Iterable, read: list[tuple]) -> Iterator:
    """Each cover pair's two entries in turn, the pair appended to ``read`` as a 2-tuple.

    Each pair is unpacked once, so a pair that is a one-shot iterator is
    read whole; any other pair raises its unpacking's error type, naming it.
    """
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError) as error:
            raise type(error)(f"cover pair must be two ids, not {type(pair).__name__} {pair!r}") from None
        read.append((a, b))
        yield a
        yield b


def _require_count(count, name: str, least: int = 1) -> None:
    """Refuse a count that is not an int (TypeError; a bool is none) or is below ``least`` (ValueError)."""
    if type(count) is bool or not isinstance(count, int):
        raise TypeError(f"{name} must be an int, not {type(count).__name__} {count!r}")
    if count < least:
        raise ValueError(f"{name} must be at least {least}, got {count}")


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


class Poset:
    """Immutable finite poset built from ``(lower, upper)`` cover pairs.

    The reflexive-transitive closure is computed eagerly; redundant input
    pairs are silently removed by transitive reduction.  A cycle in the
    input raises :class:`CycleError` naming a witness.  The count and the
    ids are read by :func:`_require_count` and :func:`_require_ids`, each
    pair unpacked once as exactly two ids by :func:`_pair_entries` in the
    same pass, the construction reading those 2-tuples, and
    a name that is not a str raises ``TypeError`` naming it.

    ``_analysis`` is a weak reference to the poset's live
    :class:`~dcposets.analysis.PosetAnalysis`, or None; only
    :func:`~dcposets.analysis.analyze` sets it.  The poset itself holds
    no derived data, and the reference is weak so that poset and analysis
    form no cycle: an analysis nobody holds is freed at once.
    """

    __slots__ = ("n", "names", "covers", "_up", "_dn", "_upper", "_lower", "_analysis")

    def __init__(
        self,
        n: int,
        pairs: Iterable[tuple[int, int]] = (),
        names: Mapping[int, str] | None = None,
    ):
        _require_count(n, "element count", 0)
        read: list[tuple[int, int]] = []
        _require_ids(_pair_entries(pairs, read), "cover pair ids", n)
        edges: list[list[int]] = [[] for _ in range(n)]
        for a, b in dict.fromkeys(read):  # each distinct pair once, in input order
            if a == b:
                raise CycleError((a, a))
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
        _require_ids(self.names, "named element ids", n)
        for key, name in self.names.items():
            if not isinstance(name, str):
                raise TypeError(f"name of element {key} must be str, not {type(name).__name__} {name!r}")
        self._analysis = None

    # -- order queries ---------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return (self._up[a] >> b) & 1 == 1

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

    def minimal_in_mask(self, m: int) -> tuple[int, ...]:
        return tuple(v for v in bits(m) if self._dn[v] & m == 1 << v)

    def maximal_in_mask(self, m: int) -> tuple[int, ...]:
        return tuple(v for v in bits(m) if self._up[v] & m == 1 << v)

    def minimal_elements(self) -> tuple[int, ...]:
        return self.minimal_in_mask((1 << self.n) - 1)

    # -- housekeeping ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self.covers == other.covers and self.names == other.names

    def __hash__(self) -> int:
        return hash((self.n, self.covers, tuple(sorted(self.names.items()))))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={sorted(self.covers)})"

    def __reduce__(self):
        # rebuilt from its defining data: a weak reference cannot be pickled,
        # and a copy starts with no analysis of its own
        return Poset, (self.n, sorted(self.covers), self.names)


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


def is_descending_extension(P: Poset, order: Iterable[int]) -> bool:
    """True iff ``order`` lists all elements, as ints (no bools), with larger elements first."""
    seq = tuple(order)
    if not all(type(v) is not bool and isinstance(v, int) for v in seq) or sorted(seq) != list(range(P.n)):
        return False
    pos = [0] * P.n
    for i, v in enumerate(seq):
        pos[v] = i
    return all(pos[b] < pos[a] for a, b in P.covers)


def _require_order(P: Poset, order: Iterable) -> tuple[int, ...]:
    """The one reader of insertion orders: ``order`` as a tuple, if it is a descending extension of P.

    An entry that is no id of P is named by :func:`_require_ids`; any
    other order :func:`is_descending_extension` refuses raises ``ValueError``.
    """
    seq = tuple(order)
    _require_ids(seq, "insertion order entries", P.n)
    if not is_descending_extension(P, seq):
        raise ValueError("insertion order must be a descending linear extension")
    return seq


# -- the lattice of order ideals ------------------------------------------


class IdealLattice(NamedTuple):
    """The lattice of order ideals of a poset, compiled into flat arrays.

    Ideals are numbered level by level, smallest first, in the order the
    walk meets them: 0 is the empty ideal and the last index is the whole
    poset.  ``level_sizes[k]`` counts the ideals with k elements.  Ideal
    j > 0 is the ideal ``first[j]`` of the level below plus the element
    ``added[j]``, and the ideals covering ideal i are
    ``successors[successor_start[i]:successor_start[i + 1]]``.
    """

    level_sizes: tuple[int, ...]
    first: array
    added: array
    successor_start: array
    successors: array


def _frontier_ideal_count(P: Poset) -> int | None:
    """Count P's order ideals by a frontier sweep, or refuse early.

    Elements are taken bottom-up, the smallest available id first.  The
    frontier is the taken elements that still have an untaken upper cover;
    each holds a slot bit, reused once it leaves.  The state maps each
    in/out pattern of the frontier to the number of ideals of the taken
    elements Q with that pattern.  Taking v keeps every ideal and adds v to
    those holding all of v's lower covers, which all lie on the frontier.
    Q is a downset, and I -> I & Q maps the ideals of P onto those of Q, so
    the running total bounds |J(P)| from below: past ``IDEAL_LIMIT`` it
    raises :class:`ExtensionLimitError`.  Returns |J(P)|, or None once
    ``IDEAL_LIMIT`` state updates are spent, which leaves the decision to
    the lattice walk.
    """
    upper, lower = P._upper, P._lower
    pending_below = [len(lower[v]) for v in range(P.n)]
    pending_above = [len(upper[v]) for v in range(P.n)]
    ready = mask_of(v for v in range(P.n) if not pending_below[v])
    slot = [0] * P.n
    used = 0
    state = {0: 1}
    total, updates = 1, 0
    while ready:
        v = (ready & -ready).bit_length() - 1
        ready ^= 1 << v
        updates += len(state)
        if updates > IDEAL_LIMIT:
            return None
        need = retire = 0
        for u in lower[v]:
            need |= slot[u]
            pending_above[u] -= 1
            if not pending_above[u]:
                retire |= slot[u]
        # taken before the retiring slots are freed, so v shares a bit with none of them
        if upper[v]:
            slot[v] = ~used & (used + 1)
            used |= slot[v]
        keep = ~retire
        grown: dict[int, int] = {}
        for key, count in state.items():
            k = key & keep
            grown[k] = grown.get(k, 0) + count
            if key & need == need:
                k = (key | slot[v]) & keep
                grown[k] = grown.get(k, 0) + count
                total += count
        used &= keep
        state = grown
        if total > IDEAL_LIMIT:
            raise ExtensionLimitError(_REFUSAL)
        for w in upper[v]:
            pending_below[w] -= 1
            if not pending_below[w]:
                ready |= 1 << w
    return total


def _chain_bound(P: Poset) -> int:
    """An upper bound on P's number of order ideals, from a greedy chain partition.

    Elements are taken bottom-up; each joins the chain whose top it
    covers, if one of its lower covers is still a chain's top, and starts
    a new chain otherwise.  Consecutive members of a chain are covers, so
    each chain C is totally ordered, and the chains partition P.  An
    ideal I is down-closed, so I & C is a prefix of C: one of |C| + 1
    choices.  I is the union of its parts I & C, so I -> (I & C)_C is
    injective and |J(P)| <= prod_C (|C| + 1).  O(n + covers).
    """
    upper, lower = P._upper, P._lower
    pending = [len(below) for below in lower]
    ready = [v for v in range(P.n) if not pending[v]]
    chain_of = [0] * P.n
    tops: list[int] = []
    lengths: list[int] = []
    for v in ready:  # grows as elements become ready
        for u in lower[v]:
            c = chain_of[u]
            if tops[c] == u:
                break
        else:
            c = len(tops)
            tops.append(v)
            lengths.append(0)
        chain_of[v] = c
        tops[c] = v
        lengths[c] += 1
        for w in upper[v]:
            pending[w] -= 1
            if not pending[w]:
                ready.append(w)
    return math.prod(length + 1 for length in lengths)


def compile_ideal_lattice(P: Poset) -> IdealLattice:
    """Walk the lattice of order ideals once, a level at a time.

    Each ideal of the live level carries its bitmask and its addable
    mask: the elements outside it whose strict downset lies inside it.  A
    new ideal's addable mask is its first parent's minus the added element
    plus those upper covers of that element that became addable, so a step
    costs O(covers), not O(n).  The masks of a level are dropped once the
    next level is built.  Raises :class:`ExtensionLimitError` when P has
    more than ``IDEAL_LIMIT`` ideals, however few elements P has.

    When :func:`_chain_bound` proves that P has at most ``IDEAL_LIMIT``
    ideals, the walk starts at once: no refusal can happen (chain(2000)
    has a bound of 2,001).  Otherwise, before the walk allocates
    anything, :func:`_frontier_ideal_count` sweeps P once: its running
    count of the ideals of the elements taken so far is a lower bound on
    P's, so it refuses as soon as that count passes ``IDEAL_LIMIT``
    (Young 12x12 in about 1 ms, where the walk would meet 65,536 ideals
    first).  Its work is capped at ``IDEAL_LIMIT`` state updates; a sweep
    that spends them decides nothing, and the walk refuses at its own
    per-ideal check.
    """
    if _chain_bound(P) > IDEAL_LIMIT:
        _frontier_ideal_count(P)
    below = tuple(d ^ (1 << v) for v, d in enumerate(P._dn))
    upper = P._upper
    level_sizes = [1]
    first = array("i", [-1])
    added = array("i", [-1])
    successor_start = array("i", [0])
    successors = array("i")
    masks, addables = [0], [mask_of(v for v in range(P.n) if not below[v])]
    for _ in range(P.n):
        i = len(first) - len(masks)
        index: dict[int, int] = {}
        next_masks: list[int] = []
        next_addables: list[int] = []
        for mask, addable in zip(masks, addables):
            rest = addable
            while rest:
                low = rest & -rest
                rest ^= low
                grown = mask | low
                j = index.get(grown)
                if j is None:
                    j = index[grown] = len(first)
                    if j >= IDEAL_LIMIT:
                        raise ExtensionLimitError(_REFUSAL)
                    v = low.bit_length() - 1
                    reach = addable ^ low
                    for w in upper[v]:
                        if not below[w] & ~grown:
                            reach |= 1 << w
                    next_masks.append(grown)
                    next_addables.append(reach)
                    first.append(i)
                    added.append(v)
                successors.append(j)
            successor_start.append(len(successors))
            i += 1
        level_sizes.append(len(next_masks))
        masks, addables = next_masks, next_addables
    successor_start.append(len(successors))  # the whole poset covers no ideal
    return IdealLattice(tuple(level_sizes), first, added, successor_start, successors)


def fold_ideal_lattice(lattice: IdealLattice, weights: Sequence[int]) -> tuple[int, int]:
    """Sum over the maximal chains of ideals of prod_k 1 / S(J_k), as integers U and M.

    ``weights`` gives each element a positive integer c_p, and S(J) is the
    sum of c_p over the ideal J.  Let W(empty) = 1 and W(J) be the sum of
    W(I) over the ideals I that J covers, divided by S(J); W(P) is the
    chain sum.  S(J) = S(first parent) + c_(added element) costs one
    addition per ideal.

    The fold runs on reduced integers.  U(empty) = 1 and M_0 = 1.  Once
    level k - 1 has pushed its values, ideal J on level k holds R(J), the
    sum of U(I) over the ideals I it covers.  Let g = gcd(R(J), S(J)),
    m_k the lcm of S(J) / g over the level, and
    U(J) = (R(J) / g) * (m_k * g / S(J)).  S(J) / g divides m_k, so U(J)
    is an integer.  Claim: W(J) = U(J) / M_k with M_k = m_1 * ... * m_k.
    By induction each I on level k - 1 has W(I) = U(I) / M_(k-1), so
    W(J) = R(J) / (S(J) * M_(k-1)) = (R(J) / g) / ((S(J) / g) * M_(k-1)),
    and multiplying top and bottom by m_k / (S(J) / g) gives
    U(J) / (m_k * M_(k-1)) = U(J) / M_k.  Returns U(P) and M = M_n, so
    W(P) = U(P) / M.  Dividing out g before the lcm keeps the integers
    near the size of the reduced values: with the lcm of the raw S(J),
    every level multiplies by factors that R(J) already cancels, and at
    a random point of Young 8x8 the values grow past 200,000 bits where
    these stay under 1,000.  S(J) is a small integer, so each gcd costs
    about one pass over R(J).

    With every weight 1, S(J) = k on level k, and the fold keeps the
    unreduced form m_k = k: U(J) counts the maximal chains from the
    empty ideal to J and U(P) = e(P); the fold then skips the sums, the
    gcds and the scaling, and M is n!.
    """
    first, added = lattice.first, lattice.added
    start, successors = lattice.successor_start, lattice.successors
    value = [0] * len(first)
    value[0] = 1
    unit = all(w == 1 for w in weights)
    if not unit:
        sums = [0] * len(first)
        for j in range(1, len(first)):
            sums[j] = sums[first[j]] + weights[added[j]]
    product = 1
    lo = 0
    for size in lattice.level_sizes:
        hi = lo + size
        if lo and not unit:
            # d = S(J) / g, so R(J) / g = R(J) // (S(J) // d)
            reduced = [sums[j] // math.gcd(value[j], sums[j]) for j in range(lo, hi)]
            level_lcm = math.lcm(*reduced)
            product *= level_lcm
            for j, d in zip(range(lo, hi), reduced):
                value[j] = value[j] // (sums[j] // d) * (level_lcm // d)
        for i in range(lo, hi):
            v = value[i]
            for j in successors[start[i] : start[i + 1]]:
                value[j] += v
        lo = hi
    return value[-1], math.factorial(len(lattice.level_sizes) - 1) if unit else product


def fold_columns(lattice: IdealLattice, rows: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """:func:`fold_ideal_lattice` on many weight rows in one walk: one (U, M) per row.

    Every ideal carries one value and one sum S(J) per row, added a row
    at a time by ``map``, and each level is reduced per row by that row's
    own gcds and level lcm, as there.  So each pair is the scalar fold's,
    except that an all-ones row is reduced too (U / M is still e(P) / n!).
    Only two levels are live, the one pushing and the one pushed to, so
    memory grows with the widest level times the rows.  One row costs
    about three scalar folds, so a single weight sum keeps the scalar fold.
    """
    if not rows:
        return []
    count = len(rows)
    by_element = list(zip(*rows))  # element e's weight in every row
    first, added = lattice.first, lattice.added
    start, successors = lattice.successor_start, lattice.successors
    values, sums, products = [[1] * count], [[0] * count], [1] * count
    lo = 0  # the live level's first ideal
    for size in lattice.level_sizes[1:]:
        hi = lo + len(values)
        pushed: list = [None] * size
        for i, value in enumerate(values, lo):
            for j in successors[start[i] : start[i + 1]]:
                seen = pushed[j - hi]
                pushed[j - hi] = value if seen is None else list(map(add, seen, value))
        sums = [list(map(add, sums[first[j] - lo], by_element[added[j]])) for j in range(hi, hi + size)]
        gcds = [list(map(math.gcd, r, s)) for r, s in zip(pushed, sums)]
        reduced = [list(map(floordiv, s, g)) for s, g in zip(sums, gcds)]
        lcms = list(map(math.lcm, *reduced))
        products = list(map(mul, products, lcms))
        values = [
            list(map(mul, map(floordiv, r, g), map(floordiv, lcms, d))) for r, g, d in zip(pushed, gcds, reduced)
        ]
        lo = hi
    return list(zip(values[0], products))


def count_linear_extensions(P: Poset) -> int:
    """Exact number of linear extensions: ``analyze(P).extension_count``.

    That count folds the ideal lattice of P's live analysis with every
    weight 1, so a lattice or count some caller's analysis already holds
    is not walked again.  A poset with more than ``IDEAL_LIMIT`` order
    ideals raises :class:`ExtensionLimitError`.
    """
    from .analysis import analyze

    return analyze(P).extension_count


def order_ideal_masks(P: Poset) -> Iterator[int]:
    """All downset bitmasks, the empty set included, smallest ideals first.

    Each mask is its first parent's plus the added element.  Raises
    :class:`ExtensionLimitError` past ``IDEAL_LIMIT`` ideals.
    """
    lattice = compile_ideal_lattice(P)
    masks = [0]
    for i in range(1, len(lattice.first)):
        masks.append(masks[lattice.first[i]] | 1 << lattice.added[i])
    yield from masks

