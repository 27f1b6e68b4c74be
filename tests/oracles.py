"""Brute-force oracles: each checked quantity defined once, as its definition states it.

The tests compare the package with these: scans over every subset, pair
or upper set, and dicts and Fractions where the package runs compiled
masks and integer kernels.  An oracle may be cached only when it reads
nothing but its arguments and calls nothing in ``dcposets``: tests patch
seams such as ``rsk._toggle_all`` and ``verify.fold_columns``, and a
cached call into the package could hide a mutant.  The one cache,
``_upper_set_diagonals``, predates that rule; it caches ``analyze``'s
diagonals of upper sets, and no test patches the structure or diagonal
layers.  ``_reference_hook_vectors`` would qualify but is not cached:
holding every poset's vectors for the whole run slowed the timed tests
that follow it.
"""

import functools
import math
import operator
from bisect import insort
from fractions import Fraction
from itertools import combinations
from random import Random

import numpy as np

from dcposets import Poset, all_ones_point, analyze, d_k_one, inverse_rsk, rsk, verify
from dcposets.diagonals import DiagonalFailure, DiagonalReport
from dcposets.dstructure import DMinusConvexSet, StructureFailure, StructureReport
from dcposets.poset import bits, mask_of
from dcposets.rsk import NonGenericPoint
from dcposets.verify import BijectionReport

from conftest import is_adjacent, is_convex, is_isomorphic, lt, restrict, upper_set_masks


# -- order, linear extensions and diagrams ------------------------------------


def _brute_force_order(n, pairs):
    """Reflexive-transitive closure by Warshall's algorithm, and its covers."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    for k in range(n):
        for a in range(n):
            if leq[a][k]:
                for b in range(n):
                    leq[a][b] = leq[a][b] or leq[k][b]
    covers = {
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b
        and leq[a][b]
        and not any(c not in (a, b) and leq[a][c] and leq[c][b] for c in range(n))
    }
    return leq, covers


def _recursive_extensions(P):
    """Depth-first enumeration by recursion: smallest eligible id first."""
    seq = []

    def rec(remaining):
        if not remaining:
            yield tuple(seq)
            return
        for v in range(P.n):
            low = 1 << v
            if remaining & low and P.upset_mask(v) & remaining == low:
                seq.append(v)
                yield from rec(remaining ^ low)
                seq.pop()

    return rec((1 << P.n) - 1)


def _reference_diagram(shape, shifted):
    """Young or shifted Young diagram built box by box: (n, covers, names, box ids)."""
    if shifted:
        boxes = [(i, j) for i, row in enumerate(shape, start=1) for j in range(i, i + row)]
    else:
        boxes = [(i, j) for i, row in enumerate(shape, start=1) for j in range(1, row + 1)]
    index = {box: e for e, box in enumerate(boxes)}
    covers = set()
    for (i, j), e in index.items():
        for above in ((i - 1, j), (i, j - 1)):
            if above in index:
                covers.add((e, index[above]))
    names = {e: f"{i},{j}" for (i, j), e in index.items()}
    return len(boxes), frozenset(covers), names, index


# -- d^- convex sets, d-intervals and the structural facts --------------------


def _dminus_model(k: int) -> Poset:
    """d_k(1) with its maximum removed, built independently."""
    full = d_k_one(k)
    sub, _ = restrict(full, range(full.n - 1))
    return sub


def _brute_force_dminus(P: Poset, kmax: int = 6):
    """Oracle: scan all subsets of the right sizes for convex + isomorphic."""
    found = set()
    for k in range(3, kmax + 1):
        size = 2 * k - 3
        if size > P.n:
            break
        model = _dminus_model(k)
        for subset in combinations(range(P.n), size):
            if not is_convex(P, subset):
                continue
            sub, _ = restrict(P, subset)
            if is_isomorphic(sub, model):
                found.add(frozenset(subset))
    return found


def _brute_force_d_intervals(P: Poset, kmax: int = 6):
    """Oracle: scan all intervals of size 2k-2 for isomorphism with d_k(1)."""
    found = set()
    for p in range(P.n):
        for q in range(P.n):
            if p == q or not P.leq(p, q):
                continue
            members = P.interval(p, q)
            size = len(members)
            if size % 2 or not 4 <= size <= 2 * kmax - 2:
                continue
            sub, _ = restrict(P, members)
            if is_isomorphic(sub, d_k_one(size // 2 + 1)):
                found.add((p, q, members))
    return found


def _grow(P: Poset, sides, tail: list, neck: list, out: list) -> None:
    """Grow tail and neck in lockstep by recursion, pruning by the all-pairs convexity check."""
    if not is_convex(P, list(sides) + tail + neck):
        return
    out.append(
        DMinusConvexSet(
            k=len(tail) + 2,
            bottom=tail[-1],
            sides=sides,
            neck=tuple(reversed(neck)),
            tail=tuple(tail),
        )
    )
    if neck:
        next_necks = P.upper_covers(neck[-1])
    else:
        next_necks = tuple(set(P.upper_covers(sides[0])) & set(P.upper_covers(sides[1])))
    for nt in P.lower_covers(tail[-1]):
        for nn in next_necks:
            _grow(P, sides, tail + [nt], neck + [nn], out)


def _reference_dminus(P: Poset):
    """The all-pairs scan: every incomparable pair with a common lower cover."""
    out = []
    for s1 in range(P.n):
        for s2 in range(s1 + 1, P.n):
            if not P.incomparable(s1, s2):
                continue
            for t in set(P.lower_covers(s1)) & set(P.lower_covers(s2)):
                _grow(P, (s1, s2), [t], [], out)
    return tuple(sorted(out, key=lambda s: (s.k, s.bottom, tuple(sorted(s.members)))))


def _reference_forbidden(P: Poset):
    """The all-pairs scan for the six-element double-cover configuration."""
    n = P.n
    shared = {}
    for a in range(n):
        for b in range(a + 1, n):
            if P.incomparable(a, b):
                common = tuple(set(P.lower_covers(a)) & set(P.lower_covers(b)))
                if common:
                    shared[(a, b)] = common
    for q1, q2 in shared:
        for q3 in range(q2 + 1, n):
            if not (P.incomparable(q1, q3) and P.incomparable(q2, q3)):
                continue
            for p1 in shared.get((q2, q3), ()):
                for p2 in shared.get((q1, q3), ()):
                    if p2 == p1:
                        continue
                    for p3 in shared.get((q1, q2), ()):
                        if p3 not in (p1, p2):
                            return (p1, p2, p3, q1, q2, q3)
    return None


def _reference_structure_report(P: Poset, intervals) -> StructureReport:
    """The structural facts checked on ``members`` frozensets."""
    failures = []
    for v in range(P.n):
        if len(P.upper_covers(v)) > 2:
            failures.append(StructureFailure("cover-bound", (v,) + P.upper_covers(v)))
    for interval in intervals:
        members = interval.members
        for x in interval.neck:
            for below in P.lower_covers(x):
                if below not in members:
                    failures.append(
                        StructureFailure("interval-closure", (interval.bottom, interval.top, x, below))
                    )
        for x in interval.tail:
            for above in P.upper_covers(x):
                if above not in members:
                    failures.append(
                        StructureFailure("interval-closure", (interval.bottom, interval.top, x, above))
                    )
    config = _reference_forbidden(P)
    if config is not None:
        failures.append(StructureFailure("forbidden-configuration", config))
    by_bottom, by_top = {}, {}
    for interval in intervals:
        by_bottom.setdefault(interval.bottom, []).append(interval)
        by_top.setdefault(interval.top, []).append(interval)
    for p, group in sorted(by_bottom.items()):
        if len(group) > 1:
            failures.append(StructureFailure("unique-bottom", (p,) + tuple(iv.top for iv in group)))
    for p, group in sorted(by_top.items()):
        if len(group) > 1:
            failures.append(StructureFailure("unique-top", (p,) + tuple(iv.bottom for iv in group)))
    for interval in intervals:
        for x in interval.neck:
            owners = by_top.get(x, [])
            if len(owners) != 1 or not owners[0].members <= interval.members:
                failures.append(StructureFailure("neck-containment", (interval.bottom, interval.top, x)))
        for x in interval.tail:
            owners = by_bottom.get(x, [])
            if len(owners) != 1 or not owners[0].members <= interval.members:
                failures.append(StructureFailure("tail-containment", (interval.bottom, interval.top, x)))
    return StructureReport(ok=not failures, failures=tuple(failures))


# -- the six diagonal properties ----------------------------------------------


@functools.lru_cache(maxsize=None)
def _upper_set_diagonals(P, um):
    """The upper set ``um`` of P rebuilt as a fresh poset: its old ids and its diagonals.

    Both depend only on P and the mask, so each upper set is analyzed once
    however many partitions of P the reference report checks.
    """
    sub, old_ids = restrict(P, bits(um))
    return old_ids, analyze(sub).diagonals


def _reference_diagonal_report(P, part, intervals) -> DiagonalReport:
    """The six properties with (3) and (5) checked on every upper set, each
    rebuilt as a fresh poset and analyzed anew."""
    failures = []

    spans = {(iv.bottom, iv.top) for iv in intervals}
    for members in part.classes:
        ordered = sorted(members, key=lambda v: bin(P.downset_mask(v)).count("1"))
        for a, b in zip(ordered, ordered[1:]):
            if (a, b) not in spans:
                failures.append(DiagonalFailure(1, (a, b)))

    for a, b in P.covers:
        if part.diagonal_of[a] == part.diagonal_of[b]:
            failures.append(DiagonalFailure(2, (a, b)))

    minimal_in_p = set(P.minimal_elements())
    minima = [min(members, key=lambda v: (bin(P.downset_mask(v)).count("1"), v)) for members in part.classes]

    for c, d in part.adjacent:
        for first, second in ((c, d), (d, c)):
            if minima[first] in minimal_in_p:
                for x in part.classes[second]:
                    touches = any(
                        part.diagonal_of[y] == first
                        for y in P.upper_covers(x) + P.lower_covers(x)
                    )
                    if not touches:
                        failures.append(DiagonalFailure(4, (first, second, x)))

    for c, d in part.adjacent:
        if minima[c] in minimal_in_p and minima[d] in minimal_in_p:
            failures.append(DiagonalFailure(6, (c, d, minima[c], minima[d])))

    for um in upper_set_masks(P):
        if um == 0:
            continue
        old_ids, subpart = _upper_set_diagonals(P, um)
        p_to_u = {}
        u_to_p = {}
        for new, old in enumerate(old_ids):
            dp, du = part.diagonal_of[old], subpart.diagonal_of[new]
            seen_u, a = p_to_u.setdefault(dp, (du, old))
            seen_p, b = u_to_p.setdefault(du, (dp, old))
            if seen_u != du:
                failures.append(DiagonalFailure(3, (a, old, um)))
            elif seen_p != dp:
                failures.append(DiagonalFailure(3, (b, old, um)))
        for c, d in combinations(sorted(p_to_u), 2):
            if is_adjacent(part, c, d) != is_adjacent(subpart, p_to_u[c][0], p_to_u[d][0]):
                failures.append(DiagonalFailure(5, (c, d, um)))

    failures.sort(key=lambda f: (f.prop, f.witness))
    return DiagonalReport(ok=not failures, failures=tuple(failures))


# -- hook lengths and hook vectors --------------------------------------------


def classical_hook_length(shape, i, j):
    """Arm + leg + 1 for a 1-based cell of a partition shape."""
    arm = shape[i - 1] - j
    leg = sum(1 for row in shape[i:] if row >= j)
    return arm + leg + 1


def _reference_hook_vectors(P, part, intervals, order=None):
    """Hook vector of every element, indexed by diagonal id.

    An element that tops no d-interval counts, per diagonal, the elements
    it nonstrictly dominates; the top of the d-interval [b, p] with sides
    w, z gets h(w) + h(z) - h(b).  Elements are processed along ``order``,
    which lists them bottom-up, or by downset size when it is None; any
    bottom-up order gives the same result.  The intervals must be
    those of a d-complete poset, in which each element tops at most one:
    :attr:`PosetAnalysis.hook_vectors` checks the axioms first.
    """
    top_interval = {interval.top: interval for interval in intervals}
    class_masks = [mask_of(members) for members in part.classes]
    if order is None:
        order = sorted(range(P.n), key=lambda v: P._dn[v].bit_count())
    vectors = [()] * P.n
    for p in order:
        interval = top_interval.get(p)
        if interval is None:
            dn = P._dn[p]
            vectors[p] = tuple((dn & cm).bit_count() for cm in class_masks)
        else:
            w, z = interval.sides
            hw, hz, hb = vectors[w], vectors[z], vectors[interval.bottom]
            vectors[p] = tuple(a + b - c for a, b, c in zip(hw, hz, hb))
    return tuple(vectors)


def _dense_numerators(vectors, x):
    """Every H_p(x) as the dense dot product h_p . c, with x = c / L over its least common denominator."""
    x = [Fraction(v) for v in x]
    denom = math.lcm(*(v.denominator for v in x))
    c = [int(v * denom) for v in x]
    return [sum(map(operator.mul, vector, c)) for vector in vectors], denom


# -- toggles, insertion, its inverse and the Jacobian -------------------------
#
# The dict-based insertion and the finite-difference Jacobian are the
# straightforward forms of the kernel; the compiled integer kernel must agree
# with them value for value.


def _reference_toggle(P, state, p):
    above = [state[u] for u in P.upper_covers(p) if u in state]
    below = [state[v] for v in P.lower_covers(p) if v in state]
    out = dict(state)
    out[p] = (max(above) if above else 0) + (min(below) if below else 0) - state[p]
    return out


def _reference_is_order_reversing(P, s):
    """Order-reversing by definition: s_a >= s_b for every a <= b, compared as Fractions."""
    values = [Fraction(v) for v in s]
    return all(values[a] >= values[b] for a in range(P.n) for b in range(P.n) if P.leq(a, b))


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


def _reference_program(P, part, order):
    """The toggle program along ``order``, compiled step by step as the insertion meets it.

    Per inserted element c: the members of c's diagonal inserted so far, in
    insertion order, each with its upper covers and the lower covers
    inserted so far, by id.  The oracle for the step table, which claims
    the same steps for every descending extension.
    """
    below = [[] for _ in range(P.n)]
    los = [()] * P.n
    inserted = [[] for _ in range(part.count)]
    program = []
    for c in order:
        for u in P.upper_covers(c):
            insort(below[u], c)
            los[u] = tuple(below[u])
        members = inserted[part.diagonal_of[c]]
        members.append(c)
        program.append((c, tuple([(e, P.upper_covers(e), los[e]) for e in members])))
    return tuple(program)


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
    t = tuple(map(Fraction, t))
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


def _dense_jacobian_rows(P, a, order, t):
    """The reference image, and the Jacobian's rows replayed densely from its choices."""
    trace = []
    image = _reference_insertion(P, a, order, t, trace)
    zero = [0] * P.n
    rows = [zero] * P.n
    part = a.diagonals
    toggles = iter(trace)
    present = set()
    for c in order:
        present.add(c)
        rows[c] = [-1 if j == c else 0 for j in range(P.n)]
        for _ in present.intersection(part.classes[part.diagonal_of[c]]):
            e, up, lo = next(toggles)
            up_row = rows[up] if up >= 0 else zero
            lo_row = rows[lo] if lo >= 0 else zero
            rows[e] = [x + y - z for x, y, z in zip(up_row, lo_row, rows[e])]
    return image, rows


# -- the stable insertion order -----------------------------------------------


def _reference_stable_order(P):
    """The stable order built with all-pairs containment and comparability scans."""
    intervals = [(iv, iv.member_mask) for iv in analyze(P).d_intervals]
    remaining = (1 << P.n) - 1
    reversed_order = []
    while remaining:
        present = [(iv, m) for iv, m in intervals if m & remaining == m]
        covered = 0
        for _, m in present:
            covered |= m
        free = [p for p in P.minimal_in_mask(remaining) if not (covered >> p) & 1]
        if free:
            c = min(free)
        else:
            maximal = [
                iv for iv, m in present if not any(m2 != m and m | m2 == m2 for _, m2 in present)
            ]
            tops = [iv.diamond_top for iv in maximal]
            lowest = [
                iv
                for iv in maximal
                if not any(t != iv.diamond_top and lt(P, t, iv.diamond_top) for t in tops)
            ]
            c = min(lowest, key=lambda iv: (iv.diamond_top, iv.bottom)).bottom
        reversed_order.append(c)
        remaining ^= 1 << c
    return tuple(reversed(reversed_order))


def _reference_is_stable(P, order, intervals):
    """Stability by scanning every completed interval's neck for each side."""
    by_bottom = {}
    for interval in intervals:
        by_bottom.setdefault(interval.bottom, []).append(interval)
    present = []
    for p in order:
        fresh = by_bottom.get(p, [])
        present.extend(fresh)
        for interval in fresh:
            for side in interval.sides:
                for other in present:
                    if other is not interval and side in other.neck:
                        return False
    return True


# -- the ideal lattice and the weight sum -------------------------------------


def _reference_ideal_levels(P, finish=None):
    """The dict-of-levels walk the compiled lattice replaced, kept as the reference.

    Each level maps an ideal's bitmask to ``[value, addable]``; ``value``
    sums the values of the ideals it covers (1 for the empty ideal) and is
    replaced by ``finish(mask, value)`` when ``finish`` is given.
    """
    below = tuple(d ^ (1 << v) for v, d in enumerate(P._dn))
    level = {0: [1, sum(1 << v for v in range(P.n) if not below[v])]}
    for _ in range(P.n):
        yield level
        nxt = {}
        for mask, (value, addable) in level.items():
            rest = addable
            while rest:
                low = rest & -rest
                rest ^= low
                grown = mask | low
                if grown in nxt:
                    nxt[grown][0] += value
                    continue
                reach = addable ^ low
                for w in P._upper[low.bit_length() - 1]:
                    if not below[w] & ~grown:
                        reach |= 1 << w
                nxt[grown] = [value, reach]
        if finish is not None:
            for mask, entry in nxt.items():
                entry[0] = finish(mask, entry[0])
        level = nxt
    yield level


def _reference_weight_sum(P, part, x):
    """Weight sum by a Fraction per ideal: its covered values' sum over its x-sum."""
    scale = math.lcm(*(v.denominator for v in x))
    diagonal_masks = [0] * part.count
    for p in range(P.n):
        diagonal_masks[part.diagonal_of[p]] |= 1 << p
    scaled = [(int(v * scale), m) for v, m in zip(x, diagonal_masks)]

    def finish(mask, total):
        return Fraction(total, sum(c * (mask & m).bit_count() for c, m in scaled))

    for level in _reference_ideal_levels(P, finish):
        pass
    return level[(1 << P.n) - 1][0] * Fraction(scale) ** P.n


# -- the fillings and rpp polytopes -------------------------------------------


def _reference_sample(hooks, gaps):
    """The fillings-polytope point of one sampler row on Fractions: each gap over GRAIN
    divided by its hook."""
    return tuple(Fraction(g, verify.GRAIN) / h for g, h in zip(gaps, hooks))


def _reference_inside(P, a, kind, x, v):
    """The defining inequalities of the two polytopes, on Fractions."""
    if any(value < 0 for value in v):
        return False
    if kind == "fillings":
        return sum(h * value for h, value in zip(a.hook_polynomials(x), v)) <= 1
    if any(v[lo] < v[hi] for lo, hi in P.covers):
        return False
    return sum(x[a.diagonals.diagonal_of[p]] * v[p] for p in range(P.n)) <= 1


def _reference_polytope_check(P, a, x, trials, seed):
    """rsk_polytope_check on Fractions, each check written as its definition states it."""
    if x is None:
        x = all_ones_point(a.diagonals.count)
    rows = verify._simplex_gap_rows(P.n, trials, Random(seed)).tolist()
    hooks = a.hook_polynomials(x)
    failures = []
    for trial in range(trials):
        t = _reference_sample(hooks, rows[trial])
        if not _reference_inside(P, a, "fillings", x, t):
            failures.append((trial, "source-membership", t))
            continue
        s = rsk(P, t, analysis=a)
        if not _reference_inside(P, a, "rpp", x, s):
            failures.append((trial, "image-membership", t, s))
        lhs = sum((x[a.diagonals.diagonal_of[p]] * s[p] for p in range(P.n)), Fraction(0))
        rhs = sum((h * v for h, v in zip(hooks, t)), Fraction(0))
        if lhs != rhs:
            failures.append((trial, "weighted-sum", lhs, rhs))
        if inverse_rsk(P, s, analysis=a) != t:
            failures.append((trial, "round-trip", t, s))
    return BijectionReport(trials=trials, seed=seed, ok=not failures, failures=tuple(failures))


# -- Monte Carlo volumes ------------------------------------------------------


def _simplex_points(rng, samples, n):
    """K ~ Binomial(samples, 1/n!) uniform points of {u >= 0, sum u <= 1}, drawn at once.

    n + 1 exponentials per row, divided by their sum added column by
    column, first n kept.
    """
    inside = int(rng.binomial(samples, 1 / math.factorial(n)))
    e = rng.standard_exponential(size=(inside, n + 1))
    total = e[:, 0]
    for j in range(1, n + 1):
        total = total + e[:, j]
    return e[:, :n] / total[:, None]


def _column_dot(pts, coefficients):
    """pts[:, 0] * c_0 + pts[:, 1] * c_1 + ..., column by column."""
    return sum((pts[:, p] * c for p, c in enumerate(coefficients)), np.zeros(len(pts)))


def _reference_monte_carlo_volume(P, spec, samples, seed, a):
    """The per-spec loop: one fresh stream per polytope, its simplex points drawn at once."""
    x = spec.x
    n = P.n
    rng = np.random.default_rng(seed)
    if spec.kind == "fillings":
        coefficients = [float(h) for h in a.hook_polynomials(x)]
        edge = float(max(Fraction(1) / h for h in a.hook_polynomials(x)))
        cover_pairs = []
    else:
        coefficients = [float(x[a.diagonals.diagonal_of[p]]) for p in range(n)]
        edge = float(1 / min(x))
        cover_pairs = sorted(P.covers)
    box_volume = edge**n
    pts = _simplex_points(rng, samples, n) * edge
    inside = _column_dot(pts, coefficients) <= 1.0
    for low, high in cover_pairs:
        inside &= pts[:, low] >= pts[:, high]
    hits = int(inside.sum())
    rate = hits / samples
    return verify.VolumeEstimate(
        kind=spec.kind,
        samples=samples,
        seed=seed,
        hits=hits,
        box_volume=box_volume,
        estimate=rate * box_volume,
        std_error=math.sqrt(rate * (1.0 - rate) / samples) * box_volume,
    )


def _box_monte_carlo_hits(cases, samples, seed):
    """Hit counts of the box sampler, the law the simplex points must keep.

    The box sampler of ``monte_carlo_volumes`` at f4176d2: per size, one
    stream of box points edge * U with U uniform on [0, 1)^n, in
    2**14-row batches; only the rows with sum U <= 1 + 1e-9 reach a
    case's test.  That filter keeps every hit because each case's
    edge * c_p >= 1, the premise test_monte_carlo_candidates_keep_every_hit
    checks.
    """
    tests = [verify._volume_test(P, spec, a) for P, spec, a in cases]
    hits = [0] * len(cases)
    groups = {}
    for i, ((P, _, _), (edge, _, _)) in enumerate(zip(cases, tests)):
        groups.setdefault(P.n, {}).setdefault(edge, []).append(i)
    for n, by_edge in groups.items():
        rng = np.random.default_rng(seed)
        done = 0
        while done < samples:
            take = min(1 << 14, samples - done)
            drawn = rng.random((take, n))
            candidates = drawn[drawn.sum(axis=1) <= 1.0 + 1e-9]
            for edge, members in by_edge.items():
                box = candidates * edge
                for i in members:
                    _, coefficients, cover_pairs = tests[i]
                    ok = box @ np.array(coefficients) <= 1.0
                    for low, high in cover_pairs:
                        ok &= box[:, low] >= box[:, high]
                    hits[i] += int(np.count_nonzero(ok))
            done += take
    return hits
