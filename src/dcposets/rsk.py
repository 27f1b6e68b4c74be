"""Toggle operations and the insertion bijection between fillings.

The map sends nonnegative fillings to order-reversing fillings by
inserting elements along a descending linear extension: the new element
is labeled with the negated input value, then every present element of
its diagonal is toggled.  A toggle replaces a label by
``max(labels of covering elements) + min(labels of covered elements) - label``,
with missing neighbors contributing 0.

What inserting an element c toggles depends on c alone, whatever the
descending extension (:func:`insertion_steps` proves it).  So each poset
has one step table, cached on :class:`~dcposets.analysis.PosetAnalysis`,
and the toggle program of an order, per inserted element its step, is a
lookup in it.  One runner, ``_run``, runs a program in place, forward or
backward, through one step function, ``_toggle_all``, on a list of
integer labels or on a label matrix: a numpy array whose row p holds
element p's label in every column, one column per filling.  Its dtype
follows a proved bound (:func:`_label_matrix`): ``np.int64`` when
:func:`program_growth`'s recursion over the program shows that every
value the caller reaches stays below 2**62, and ``dtype=object``,
holding Python ints, past it.  On d-complete posets no side has more
than two candidates, so the step reads every side that is neither empty
nor a lone candidate from two labels: a list compares them once, and a
matrix takes the element-wise ``np.maximum`` or ``np.minimum`` of their
rows.  A longer side raises ``ValueError``.  The battery's trials on the
stable program (diagonal sums, the polytope bijection) run as one
matrix, where one row operation does the work of a hundred scalar
toggles.  ``rsk`` and ``inverse_rsk`` are the Fraction edges over them.
The Jacobian builds no matrix and records nothing: its determinant is
the parity of the step table's toggle count, and its one run is ``_run``
with ``_strict_step``, a step that reads each side as ``_toggle_all``
does on a list but refuses a tie.  Criterion 6 runs the kernel and that
same strict step on X = K T + v, T a drawn filling and v a random
direction: K is large enough that every side not tied at T chooses at X
as at T, and v breaks T's ties, so X ties with probability at most
1/(2V) per pair tied at T, V the direction bound.  Elements of one
diagonal never cover each other, so the toggles of one step read no
label another of them writes: they commute.

Order independence inserts every filling along its own random order, so
no program is shared.  ``_random_order_insertion`` draws each order one
pick at a time and runs each pick's step, read from the table, through
``_toggle_all`` as it is drawn.

Integer labels are exact because the map is positively homogeneous: a
toggle is max + min - label, and negation and toggling commute with
multiplying every label by the same positive constant.  So the image of
T/L, for integer labels T over a common denominator L > 0, is the image
of T over the same L, and comparisons of labels over one shared positive
denominator are comparisons of the rationals they stand for.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable, Iterable, Sequence

from .analysis import PosetAnalysis, _resolve, analyze
from .diagonals import DiagonalPartition
from .dstructure import DInterval
from .hooks import exact_labels, random_rational_point
from .poset import Poset, _require_order, mask_of

Filling = tuple[Fraction, ...]
# One toggle: (element, candidate upper covers, candidate lower covers).  A
# side without present covers is empty, and reads as 0.
Toggle = tuple[int, tuple[int, ...], tuple[int, ...]]
# Per element, by id: the toggles of inserting it (:func:`insertion_steps`).
Steps = tuple[tuple[Toggle, ...], ...]
# Per inserted element, in insertion order: (element, its step's toggles).
Program = tuple[tuple[int, tuple[Toggle, ...]], ...]


class NonGenericPoint(RuntimeError):
    """A tie in a toggle selection prevented local-linearity detection."""


_TIE = "tie between toggle candidates at the base point"


def _nonnegative_labels(n: int, filling) -> tuple[list[int], int]:
    """A nonnegative filling's integer labels over its common denominator, and that denominator.

    The sign is checked on the labels: the denominator is positive, so
    each label has its value's sign.
    """
    labels, denom = exact_labels(filling, n, "filling", "elements")
    if min(labels, default=0) < 0:
        bad = next(i for i, v in enumerate(labels) if v < 0)
        raise ValueError(f"filling must be nonnegative; element {bad} has value {Fraction(labels[bad], denom)}")
    return labels, denom


def is_order_reversing(P: Poset, s) -> bool:
    """True iff a filling's labels weakly decrease going up the order.

    ``s`` is read by :func:`hooks.exact_labels`, so it must give every
    element an exact value.  The covers are compared on its integer
    labels over one positive common denominator, which order as the
    values do.
    """
    labels, _ = exact_labels(s, P.n, "filling", "elements")
    return _reverses(P, labels)


def _reverses(P: Poset, labels: Sequence) -> bool:
    """:func:`is_order_reversing` on exact labels, read by element id only."""
    return all(labels[a] >= labels[b] for a, b in P.covers)


# -- the toggle kernel -------------------------------------------------------


def insertion_steps(P: Poset, part: DiagonalPartition) -> Steps:
    """The step table of a d-complete poset: entry c holds the toggles of inserting c.

    Those are the members of c's diagonal above c, top down, each with
    all its upper and lower covers, then c with its upper covers and an
    empty lower side, covers by id: the step inserting c makes along any
    descending extension.  The members inserted before c are exactly those
    above c, because a diagonal is a chain and the order descends.  Such a
    member e and the member w next below it span a d-interval [w, e]
    (diagonal property 1, which criterion 8 checks), and w >= c.  By axiom
    2, e covers only elements strictly inside [w, e], and members of one
    diagonal never cover each other, so all of e's lower covers lie above
    c and are already inserted.  c's own lower covers come after c, and
    every upper cover before.  The caller checks the axioms.
    """
    ups, lows = P._upper, P._lower
    steps: list[tuple[Toggle, ...]] = [()] * P.n
    for members in part.classes:
        above: list[Toggle] = []
        for c in sorted(members, key=lambda e: P._up[e].bit_count()):
            steps[c] = (*above, (c, ups[c], ()))
            above.append((c, ups[c], lows[c]))
    return tuple(steps)


def program_along(steps: Steps, order: Sequence[int]) -> Program:
    """The toggle program of a descending extension ``order``: each element with its step from ``steps``."""
    return tuple(zip(order, map(steps.__getitem__, order)))


def _toggle_all(labels, toggles: Iterable[Toggle], top=None, bottom=None) -> None:
    """The step function: toggle each element against its candidate covers.

    An empty side, with no present cover, reads as the constant 0, which
    broadcasts on a label matrix.  A side with one candidate is read
    directly, on a label list or a label matrix alike: the max or min of
    one label is that label.  A side with two binds both labels and, on
    a list, compares them once: ``a if a > b else b`` above and
    ``a if a < b else b`` below, which give the same value on a tie.  On
    a matrix, where a comparison of rows is no truth value, ``_run``
    passes the binary ufuncs ``np.maximum`` and ``np.minimum`` as
    ``top`` and ``bottom``, and a ``top`` or ``bottom`` given is called
    on the two labels in place of the comparison; the step is the same
    on an ``np.int64`` matrix and a ``dtype=object`` one, and
    :func:`_label_matrix` picks which.  Two is the longest
    side, proved below, so a longer one raises ``ValueError`` at the
    unpack of its two candidates.  In the catalog's step tables 2,085 of
    the 2,126 toggles have an empty side and 1,988 at most one candidate
    on each side; in Young 12x12's, 627 of 650 have a side with two, and
    385 two on each side.

    No side on a d-complete poset has more than two candidates, and the
    bound reads off the step table (:func:`insertion_steps`), whose steps
    make up every program.  An upper side holds every upper cover of e,
    at most two in a d-complete poset (Proctor, J. Algebraic Combin. 9
    (1999) 61-94).  A lower side is empty, or holds every lower cover of
    a member e above the inserted element, all in the d-interval [w, e]
    for w the member next below e; the top of a d-interval covers at
    most two of its elements, the two sides of a d_3-interval or one neck
    element.  ``test_toggle_sides_have_at_most_two_candidates`` pins the
    bound on the tables of the catalog, the seeded joins and large shapes.
    """
    for e, ups, los in toggles:
        if not ups:
            hi = 0
        elif len(ups) == 1:
            hi = labels[ups[0]]
        else:
            x, y = ups
            a = labels[x]
            b = labels[y]
            hi = top(a, b) if top else (a if a > b else b)
        if not los:
            lo = 0
        elif len(los) == 1:
            lo = labels[los[0]]
        else:
            x, y = los
            a = labels[x]
            b = labels[y]
            lo = bottom(a, b) if bottom else (a if a < b else b)
        labels[e] = hi + lo - labels[e]


def _run(labels, program: Program, backward: bool = False, step=None) -> None:
    """Run ``program`` in place on a label list or label matrix, forward or backward.

    Forward negates each step's inserted label, then toggles the step;
    backward undoes the steps in reverse, toggles being involutions.
    ``step`` defaults to :func:`_toggle_all` as named at the call, so a
    replaced one reaches every run.  Handed a matrix, the runner binds the
    binary ufuncs ``np.maximum`` and ``np.minimum``, the element-wise max
    and min of two rows, as the step's ``top`` and ``bottom``; they serve
    an ``np.int64`` matrix and a ``dtype=object`` one alike, and each column
    ends as a run on it alone would, exactly so long as the matrix came
    from :func:`_label_matrix`, whose dtype holds every value the run
    reaches.  A list run calls the step with its
    two arguments only, so it reads a two-candidate side by one
    comparison of the two labels.  Either way a side has at most two
    candidates; a program with a longer one, which no step table of a
    d-complete poset holds, raises ``ValueError``.
    """
    step = step or _toggle_all
    if type(labels) is not list:
        import numpy as np  # a label matrix is a numpy array, so numpy is loaded

        step = partial(step, top=np.maximum, bottom=np.minimum)
    if backward:
        for c, toggles in reversed(program):
            step(labels, toggles)
            labels[c] = -labels[c]
    else:
        for c, toggles in program:
            labels[c] = -labels[c]
            step(labels, toggles)


def program_growth(program: Program) -> tuple[int, int]:
    """How many times the largest |label| it starts from a run of ``program`` can reach: (forward, backward).

    A toggle writes hi + lo - l_e, where |hi| is at most the largest
    |label| on e's upper side and |lo| on its lower side, an empty side
    reading 0, and a negation keeps |l_c|.  So if every label starts at
    most M_p in magnitude, M_e <- M_e + max M over the upper side + max M
    over the lower side, toggle by toggle as the run makes them, bounds
    every label at every step, and M never shrinks: its largest entry at
    the end bounds every value the run reaches.  The recursion is
    positively homogeneous, so it runs once from M = 1 everywhere and the
    bound of a start of largest |label| B is B times the result.  A
    backward run makes the same toggles over the reversed program.  The
    recursion reads the program alone and calls no step, so it holds for
    any program, mutated or not, run by :func:`_toggle_all`.
    """

    def grow(steps) -> int:
        bound = [1] * len(program)
        read = bound.__getitem__
        for _, toggles in steps:
            for e, ups, los in toggles:
                bound[e] += (max(map(read, ups)) if ups else 0) + (max(map(read, los)) if los else 0)
        return max(bound, default=1)

    return grow(program), grow(reversed(program))


# A label matrix is np.int64 while the bound on every value its caller
# reaches stays below this, one bit short of int64's 2**63.
_INT64_REACH = 2**62


def _label_matrix(values, growth: int):
    """``values``, integer rows, as a fresh label matrix: ``np.int64`` where that is proved exact, else Python ints.

    ``growth`` bounds every value the caller computes from the matrix, its
    runs' labels (:func:`program_growth`) and its sums and dot products, as
    a multiple of B, the largest |value| or 1 if that is larger.  When
    B * growth is below ``_INT64_REACH`` the matrix is ``np.int64``, where
    every such value, and every constant at most ``growth`` that the
    caller multiplies by, is exact; otherwise it is ``dtype=object``,
    whose Python ints are exact at any size.  Only this function picks a
    label matrix's dtype (``test_only_the_label_matrix_helper_picks_a_dtype``).
    """
    import numpy as np  # a label matrix is a numpy array, so numpy is loaded

    rows = np.asarray(values)
    top = max(int(rows.max()), -int(rows.min()), 1) if rows.size else 1
    return rows.astype(np.int64 if top * growth < _INT64_REACH else object)


def _program(P: Poset, order, analysis: PosetAnalysis) -> Program:
    """The stable toggle program, or the one along ``order``, read and checked here; the table checks the axioms."""
    if order is None:
        return analysis.insertion_program
    order = _require_order(P, order)
    return program_along(analysis.insertion_steps, order)


def rsk(
    P: Poset,
    filling,
    order: Iterable[int] | None = None,
    *,
    analysis: PosetAnalysis | None = None,
) -> Filling:
    """Image of a nonnegative filling under the insertion bijection.

    The result is order-reversing and independent of the insertion order;
    when none is given a stable insertion order is used.  ``analysis`` is
    read by :func:`analysis._resolve`; it is kept because
    ``perfbench/workloads.py`` passes it and ``perfbench/tracer.py`` binds
    it by name.
    """
    labels, denom = _nonnegative_labels(P.n, filling)
    _run(labels, _program(P, order, _resolve(P, analysis)))
    return tuple(Fraction(v, denom) for v in labels)


def inverse_rsk(
    P: Poset,
    labels,
    order: Iterable[int] | None = None,
    *,
    analysis: PosetAnalysis | None = None,
) -> Filling:
    """Recover the input filling from an order-reversing image.

    Runs the insertion steps backwards; toggles are involutions, so
    undoing the toggles of each step exposes the negated inserted value.
    ``analysis`` is kept, and read, as in :func:`rsk`.
    """
    # The checks read the integer labels: they share one positive denominator.
    state, denom = _nonnegative_labels(P.n, labels)
    if not _reverses(P, state):
        raise ValueError("image filling must be order-reversing")
    _run(state, _program(P, order, _resolve(P, analysis)), backward=True)
    return tuple(Fraction(v, denom) for v in state)


def diagonal_sums(P: Poset, s) -> tuple[Fraction, ...]:
    """Per diagonal of ``analyze(P)``, a filling's :func:`hooks.exact_labels` labels summed, over their denominator."""
    labels, denom = exact_labels(s, P.n, "filling", "elements")
    classes = analyze(P).diagonals.classes
    return tuple(Fraction(sum([labels[p] for p in members]), denom) for members in classes)


# A random input filling: n positive rationals, numerators and denominators in 1..16.
random_filling = random_rational_point


# -- stable insertion orders ----------------------------------------------


def is_stable(P: Poset, order: Sequence[int], intervals: tuple[DInterval, ...]) -> bool:
    """Stability of a descending linear extension, read by :func:`poset._require_order` as ``rsk`` reads one.

    Inserting the bottom of a d-interval is forbidden while a side of that
    interval is a neck element of another d-interval already completed.
    A d-interval is completed exactly when its bottom has been inserted,
    since everything else in it dominates the bottom.  ``intervals`` are
    the d-intervals of P.  One bitmask holds the union of the completed
    intervals' necks, so a side's verdict is one bit test: an interval's
    sides and neck are disjoint by construction in ``find_d_intervals``,
    so any owner is another interval.  A neck is the chain from the
    diamond top up to the top, and nothing else of a d-interval lies
    above its diamond top, so its mask is the interval between the two.
    """
    order = _require_order(P, order)
    by_bottom: dict[int, list[DInterval]] = {}
    for interval in intervals:
        by_bottom.setdefault(interval.bottom, []).append(interval)
    up, dn = P._up, P._dn
    owned = 0
    for p in order:
        fresh = by_bottom.get(p, ())
        for interval in fresh:
            owned |= up[interval.diamond_top] & dn[interval.top]
        for interval in fresh:
            a, b = interval.sides
            if owned & (1 << a | 1 << b):
                return False
    return True


def stable_insertion_order(P: Poset, intervals: tuple[DInterval, ...]) -> tuple[int, ...]:
    """Construct a stable insertion order for a d-complete poset with d-intervals ``intervals``.

    Working from the last insertion backwards, strip a minimal element of
    what remains, U.  When some minimal element bottoms no d-interval,
    strip the smallest such id.  Otherwise every minimal element bottoms
    one; among those intervals, keep the ones whose diamond top has no
    other of their diamond tops strictly below it, and strip the bottom of
    the least by (diamond top, bottom).  The result is verified against
    the stability predicate before being returned.  The caller checks the
    axioms, as :attr:`PosetAnalysis.stable_order` does.

    This is the rule "strip the bottom of a maximal d-interval in U whose
    diamond top is lowest among those of all maximal d-intervals in U",
    read off the minimal elements alone.  U is an upper set, so a
    d-interval lies in U iff its bottom does: call it present.  The proof
    uses facts of d-complete posets that ``structure_report`` checks: an
    element bottoms at most one d-interval; a tail element of a d-interval
    has all its upper covers in it, and bottoms a d-interval contained in
    it.  It also uses axiom 1 on {x, y, z}, for y and z two upper covers
    of x: some t covering both makes [x, t] a d_3-interval.  Nested
    d-intervals share their diamond top, the one element covering both
    sides, since the sides are the only incomparable pair of each.

    (A) A present interval I whose bottom b is minimal in U is maximal
    among the present intervals: a present J containing I has its bottom
    in U and at or below b, hence b, and b bottoms one interval.

    (B) Let J be a maximal present interval whose bottom b is not minimal
    in U, at a step where every minimal element of U bottoms an interval.
    Then some present interval has a diamond top strictly below dt(J).
    Walk down from x_0 = b: while x_i is not minimal in U, it has a lower
    cover x_{i+1} in U; stop once x_{i+1} has a second upper cover y.  No
    x_i with i >= 1 bottoms an interval K: x_{i-1}, its one upper cover,
    would be K's tail element above the bottom, so the interval x_{i-1}
    bottoms would lie in K; for i = 1 that is J, contradicting maximality,
    and for i >= 2 there is none.  So the walk cannot reach a minimal
    element of U, and it stops: [x_{i+1}, t], with t covering x_i and y,
    is a present d_3-interval whose diamond top is t.  If i = 0, t covers
    J's bottom, so t lies in J among the covers of its bottom, below
    dt(J).  If i >= 1, t is x_i's one upper cover x_{i-1} <= b < dt(J).

    A maximal present interval containing [x_{i+1}, t] has diamond top t;
    repeating (B) on it, while its bottom is not minimal, lowers the
    diamond top each time, so it ends at a minimal-bottomed interval with
    diamond top strictly below dt(J).  So by (A) and (B) the maximal
    intervals with lowest diamond tops are exactly the minimal-bottomed
    ones with lowest diamond tops, and both rules strip the same element;
    the maximal-interval rule's choice is always minimal in U.
    """
    by_bottom = {iv.bottom: iv for iv in intervals}
    # The minimal elements of what remains, ascending: an element joins
    # them once its last lower cover is stripped.
    waiting = [len(lower) for lower in P._lower]
    minimal = [v for v in range(P.n) if not waiting[v]]
    reversed_order: list[int] = []
    while minimal:
        c = next((p for p in minimal if p not in by_bottom), None)
        if c is None:
            bottomed = [by_bottom[p] for p in minimal]
            tops = mask_of(iv.diamond_top for iv in bottomed)
            c = min(
                (iv.diamond_top, iv.bottom)
                for iv in bottomed
                if P._dn[iv.diamond_top] & tops == 1 << iv.diamond_top
            )[1]
        reversed_order.append(c)
        minimal.remove(c)
        for u in P._upper[c]:
            waiting[u] -= 1
            if not waiting[u]:
                insort(minimal, u)
    order = tuple(reversed(reversed_order))
    if not is_stable(P, order, intervals):
        raise RuntimeError("constructed insertion order failed the stability predicate")
    return order


def random_descending_extension(P: Poset, rng: Random) -> tuple[int, ...]:
    """A linear extension sampled by repeatedly picking a random maximal element.

    The maximal elements of what remains are kept in ascending order and
    updated per pick: an element joins them once its last upper cover is
    picked.  A pick among m of them draws ``getrandbits(m.bit_length())``
    until the draw is below m, which is what ``rng.choice`` does on a
    :class:`random.Random`, so the orders are those of ``choice`` on the
    same stream (``test_random_orders_keep_their_draws`` pins them).
    Order independence draws the same orders, from the same stream,
    through :func:`_random_order_insertion`'s walk.
    """
    getrandbits = rng.getrandbits
    waiting = [len(u) for u in P._upper]
    maximal = [v for v in range(P.n) if not waiting[v]]
    out = []
    while maximal:
        m = len(maximal)
        k = m.bit_length()
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        c = maximal.pop(i)
        out.append(c)
        for v in P._lower[c]:
            waiting[v] -= 1
            if not waiting[v]:
                insort(maximal, v)
    return tuple(out)


# A node of the walk: (m, k, children, maximal, inserted).  ``maximal`` holds
# the m maximal elements of what remains, ascending, k is m.bit_length(), and
# child slot i, filled on first use, is (next node, maximal[i], step toggles).
_Node = tuple[int, int, list, tuple[int, ...], int]


def _random_order_insertion(P: Poset, steps: Steps, rng: Random) -> Callable[[list[int]], None]:
    """A function inserting one label list in place along a fresh random descending extension.

    Each call draws its order from ``rng`` exactly as
    :func:`random_descending_extension` does, one pick at a time, and runs
    each pick's entry in ``steps`` (:func:`insertion_steps`) as it is
    drawn: the labels end as :func:`_run` along that order's program
    leaves them, and ``rng`` ends in the same state.  What a pick needs
    depends only on the set of elements inserted so far, so the walk is
    memoized on that set's mask: a node holds the maximal elements of what
    remains, and an edge, built on first use, the next node, the picked
    element and its step.
    """
    getrandbits = rng.getrandbits
    lower = P._lower
    covering = [mask_of(u) for u in P._upper]
    nodes: dict[int, _Node] = {}

    def node(inserted: int, maximal: tuple[int, ...]) -> _Node:
        m = len(maximal)
        made = nodes[inserted] = (m, m.bit_length(), [None] * m, maximal, inserted)
        return made

    def edge(parent: _Node, i: int) -> tuple[_Node, int, tuple[Toggle, ...]]:
        _, _, children, maximal, mask = parent
        c = maximal[i]
        inserted = mask | 1 << c
        child = nodes.get(inserted)
        if child is None:
            rest = list(maximal)
            del rest[i]
            for v in lower[c]:
                if not covering[v] & ~inserted:
                    insort(rest, v)
            child = node(inserted, tuple(rest))
        made = children[i] = (child, c, steps[c])
        return made

    root = node(0, tuple(v for v in range(P.n) if not P._upper[v]))

    def insert(labels: list[int]) -> None:
        current = root
        m, k, children, _, _ = current
        while m:
            i = getrandbits(k)
            while i >= m:
                i = getrandbits(k)
            current, c, toggles = children[i] or edge(current, i)
            labels[c] = -labels[c]
            _toggle_all(labels, toggles)
            m, k, children, _, _ = current

    return insert


# -- volume preservation ---------------------------------------------------

# Criterion 6 checks the map's derivative along directions with entries in
# -V..V-1 for this V, a power of two; a wrong derivative escapes one check
# with probability at most 1/(2V).
DIRECTION_BOUND = 2**32

def rsk_jacobian_det(
    P: Poset,
    filling,
    order: Iterable[int] | None = None,
    *,
    analysis: PosetAnalysis | None = None,
) -> Fraction:
    """Exact Jacobian determinant of the insertion map at a generic point.

    Every toggle is a piecewise-linear involution, so the map is piecewise
    linear.  Its run at the point chooses per toggle the upper cover of
    largest label and the lower cover of smallest label, and
    :func:`_strict_step` raises :class:`NonGenericPoint` on a tie.  When
    every compared pair differs, the same choices are made on a
    neighborhood of the point, so there the map is the linear map those
    choices spell out: the product, over the run's n insertions and T
    toggles, of one linear map of the n labels each.

    Each factor is the identity with one row replaced, and that row's
    diagonal entry is -1.  Inserting c replaces label c by its negation.
    Toggling e against x above and y below replaces label e by
    l_x + l_y - l_e, where x and y are covers of e, never e itself, and
    an absent cover's label is the constant 0.  The identity with row i
    replaced by r is I + e_i (r - e_i)^T, whose determinant is
    1 + (r - e_i)_i = r_i.  So the determinant is (-1)^(n + T) for the
    T toggles of the run, whatever choices were made.  Every program runs
    each element's step of the table (:func:`insertion_steps`) once,
    whatever the order, so T is read off the table: the sum of its steps'
    lengths.  The one run records nothing and serves only to refuse the
    points where a tie leaves the map without a derivative.  Criterion 6
    checks the choices themselves through :func:`_derivative_check`, the
    one other caller of the strict step.  ``analysis`` is kept, and read,
    as in :func:`rsk`.
    """
    labels, _ = _nonnegative_labels(P.n, filling)
    a = _resolve(P, analysis)
    _run(labels, _program(P, order, a), step=_strict_step)
    return Fraction((-1) ** (P.n + sum(map(len, a.insertion_steps))))


def _strict_step(labels: list[int], toggles: Iterable[Toggle]) -> None:
    """:func:`_toggle_all` on a label list, raising :class:`NonGenericPoint` where two candidates tie.

    An empty side reads as 0 and a lone candidate is read directly, since
    it ties with nothing.  Of two candidates the strictly larger (upper
    side) or strictly smaller (lower side) is taken, and equal labels
    raise.  Nothing is recorded, so a run through this step costs what a
    run through :func:`_toggle_all` does.  A longer side raises
    ``ValueError`` at the unpack, as there.  Where it does not raise, it
    writes what :func:`_toggle_all` writes, and it chooses the cover of
    each side that the map's linear piece at the point reads.  Its two
    callers are :func:`rsk_jacobian_det`, which refuses ties with it, and
    :func:`_derivative_check`, which takes its run on a scaled point as
    the reference for the kernel's derivative.
    """
    for e, ups, los in toggles:
        if not ups:
            hi = 0
        elif len(ups) == 1:
            hi = labels[ups[0]]
        else:
            x, y = ups
            a = labels[x]
            b = labels[y]
            if a > b:
                hi = a
            elif a < b:
                hi = b
            else:
                raise NonGenericPoint(_TIE)
        if not los:
            lo = 0
        elif len(los) == 1:
            lo = labels[los[0]]
        else:
            x, y = los
            a = labels[x]
            b = labels[y]
            if a < b:
                lo = a
            elif a > b:
                lo = b
            else:
                raise NonGenericPoint(_TIE)
        labels[e] = hi + lo - labels[e]


def _derivative_check(P: Poset, labels: Sequence[int], rng: Random, analysis: PosetAnalysis) -> int | None:
    """The first element where the kernel's run on K T + v is not the map's, or None.

    ``labels`` are a nonnegative filling's integer labels T over a common
    denominator, as :func:`hooks.random_scaled_point` draws them.  A
    direction v with entries uniform on -V..V-1, V = ``DIRECTION_BOUND``,
    is drawn from ``rng`` by one ``getrandbits``, each entry a slice of
    log2(2V) bits less V.  With K = 2GV + 1, G the program's forward
    growth (:func:`program_growth`), the strict step and the kernel under
    test, :func:`_run` with its own step function, each run on a copy of
    X = K T + v.  The strict run raises :class:`NonGenericPoint` at a tie
    at X, and otherwise lands on K Phi(T) + J_X v, as shown below, J_X the
    linear map its choices spell out.  The result names the first element,
    by id, where the kernel's run differs from it, or None.  J_X's
    determinant is not checked: it is (-1)^(n + T'), T' the toggle count,
    whatever the choices.

    Why K suffices.  By induction over the steps, every label of the
    strict run at X is K l + r.v, with l the label of the run on T at that
    step and r its row of the partial product of the linear maps that the
    choices at X spell out.  Those rows' L1 norms obey N_c = 1 and
    N_e <- N_e + N_x + N_y, for e toggled against its chosen covers x and
    y and an absent cover's N 0, and :func:`program_growth`'s
    M_e <- M_e + max M above + max M below is at least N element by
    element.  So |r.v| <= G V.  Two candidates x and u of one side with
    distinct integer labels at T have K |l_x - l_u| >= K > 2 G V >=
    |r_x.v - r_u.v|, so the winner at X is the winner at T.  A side tied at
    T gives the same l whichever candidate wins, and v picks the piece.  So
    a toggle writes K (l_x + l_y - l_e) + (r_x + r_y - r_e).v, and a
    negation K (-l_c) + (-r_c).v, the next step's form, and the run ends at
    K Phi(T) + J_X v, since Phi(K T) = K Phi(T) by homogeneity.  A tie at X
    needs (r_x - r_u).v = 0 for a pair tied at T.  The partial product is
    invertible, so r_x != r_u, and for each way the earlier ties break,
    that happens with probability at most 1/(2V).

    What it catches.  Say the kernel under test gives
    K Phi(T) + J_X v + delta(v), with delta_e(v) = c + w.v on some element
    e, (c, w) != 0, wherever v breaks T's ties one way.  If w = 0 the check
    fails at every such v.  Otherwise some w_j != 0, and whatever the other
    entries of v, at most one of the 2V values of v_j makes delta_e(v) = 0:
    a discrepancy linear in v is missed with probability at most 1/(2V)
    per way, and a T with no tie has one way.
    """
    program = analysis.insertion_program
    width = DIRECTION_BOUND.bit_length()
    bits = rng.getrandbits(width * P.n)
    v = [(bits >> width * j & 2 * DIRECTION_BOUND - 1) - DIRECTION_BOUND for j in range(P.n)]
    k = 2 * analysis.insertion_growth[0] * DIRECTION_BOUND + 1
    expected = [k * s + w for s, w in zip(labels, v)]
    moved = expected[:]
    _run(expected, program, step=_strict_step)
    _run(moved, program)
    return next((e for e in range(P.n) if moved[e] != expected[e]), None)
