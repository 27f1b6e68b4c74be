"""Exact verification of the counting identities and the two polytopes.

The univariate identity equates the number of linear extensions with
|P|! over the product of hook lengths.  The multivariate identity equates
the weight sum over linear extensions with the reciprocal product of hook
polynomials; it is checked by exact evaluation at random positive
rational points.  The two polytopes carry the geometric version: the
insertion map sends the hook-weighted simplex onto the order-reversing
polytope, and Monte Carlo estimates of both volumes are compared against
the closed forms.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from random import Random
from typing import NamedTuple, Sequence

from .analysis import PosetAnalysis, _resolve, analyze
from .diagonals import DiagonalPartition
from .hooks import (
    RationalPoint,
    all_ones_point,
    exact_labels,
    hook_integers,
    random_scaled_point,
)
from .poset import Poset, _require_count, fold_columns, fold_ideal_lattice
from .rsk import Filling, _run

# Fillings-polytope samples draw their simplex coordinates from multiples of 1/GRAIN.
GRAIN = 2**20
# Monte Carlo simplex points drawn per numpy batch.  Every point is tested by
# every case of its size, so the batch is kept small: 2**14-point batches
# raised battery peak RSS from 51.8-51.9 to 53.8-54.0 MiB (3 runs each) and
# ran no faster.  The draws are the same.
CHUNK = 1 << 12


def _positive_labels(x, count: int) -> tuple[list[int], int]:
    """A strictly positive point's :func:`hooks.exact_labels` labels, each signed as its value, and their denominator."""
    labels, denom = exact_labels(x, count, "point", "diagonals")
    if min(labels, default=1) <= 0:
        raise ValueError("diagonal values must be strictly positive")
    return labels, denom


def weight_sum(
    P: Poset,
    part: DiagonalPartition,
    x: RationalPoint,
    method: str = "ideal-dp",
) -> Fraction:
    """Sum of extension weights at a rational point.

    The weight of an extension p_1..p_n is 1 over the product, over
    positions i, of x summed over the diagonals of the suffix p_i..p_n.
    x is read by :func:`hooks.exact_labels`, as ``part.count`` values or
    a mapping by diagonal id, and must be strictly positive.  The sum
    folds up the lattice of downsets: each such suffix is a downset.
    With x = c / L over its least common denominator, the sum is
    U * L^n / M for the integers U and M that
    :func:`poset.fold_ideal_lattice` returns on the weights c_{D(p)}; its
    docstring gives the argument.  The fold reduces each ideal's value by
    its gcd with S(J) before it scales a level, so its integers stay near
    the size of the reduced values, and U / M is the same Fraction as with
    no reduction.  The lattice is :attr:`PosetAnalysis.ideal_lattice` of
    ``analyze(P)``, P's live analysis, so evaluating many points walks it
    once while some caller holds that analysis.  Posets with more than
    ``IDEAL_LIMIT`` downsets raise :class:`ExtensionLimitError`.
    ``perfbench/workloads.py`` passes ``part`` and ``perfbench/tracer.py``
    binds ``method`` by name, so both are kept: ``part`` must equal
    ``analyze(P).diagonals`` by value, and ``method`` must be
    ``"ideal-dp"``, or ``ValueError`` is raised.
    """
    if method != "ideal-dp":
        raise ValueError(f"unknown method {method!r}")
    a = analyze(P)
    if part != a.diagonals:
        raise ValueError("part is not the diagonal partition of P")
    numerators, scale = _positive_labels(x, part.count)
    total, denominator = fold_ideal_lattice(a.ideal_lattice, [numerators[d] for d in part.diagonal_of])
    return Fraction(total * scale**P.n, denominator)


class ProctorReport(NamedTuple):
    extensions: int
    hook_product: int
    factorial: int
    ok: bool


def verify_proctor(P: Poset, *, analysis: PosetAnalysis | None = None) -> ProctorReport:
    """Check extensions * product(hook lengths) == |P|! exactly; the hooks refuse a non-d-complete P first.

    ``analysis`` is kept, and read, as in :func:`rsk.rsk`.
    """
    a = _resolve(P, analysis)
    product = math.prod(a.hook_lengths)
    count = a.extension_count
    fact = math.factorial(P.n)
    return ProctorReport(
        extensions=count,
        hook_product=product,
        factorial=fact,
        ok=count * product == fact,
    )


class MultivariateFailure(NamedTuple):
    point: RationalPoint
    lhs: Fraction
    rhs: Fraction


class MultivariateReport(NamedTuple):
    points: int
    seed: int
    extensions: int
    ok: bool
    failures: tuple[MultivariateFailure, ...]


def verify_multivariate(
    P: Poset,
    points: int = 20,
    seed: int = 0,
) -> MultivariateReport:
    """Check the weight sum against 1/prod(H_p) at random rational points.

    Equality must be exact at every point.  Each point x is drawn as
    integers c over its least common denominator L.  On the weights
    c_(D(p)), one :func:`poset.fold_columns` walk gives every point's
    weight sum as U * L^n / M (see :func:`weight_sum`), and
    :func:`hook_integers` gives H_p(x) = A_p / L, so the identity holds
    exactly when U * prod A_p == M; Fractions are built only for a
    failing point.  The number of linear extensions does not matter;
    posets with more than ``IDEAL_LIMIT`` order ideals raise
    :class:`ExtensionLimitError`.
    """
    _require_count(points, "points")
    a = analyze(P)
    program = a.hook_program
    rng = Random(seed)
    draws = [random_scaled_point(program.count, rng) for _ in range(points)]
    rows = [list(map(c.__getitem__, program.diagonal_of)) for c, _ in draws]
    failures = []
    for (c, denom), row, (total, product) in zip(draws, rows, fold_columns(a.ideal_lattice, rows)):
        hook_product = math.prod(hook_integers(program, row))
        if total * hook_product != product:
            scale = denom**P.n
            lhs, rhs = Fraction(total * scale, product), Fraction(scale, hook_product)
            x = tuple(Fraction(v, denom) for v in c)
            failures.append(MultivariateFailure(point=x, lhs=lhs, rhs=rhs))
    return MultivariateReport(
        points=points,
        seed=seed,
        extensions=a.extension_count,
        ok=not failures,
        failures=tuple(failures),
    )


# -- polytopes ---------------------------------------------------------------


class _PolytopeFields(NamedTuple):
    kind: str
    x: RationalPoint


class PolytopeSpec(_PolytopeFields):
    """One of the two polytopes, pinned at a positive rational point.

    ``fillings``: t >= 0 with sum_p H_p(x) t_p <= 1 (a rescaled simplex).
    ``rpp``: s >= 0, order-reversing, with sum_p x_{D(p)} s_p <= 1.
    """

    __slots__ = ()

    def __new__(cls, kind: str, x: RationalPoint):
        if kind not in ("fillings", "rpp"):
            raise ValueError(f"kind must be 'fillings' or 'rpp', got {kind!r}")
        return super().__new__(cls, kind, x)


def _polytope(
    P: Poset, spec: PolytopeSpec, a: PosetAnalysis
) -> tuple[list[int], int, list[tuple[int, int]]]:
    """The polytope as an integer record ``(A, B, cover_pairs)``.

    The polytope is {v >= 0, v[low] >= v[high] for each cover pair,
    sum_p A_p v_p <= B}.  x, read by :func:`hooks.exact_labels` and
    strictly positive, is c / B over its least common denominator B.
    Fillings: H_p(x) = A_p / B, the :class:`hooks.HookProgram` run on the
    weights c_(D(p)) as in :func:`hooks.hook_numerators`, and no cover
    pairs; B is also the least common denominator of the hook
    polynomials (see :func:`rsk_polytope_check`).  rpp: A_p = c_(D(p)),
    and the covers of P.
    """
    numerators, denom = _positive_labels(spec.x, a.diagonals.count)
    weights = [numerators[d] for d in a.diagonals.diagonal_of]
    if spec.kind == "fillings":
        return hook_integers(a.hook_program, weights), denom, []
    return weights, denom, sorted(P.covers)


def polytope_membership(
    P: Poset,
    spec: PolytopeSpec,
    values,
) -> bool:
    """Exact evaluation of the defining inequalities."""
    weights, bound, cover_pairs = _polytope(P, spec, analyze(P))
    v, denom = exact_labels(values, P.n, "filling", "elements")
    return _inside(v, _dot(weights, v), bound * denom, cover_pairs)


def _dot(coefficients: Sequence[int], labels: Sequence[int]) -> int:
    """sum_p c_p * l_p, the integer dot product of coefficients and labels."""
    return sum(map(operator.mul, coefficients, labels))


def _inside(
    v: Sequence[int], weighted: int, bound: int, cover_pairs: Sequence[tuple[int, int]]
) -> bool:
    """A polytope record's inequalities on labels v over a denominator L.

    v >= 0, v[low] >= v[high] for each cover pair and sum_p A_p v_p <= B,
    given ``weighted`` = sum_p A_p v_p and ``bound`` = B * L.
    """
    return (
        all(value >= 0 for value in v)
        and all(v[low] >= v[high] for low, high in cover_pairs)
        and weighted <= bound
    )


def _simplex_gap_rows(n: int, trials: int, rng: Random):
    """``trials`` uniform grid points of the simplex {u >= 0, sum u <= 1}, as integers over GRAIN.

    Row k of the (trials, n) int64 array is trial k's point.  One
    ``rng.getrandbits(128)`` seeds a numpy PCG64 generator; it draws n
    values on 0..GRAIN per row, and each row's sorted spacings (its least
    value, then each step up) are shuffled on their own.

    This is the law of n i.i.d. uniform draws on 0..GRAIN, sorted, with
    the spacings dealt to the elements by a uniform permutation pi,
    independent of the draws.  ``integers`` draws bounded values without
    bias, so each row's values are i.i.d. uniform.  ``permuted`` runs
    Fisher-Yates on unbiased bounded draws made after the values, so each
    row gets its own uniform permutation sigma, independent of its values,
    and element p gets spacing sigma(p).  Dealing spacing j to element
    pi(j) gives p spacing pi^-1(p), and pi^-1 is uniform when pi is.  The
    deal matters: on a grid the spacings are not exchangeable (at
    GRAIN = 3 and n = 2 they are (0, 3) with probability 2/16, (3, 0) 1/16).
    """
    import numpy as np  # numpy loads with the first sample, not with the package

    gen = np.random.default_rng(rng.getrandbits(128))
    draws = gen.integers(0, GRAIN, size=(trials, n), endpoint=True)
    draws.sort(axis=1)
    return gen.permuted(np.diff(draws, axis=1, prepend=0), axis=1)


def _sample_scale(hooks: Sequence[int], hooks_denom: int) -> tuple[list[int], int]:
    """Per-element factors f_p and a denominator L with gap_p / H_p = gap_p * f_p / L.

    With H_p = A_p / B and gaps over GRAIN: L = GRAIN * lcm(A) and
    f_p = B * lcm(A) / A_p.
    """
    common = math.lcm(*hooks)
    return [hooks_denom * (common // h) for h in hooks], GRAIN * common


def sample_fillings_point(
    P: Poset,
    x: RationalPoint,
    rng: Random,
) -> Filling:
    """Uniform exact-rational point of the fillings polytope.

    Sorted-uniform gaps give a uniform point of the simplex
    {u >= 0, sum u <= 1}; dividing coordinatewise by the hook polynomials
    lands in the fillings polytope.  This matches the distribution of
    rejection sampling from the bounding box without its 1/n! acceptance
    rate.  The gaps are one :func:`_simplex_gap_rows` row, as in :func:`rsk_polytope_check`.
    """
    hooks, hooks_denom, _ = _polytope(P, PolytopeSpec("fillings", x), analyze(P))
    factors, denom = _sample_scale(hooks, hooks_denom)
    (gaps,) = _simplex_gap_rows(P.n, 1, rng).tolist()
    return tuple(Fraction(g * f, denom) for g, f in zip(gaps, factors))


class BijectionReport(NamedTuple):
    trials: int
    seed: int
    ok: bool
    failures: tuple[tuple, ...]


def rsk_polytope_check(
    P: Poset,
    x: RationalPoint | None = None,
    trials: int = 100,
    seed: int = 0,
) -> BijectionReport:
    """Sampled points of the fillings polytope map into the rpp polytope.

    Each trial checks membership of the image, the exact identity
    sum x_{D(p)} s_p == sum H_p(x) t_p, and the exact round trip.

    The checks run on integer labels, from the two polytopes' records
    (:func:`_polytope`), both over the least common denominator C of x:
    H_p(x) = A_p / C and x_{D(p)} = X_p / C.  The samples are the rows of
    one :func:`_simplex_gap_rows` draw, scaled as in :func:`sample_fillings_point`
    to labels T over L = GRAIN * lcm(A).  The insertion map commutes with
    scaling by L, so its image is labels S over L: t is in the fillings
    polytope iff T >= 0 and sum A_p T_p <= C L; s is in the rpp polytope
    iff S >= 0, S is order-reversing and sum X_p S_p <= C L; the identity
    is sum X S == sum A T; the round trip is equality of label lists.
    Fractions are built only for failure entries.  The stable program runs
    once over all samples, one trial per column (:func:`rsk._run` on a label
    matrix), forward for the images and backward for the round trips.  The
    failures list the trials in order, each with its failed checks in the
    order above; a sample outside the fillings polytope is reported alone.

    Why C is also the least common denominator B of the H_p(x) on a
    d-complete poset, so that A are their reduced numerators.  H(x) = h x
    for the integer matrix h of hook vectors, so B | C.  Conversely, let
    m_D be the minimum of diagonal D (diagonals are chains).  A
    d-interval's top shares its diagonal with its bottom, which lies
    below it, so m_D tops no d-interval and h(m_D) counts the downset of
    m_D per diagonal: 1 at D, and nonzero at D' only if m_D' < m_D.
    Ordered by a linear extension of the minima, the rows h(m_D) form a
    unitriangular integer matrix U with U x = (H_{m_D}(x))_D, so
    x = U^-1 (H_{m_D}(x))_D has denominators dividing B: C | B.
    """
    import numpy as np  # numpy loads with the first check, not with the package

    _require_count(trials, "trials")
    a = analyze(P)
    if x is None:
        x = all_ones_point(a.diagonals.count)
    hooks, hooks_denom, _ = _polytope(P, PolytopeSpec("fillings", x), a)
    weights, _, cover_pairs = _polytope(P, PolytopeSpec("rpp", x), a)
    n = P.n
    rng = Random(seed)
    factors, denom = _sample_scale(hooks, hooks_denom)
    bound = hooks_denom * denom
    program = a.insertion_program

    # row p holds element p's label in every trial
    gaps = _simplex_gap_rows(n, trials, rng).T.astype(object)
    t = gaps * np.array(factors, dtype=object).reshape(n, 1)
    hook_side = np.dot(np.array(hooks, dtype=object), t)
    source = _inside_columns(t, hook_side, bound, ())
    s = t.copy()
    _run(s, program)
    weight_side = np.dot(np.array(weights, dtype=object), s)
    image = _inside_columns(s, weight_side, bound, cover_pairs)
    summed = weight_side == hook_side
    back = s.copy()
    _run(back, program, backward=True)
    returned = (back == t).all(axis=0)

    def fractions(labels, trial):
        return tuple(Fraction(v, denom) for v in labels[:, trial])

    failures = []
    for trial in np.flatnonzero(~(source & image & summed & returned)).tolist():
        if not source[trial]:
            failures.append((trial, "source-membership", fractions(t, trial)))
            continue
        if not image[trial]:
            failures.append((trial, "image-membership", fractions(t, trial), fractions(s, trial)))
        if not summed[trial]:
            lhs, rhs = Fraction(weight_side[trial], bound), Fraction(hook_side[trial], bound)
            failures.append((trial, "weighted-sum", lhs, rhs))
        if not returned[trial]:
            failures.append((trial, "round-trip", fractions(t, trial), fractions(s, trial)))
    return BijectionReport(trials=trials, seed=seed, ok=not failures, failures=tuple(failures))


def _inside_columns(v, weighted, bound: int, cover_pairs: Sequence[tuple[int, int]]):
    """:func:`_inside` per column of a label matrix: one bool per column.

    ``v`` holds a trial's labels in each column, and ``weighted`` its
    sums sum_p A_p v_p.
    """
    inside = (v >= 0).all(axis=0) & (weighted <= bound)
    for low, high in cover_pairs:
        inside &= v[low] >= v[high]
    return inside


# -- Monte Carlo volumes ------------------------------------------------------


class VolumeEstimate(NamedTuple):
    kind: str
    samples: int
    seed: int
    hits: int
    box_volume: float
    estimate: float
    std_error: float


def closed_form_volume(P: Poset, spec: PolytopeSpec) -> Fraction:
    """Exact volume: simplex formula for fillings, weight sum for rpp."""
    a = analyze(P)
    n_fact = math.factorial(P.n)
    if spec.kind == "fillings":
        hooks, denom, _ = _polytope(P, spec, a)
        return Fraction(denom**P.n, n_fact * math.prod(hooks))
    return weight_sum(P, a.diagonals, spec.x) / n_fact


def monte_carlo_volume(
    P: Poset,
    spec: PolytopeSpec,
    samples: int = 10**6,
    seed: int = 0,
) -> VolumeEstimate:
    """Hit-rate estimate over the bounding box; one case of :func:`monte_carlo_volumes`."""
    return monte_carlo_volumes([(P, spec)], samples, seed)[0]


def _volume_test(
    P: Poset, spec: PolytopeSpec, a: PosetAnalysis
) -> tuple[float, tuple[float, ...], tuple[tuple[int, int], ...]]:
    """Box edge B / min(A), coefficients c_p = A_p / B and cover pairs of a polytope record.

    A box point is inside iff c . pts <= 1 and pts[low] >= pts[high] for
    every cover pair.  Python's int true division is correctly rounded,
    so the edge and the coefficients are the nearest floats to the exact
    values 1 / min_p H_p(x) (fillings) or 1 / min_D x_D (rpp), and H_p(x)
    or x_{D(p)}.  The empty poset has no A: its box is the single point of
    [0, 1]^0, given edge 1, which every draw hits, so the estimate is 1,
    the exact volume, with standard error 0.
    """
    weights, bound, cover_pairs = _polytope(P, spec, a)
    edge = bound / min(weights) if weights else 1.0
    return edge, tuple(w / bound for w in weights), tuple(cover_pairs)


def monte_carlo_volumes(
    cases: Sequence[tuple[Poset, PolytopeSpec]],
    samples: int = 10**6,
    seed: int = 0,
) -> list[VolumeEstimate]:
    """Hit-rate estimates over the bounding boxes, with binomial standard errors.

    Boxes: [0, max_p 1/H_p(x)]^n for fillings, [0, 1/min_D x_D]^n for rpp.
    Each case estimates vol / box from ``samples`` box points edge * U,
    U uniform on [0, 1)^n, but only the points that can hit are drawn.

    Why each hit count keeps its law, Binomial(samples, vol / box).  Let
    S = {u >= 0, sum u <= 1}, of volume 1/n! in the unit cube.  Every
    case has edge * c_p >= 1 (edge = 1 / min_p c_p), so a hit,
    c . (edge * U) <= 1, has sum U <= sum_p edge c_p U_p <= 1: every hit
    lies in S.  Of ``samples`` independent uniform U, the number K in S
    is Binomial(samples, 1/n!), and given K those points are K
    independent uniform points of S, each a hit with probability
    q = n! vol / box, independently.  So the hit count is Binomial(K, q)
    given K, and Binomial(samples, q / n!) = Binomial(samples, vol / box)
    unconditionally.  The same holds for the vector of every case's hit
    indicators at one point, so the joint law of one size's hit counts
    is also the box sampler's.  Only float rounding at the boundary
    differs: a box point within a few roundings of sum U = 1 could pass
    a case's float test outside S.

    So per size, one ``np.random.default_rng(seed)`` draws
    K ~ Binomial(samples, 1/n!) and then K uniform points of S: with
    E_0, ..., E_n independent standard exponentials and T their sum,
    (E_0/T, ..., E_n/T) is uniform on the standard n-simplex, and its
    first n coordinates are uniform on S (L. Devroye, Non-Uniform Random
    Variate Generation, 1986, ch. V).  1 / n! is int division, which
    rounds to 0.0 past n = 170, where K is then 0.  Every case then runs
    its test on those points as on box points: the edge scaling, the
    hyperplane test and the cover comparisons.  Cases of one size share
    K and the points, so the fillings and rpp estimates of one poset are
    correlated, not independent: a spread test that combines their
    standard errors as if independent, ``hypot(se_f, se_r)``, is
    conservative (see :func:`acceptance.monte_carlo_agreement`).

    Sizes 0 and 1 skip the draw where it can be skipped.  At n = 1 a
    point is u = E_0 / (E_0 + E_1), at most 1.0 in floating point, since
    E_0 <= E_0 + E_1 after rounding (a row of two exponentials both
    0.0, probability about 2**-106, would give NaN).  A case's test,
    (u * edge) * c_0 <= 1.0, is monotone in u, since float products are.
    So a case that passes at u = 1.0 hits at every point, and its count
    is K with no point drawn; at n = 0 the test has no coefficient and
    passes everywhere.  A size whose cases all pass draws nothing after
    K.  Every count is the one the draws would give.

    The rows are drawn in batches of at most ``CHUNK``, each into fresh
    arrays.  A row's sum T is added column by column, and each case's
    dot product is box[:, 0] * c_0 + box[:, 1] * c_1 + ... column by
    column, so every row rounds the same whatever rows share its batch:
    the hit counts do not depend on ``CHUNK``.

    A case's count depends only on its size and its test: the edge, the
    coefficients and the cover pairs.  So each distinct test of a size
    runs once per batch, and cases with equal tests get its count (on
    the full catalog, 164 cases make 107 distinct tests).  Each case
    (P, spec) reads ``analyze(P)``; estimates come back in input order.
    """
    _require_count(samples, "samples")
    import numpy as np  # numpy loads on the first Monte Carlo call, not with the package

    tests = [_volume_test(P, spec, analyze(P)) for P, spec in cases]
    # per size, one hit count per distinct test, shared by the cases that test alike
    sizes: dict[int, dict[tuple, int]] = {}
    for (P, _), test in zip(cases, tests):
        sizes.setdefault(P.n, {})[test] = 0
    for n, counts in sizes.items():
        rng = np.random.default_rng(seed)
        inside = int(rng.binomial(samples, 1 / math.factorial(n)))
        pending = list(counts)
        if n <= 1:
            # a case that hits at u = (1.0,) * n hits at every point; edge * 1.0
            # is edge, so its test there is edge * c_0 <= 1.0
            sure = [test for test in pending if all(test[0] * c <= 1.0 for c in test[1])]
            counts.update(dict.fromkeys(sure, inside))
            pending = [test for test in pending if test not in sure]
            if not pending:
                continue
        for done in range(0, inside, CHUNK):
            take = min(CHUNK, inside - done)
            e = rng.standard_exponential((take, n + 1))
            t = e[:, 0].copy()
            for j in range(1, n + 1):
                t += e[:, j]
            u = [e[:, p] / t for p in range(n)]
            for test in pending:
                edge, coefficients, cover_pairs = test
                # u * 1.0 == u exactly, so an edge of 1.0 (every catalog case
                # at the all-ones point) tests the points themselves
                box = u if edge == 1.0 else [x * edge for x in u]
                dot = np.zeros(take)
                for p, c in enumerate(coefficients):
                    dot += box[p] * c
                ok = dot <= 1.0
                for low, high in cover_pairs:
                    ok &= box[low] >= box[high]
                counts[test] += int(np.count_nonzero(ok))
    estimates = []
    for (P, spec), test in zip(cases, tests):
        edge, h = test[0], sizes[P.n][test]
        box_volume = edge**P.n
        rate = h / samples
        estimates.append(
            VolumeEstimate(
                kind=spec.kind,
                samples=samples,
                seed=seed,
                hits=h,
                box_volume=box_volume,
                estimate=rate * box_volume,
                std_error=math.sqrt(rate * (1.0 - rate) / samples) * box_volume,
            )
        )
    return estimates
