"""The acceptance battery: exact checks over the built-in catalog.

Each criterion returns a result with one-line details; the CLI ``suite``
subcommand and the test suite both run these.  All identity checks are
exact (rational arithmetic, zero tolerance); only the Monte Carlo volume
comparison is statistical, with its seed pinned in the result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import NamedTuple, Sequence

from .analysis import PosetAnalysis, analyze
from .catalog import CatalogEntry, catalog
from .classical import classical_insert_rsk, gt_from_rpp, order_from_ranks, ssyt_from_gt, toggle_rpp
from .diagonals import diagonal_report
from .dstructure import structure_report
from .families import d_k_one, young, young_box_ids
from .hooks import all_ones_point, random_scaled_point, random_scaled_points
from .poset import Poset, _require_count
from .rsk import (
    NonGenericPoint,
    _derivative_check,
    _label_matrix,
    _random_order_insertion,
    _run,
    diagonal_sums,
    inverse_rsk,
    is_stable,
    program_along,
    program_growth,
    rsk,
)
from .verify import (
    PolytopeSpec,
    closed_form_volume,
    monte_carlo_volumes,
    rsk_polytope_check,
    verify_multivariate,
    verify_proctor,
)


# Criterion 10 checks posets with at most this many elements.  A chain's
# fillings polytope fills 1/(n!)^2 of its box, so past n = 6 its expected
# hits at 10^6 samples drop below one (10^6 / 5040^2, about 0.04, at n = 7).
MONTE_CARLO_MAX_ELEMENTS = 6


class CriterionResult(NamedTuple):
    name: str
    ok: bool
    lines: tuple[str, ...]


Prepared = list[tuple[str, Poset, PosetAnalysis]]


def prepare(entries: Sequence[CatalogEntry] | None = None) -> Prepared:
    if entries is None:
        entries = catalog()
    return [(e.name, e.poset, analyze(e.poset)) for e in entries]


def _result(name: str, failures: list[str], lines: list[str]) -> CriterionResult:
    return CriterionResult(name=name, ok=not failures, lines=tuple(lines + failures))


# 1 ---------------------------------------------------------------------------


def counting_identity(prepared: Prepared) -> CriterionResult:
    """extensions * prod(hook lengths) == n! for every catalog poset."""
    failures: list[str] = []
    for name, poset, _ in prepared:
        report = verify_proctor(poset)
        if not report.ok:
            failures.append(
                f"fail poset={name} extensions={report.extensions} "
                f"hook_product={report.hook_product} factorial={report.factorial}"
            )
    return _result("counting-identity", failures, [f"posets={len(prepared)}"])


# 2 ---------------------------------------------------------------------------


def multivariate_identity(prepared: Prepared, points: int = 20, seed: int = 0) -> CriterionResult:
    """Weight sum == 1/prod(H_p) exactly at random rational points."""
    failures: list[str] = []
    for name, poset, _ in prepared:
        report = verify_multivariate(poset, points=points, seed=seed)
        if not report.ok:
            first = report.failures[0]
            failures.append(
                f"fail poset={name} seed={seed} point={first.point} lhs={first.lhs} rhs={first.rhs}"
            )
    return _result(
        "multivariate-identity", failures, [f"posets={len(prepared)} points={points} seed={seed}"]
    )


# 3 ---------------------------------------------------------------------------

WORKED_ORDER = (5, 4, 2, 3, 1, 0)
WORKED_INPUT = (2, 2, 3, 4, 2, 1)  # by element id; order above inserts values 1,2,3,4,2,2
WORKED_IMAGE = (11, 9, 6, 7, 4, 3)


def worked_insertion_example() -> CriterionResult:
    """The worked example on d_4(1): one poset, one analysis, every pinned identity.

    - counting: 2 linear extensions, hook product 360, 2 * 360 == 6! = 720;
    - insertion along ``WORKED_ORDER`` maps ``WORKED_INPUT`` to ``WORKED_IMAGE``,
      and ``inverse_rsk`` recovers ``WORKED_INPUT``;
    - the image's diagonal sums are (14, 13, 6, 7);
    - the stable order gives the same image;
    - that image's entries sum to sum_p h_p t_p over the hook lengths, both 40.

    Criteria 1, 4 and 7 check the counting, diagonal-sum and weighted-sum
    identities on every catalog poset; these are their pinned instances,
    so d_4(1) is built and analysed once per battery, here.
    """
    failures: list[str] = []
    poset = d_k_one(4)
    a = analyze(poset)
    d4 = verify_proctor(poset)
    if (d4.extensions, d4.hook_product, d4.factorial) != (2, 360, 720):
        failures.append("fail d4 instance does not match (2, 360, 720)")
    image = rsk(poset, WORKED_INPUT, WORKED_ORDER)
    expected = tuple(Fraction(v) for v in WORKED_IMAGE)
    if image != expected:
        failures.append(f"fail image={image} expected={expected}")
    recovered = inverse_rsk(poset, expected, WORKED_ORDER)
    if recovered != tuple(Fraction(v) for v in WORKED_INPUT):
        failures.append(f"fail recovered={recovered}")
    sums = diagonal_sums(poset, image)
    if sums != tuple(Fraction(v) for v in (14, 13, 6, 7)):
        failures.append(f"fail worked example diagonal sums {sums} != (14, 13, 6, 7)")
    via_stable = rsk(poset, WORKED_INPUT)
    if via_stable != expected:
        failures.append(f"fail stable-order image={via_stable}")
    weighted = sum(via_stable, Fraction(0))
    hook_side = sum(h * t for h, t in zip(a.hook_lengths, WORKED_INPUT))
    if not weighted == hook_side == 40:
        failures.append(f"fail worked example sums {weighted} != {hook_side} != 40")
    lines = [
        f"d4 extensions={d4.extensions} hook_product={d4.hook_product} factorial={d4.factorial}",
        "labels top-to-bottom 3,4,6,7,9,11",
    ]
    return _result("worked-insertion-example", failures, lines)


# 4 ---------------------------------------------------------------------------


def diagonal_sum_identity(prepared: Prepared, trials: int = 100, seed: int = 0) -> CriterionResult:
    """S(D) == sum_p h^(D)(p) t_p exactly on random fillings, every catalog poset.

    A poset's fillings come from one :func:`random_scaled_points` draw,
    each as integer labels over its own common denominator, one column
    per trial; both sides of every diagonal's identity are then integer
    sums over that denominator.  The stable program runs once over all
    the columns, and both sides of every diagonal in every column come
    from two matrix products: the diagonals' 0/1 indicator times the
    image, and the transposed hook vectors times the input.  A failure
    names the first failing trial and, in it, the first failing diagonal.

    The labels are a :func:`rsk._label_matrix` of growth n max(G, n), G
    the stable program's forward growth: the run's labels are at most G
    times the largest input label, a diagonal sum of the image adds at
    most n of them, and the hook side of diagonal D weighs the inputs by
    sum_p h_p^(D), at most the sum of the n hook lengths, each at most n.
    No partial sum of either product passes the sum of its terms' sizes,
    so ``np.dot`` is exact in int64 as on Python ints.
    """
    import numpy as np  # numpy loads with the battery's first trials, not with the package

    _require_count(trials, "trials")
    failures: list[str] = []
    for name, poset, a in prepared:
        rng = Random(seed)
        forward, _ = a.insertion_growth
        t = _label_matrix(random_scaled_points(poset.n, trials, rng), poset.n * max(forward, poset.n))
        s = t.copy()
        _run(s, a.insertion_program)
        classes = a.diagonals.classes
        members = np.zeros((len(classes), poset.n), dtype=t.dtype)
        for d, diagonal in enumerate(classes):
            members[d, list(diagonal)] = 1
        hooks = np.array(a.hook_vectors, dtype=t.dtype).reshape(poset.n, len(classes))
        # per diagonal and trial: do the two sides differ?
        wrong = np.dot(members, s) != np.dot(hooks.T, t)
        failed = wrong.any(axis=0)
        if failed.any():
            trial = int(failed.argmax())
            diagonal = int(wrong[:, trial].argmax())
            failures.append(f"fail poset={name} seed={seed} trial={trial} diagonal={diagonal}")
    return _result(
        "diagonal-sum-identity", failures, [f"posets={len(prepared)} trials={trials} seed={seed}"]
    )


# 5 ---------------------------------------------------------------------------


def order_independence(prepared: Prepared, trials: int = 100, seed: int = 0) -> CriterionResult:
    """Identical images under two independently sampled insertion orders.

    A poset's fillings come from one :func:`random_scaled_points` draw,
    each as integer labels over its own common denominator.  Each trial
    then inserts two copies of its labels, each along a fresh random
    descending extension drawn from the same stream, through one walk of
    the inserted sets per poset: the orders are those of
    :func:`random_descending_extension`, and each pick reads its step from
    the step table (at seed 0 the catalog's 59,200 orders make 409,000
    picks along 12,647 edges between 6,529 nodes).
    """
    _require_count(trials, "trials")
    failures: list[str] = []
    for name, poset, a in prepared:
        rng = Random(seed)
        labels = random_scaled_points(poset.n, trials, rng)
        insert = _random_order_insertion(poset, a.insertion_steps, rng)
        for trial, s1 in enumerate(labels.T.tolist()):
            s2 = s1[:]
            insert(s1)
            insert(s2)
            if s1 != s2:
                failures.append(f"fail poset={name} seed={seed} trial={trial}")
                break
    return _result(
        "order-independence", failures, [f"posets={len(prepared)} trials={trials} seed={seed}"]
    )


# 6 ---------------------------------------------------------------------------


def volume_preservation(prepared: Prepared, points: int = 25, seed: int = 0) -> CriterionResult:
    """At every drawn point the kernel runs as the insertion map's own linear piece.

    Per poset, ``points`` fillings are drawn from ``Random(seed)``, each by
    :func:`random_scaled_point` as integer labels over its common
    denominator.  At each, :func:`_derivative_check` draws a direction from
    the same stream and runs the strict step and the kernel once each on
    the point scaled and moved along it.  A kernel whose result is not the
    map's fails with the point's index and the first element that
    disagrees, and a tie at the scaled point fails with the point's index;
    either ends the poset's checks.  The determinant needs no check: it is
    (-1)^(n + T) whatever the choices.
    """
    _require_count(points, "points")
    failures: list[str] = []
    for name, poset, a in prepared:
        rng = Random(seed)
        for point in range(points):
            t, _ = random_scaled_point(poset.n, rng)
            try:
                wrong = _derivative_check(poset, t, rng, a)
            except NonGenericPoint:
                failures.append(f"fail poset={name} seed={seed} point={point} tie at the scaled point")
                break
            if wrong is not None:
                failures.append(f"fail poset={name} seed={seed} point={point} element={wrong}")
                break
    return _result(
        "volume-preservation", failures, [f"posets={len(prepared)} points={points} seed={seed}"]
    )


# 7 ---------------------------------------------------------------------------


def polytope_bijection(prepared: Prepared, trials: int = 100, seed: int = 0) -> CriterionResult:
    """Sampled fillings-polytope points map into the rpp polytope and round-trip."""
    failures: list[str] = []
    for name, poset, _ in prepared:
        report = rsk_polytope_check(poset, trials=trials, seed=seed)
        if not report.ok:
            failures.append(f"fail poset={name} seed={seed} first={report.failures[0]}")
    return _result(
        "polytope-bijection", failures, [f"posets={len(prepared)} trials={trials} seed={seed}"]
    )


# 8 ---------------------------------------------------------------------------


def structural_properties(prepared: Prepared) -> CriterionResult:
    """Structure, diagonal, axiom and stability oracles over the whole catalog."""
    failures: list[str] = []
    for name, poset, a in prepared:
        if not a.axiom_report.is_d_complete:
            failures.append(f"fail poset={name} axioms={a.axiom_report.violations[:1]}")
            continue
        sreport = structure_report(poset, a.d_intervals)
        if not sreport.ok:
            failures.append(f"fail poset={name} structure={sreport.failures[0]}")
        dreport = diagonal_report(poset, a.diagonals, a.d_intervals)
        if not dreport.ok:
            failures.append(f"fail poset={name} diagonal={dreport.failures[0]}")
        if not is_stable(poset, a.stable_order, a.d_intervals):
            failures.append(f"fail poset={name} stable order rejected")
    return _result("structural-properties", failures, [f"posets={len(prepared)}"])


# 9 ---------------------------------------------------------------------------

APPENDIX_MATRIX = ((1, 0, 2), (0, 2, 0), (1, 1, 0))
APPENDIX_RANKS = ((1, 2, 3), (4, 6, 8), (5, 7, 9))
APPENDIX_RPP = ((1, 2, 3), (1, 2, 3), (2, 4, 4))
APPENDIX_LOWER_GT = ((4, 2, 1), (4, 1), (2,))
APPENDIX_UPPER_GT = ((4, 2, 1), (3, 2), (3,))
APPENDIX_P = ((1, 1, 2, 2), (2, 3), (3,))
APPENDIX_Q = ((1, 1, 1, 3), (2, 2), (3,))


def _pipelines_agree(matrix, image, box_ids) -> bool:
    rpp = toggle_rpp(matrix)
    try:
        lower, upper = gt_from_rpp(rpp)
    except ValueError:  # gt_from_rpp refuses a non-RPP
        return False
    insert_p, insert_q = classical_insert_rsk(matrix)
    if (ssyt_from_gt(lower).rows, ssyt_from_gt(upper).rows) != (insert_p.rows, insert_q.rows):
        return False
    return all(image[e] == rpp[i - 1][j - 1] for (i, j), e in box_ids.items())


def classical_equivalence(trials: int = 200, seed: int = 0) -> CriterionResult:
    """Insertion RSK and toggle construction agree, pinned example plus random matrices.

    The even trials draw 3x3 matrices and the odd ones 4x4, all drawn
    first.  Per square the generalized map then runs once, one trial per
    column, along id order: young()'s ids are row-major, so that is a
    descending order matching toggle_rpp's default.  The labels are a
    :func:`rsk._label_matrix` of that program's forward growth.
    """
    _require_count(trials, "trials")
    failures: list[str] = []
    rpp = toggle_rpp(list(map(list, APPENDIX_MATRIX)), order_from_ranks(APPENDIX_RANKS))
    if tuple(map(tuple, rpp)) != APPENDIX_RPP:
        failures.append(f"fail pinned rpp={rpp}")
    lower, upper = gt_from_rpp(rpp)
    if lower.rows != APPENDIX_LOWER_GT or upper.rows != APPENDIX_UPPER_GT:
        failures.append(f"fail pinned patterns {lower.rows} {upper.rows}")
    p, q = classical_insert_rsk(APPENDIX_MATRIX)
    if p.rows != APPENDIX_P or q.rows != APPENDIX_Q:
        failures.append(f"fail pinned tableaux {p.rows} {q.rows}")
    if (ssyt_from_gt(lower).rows, ssyt_from_gt(upper).rows) != (APPENDIX_P, APPENDIX_Q):
        failures.append("fail pinned pattern-to-tableau reconstruction")

    rng = Random(seed)
    matrices = [
        [[rng.randint(0, 4) for _ in range(size)] for _ in range(size)]
        for size in (3 if trial % 2 == 0 else 4 for trial in range(trials))
    ]
    checks: list = [None] * trials
    for size in (3, 4):
        shape = (size,) * size
        square, box_ids, drawn = young(shape), young_box_ids(shape), matrices[size - 3 :: 2]
        # row e holds element e's label in every trial of this size
        rows: list = [None] * square.n
        for (i, j), e in box_ids.items():
            rows[e] = [matrix[i - 1][j - 1] for matrix in drawn]
        # ids run row-major from the maximum, so ascending ids are a descending extension
        program = program_along(analyze(square).insertion_steps, range(square.n))
        labels = _label_matrix(rows, program_growth(program)[0])
        _run(labels, program)
        checks[size - 3 :: 2] = [(matrix, image, box_ids) for matrix, image in zip(drawn, labels.T.tolist())]
    for trial, check in enumerate(checks):
        if not _pipelines_agree(*check):
            failures.append(f"fail seed={seed} trial={trial} matrix={check[0]}")
            break
    return _result("classical-equivalence", failures, [f"trials={trials} seed={seed}"])


# 10 --------------------------------------------------------------------------


def monte_carlo_agreement(
    prepared: Prepared, samples: int = 10**6, seed: int = 0
) -> CriterionResult:
    """Volume estimates within 4 true standard errors of the closed forms.

    All estimates come from one :func:`monte_carlo_volumes` call.  Per
    size it draws only the simplex points that can hit, and its docstring
    proves that the hit counts of one size have the joint law of
    ``samples`` box points shared by all its cases.  So the posets of one
    size share their draws, and the fillings and rpp estimates of one
    poset are correlated.  The spread test's
    ``combined = hypot(se_fillings, se_rpp)`` assumes independent
    estimates, so it is conservative: where hits are common the two hit
    indicators are positively correlated and the spread's true standard
    error is smaller than ``combined``; where hits are rare their
    covariance, at least -p_f * p_r, is negligible against the variances
    of about p_f and p_r.
    """
    failures: list[str] = []
    checked = [entry for entry in prepared if entry[1].n <= MONTE_CARLO_MAX_ELEMENTS]
    cases = [
        (poset, PolytopeSpec(kind, all_ones_point(a.diagonals.count)))
        for _, poset, a in checked
        for kind in ("fillings", "rpp")
    ]
    estimates = monte_carlo_volumes(cases, samples=samples, seed=seed)
    for i, (name, poset, _) in enumerate(checked):
        runs = {}
        for (_, spec), estimate in zip(cases[2 * i : 2 * i + 2], estimates[2 * i : 2 * i + 2]):
            kind = spec.kind
            exact = closed_form_volume(poset, spec)
            p_true = min(max(float(exact) / estimate.box_volume, 0.0), 1.0)
            se_true = math.sqrt(p_true * (1.0 - p_true) / samples) * estimate.box_volume
            runs[kind] = (estimate.estimate, se_true)
            if abs(estimate.estimate - float(exact)) > 4 * se_true:
                failures.append(
                    f"fail poset={name} seed={seed} kind={kind} estimate={estimate.estimate} "
                    f"exact={float(exact)} se={se_true}"
                )
        spread = abs(runs["fillings"][0] - runs["rpp"][0])
        combined = math.hypot(runs["fillings"][1], runs["rpp"][1])
        if spread > 4 * combined:
            failures.append(
                f"fail poset={name} seed={seed} estimates disagree: spread={spread} combined_se={combined}"
            )
    return _result(
        "monte-carlo-volumes",
        failures,
        [
            f"posets={len(checked)} samples={samples} seed={seed} "
            f"max_elements={MONTE_CARLO_MAX_ELEMENTS}"
        ],
    )


# ------------------------------------------------------------------------------


def run_all(seed: int = 0, entries: Sequence[CatalogEntry] | None = None) -> list[CriterionResult]:
    """Every criterion at ``seed``, each at its own signature's shipped counts."""
    prepared = prepare(entries)
    return [
        counting_identity(prepared),
        multivariate_identity(prepared, seed=seed),
        worked_insertion_example(),
        diagonal_sum_identity(prepared, seed=seed),
        order_independence(prepared, seed=seed),
        volume_preservation(prepared, seed=seed),
        polytope_bijection(prepared, seed=seed),
        structural_properties(prepared),
        classical_equivalence(seed=seed),
        monte_carlo_agreement(prepared, seed=seed),
    ]
