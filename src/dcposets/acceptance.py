"""The acceptance battery: exact checks over the built-in catalog.

Each criterion returns a result with one-line details; the CLI ``suite``
subcommand and the test suite both run these.  All identity checks are
exact (rational arithmetic, zero tolerance); only the Monte Carlo volume
comparison is statistical, with its seed pinned in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from .analysis import PosetAnalysis, analyze
from .catalog import CatalogEntry, catalog
from .classical import classical_insert_rsk, gt_from_rpp, is_rpp, order_from_ranks, ssyt_from_gt, toggle_rpp
from .diagonals import UPPER_SET_LIMIT, diagonal_report
from .dstructure import structure_report
from .families import d_k_one, young, young_box_ids
from .hooks import all_ones_point
from .poset import Poset
from .rsk import (
    NonGenericPoint,
    diagonal_sums,
    inverse_rsk,
    is_stable,
    random_descending_extension,
    random_filling,
    rsk,
    rsk_jacobian_det,
)
from .verify import (
    PolytopeSpec,
    closed_form_volume,
    monte_carlo_volume,
    rsk_polytope_check,
    verify_multivariate,
    verify_proctor,
)


# Criterion 2 skips posets with more linear extensions than this.
MULTIVARIATE_CAP = 10**5
# Criteria 6 and 10 check posets with at most this many elements.
VOLUME_MAX_ELEMENTS = 10
MONTE_CARLO_MAX_ELEMENTS = 6


@dataclass(frozen=True)
class CriterionResult:
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
    lines: list[str] = []
    for name, poset, a in prepared:
        report = verify_proctor(poset, analysis=a)
        if not report.ok:
            failures.append(
                f"fail poset={name} extensions={report.extensions} "
                f"hook_product={report.hook_product} factorial={report.factorial}"
            )
    d4 = verify_proctor(d_k_one(4))
    lines.append(
        f"d4 extensions={d4.extensions} hook_product={d4.hook_product} factorial={d4.factorial}"
    )
    if (d4.extensions, d4.hook_product, d4.factorial) != (2, 360, 720):
        failures.append("fail d4 instance does not match (2, 360, 720)")
    lines.append(f"posets={len(prepared)}")
    return _result("counting-identity", failures, lines)


# 2 ---------------------------------------------------------------------------


def multivariate_identity(prepared: Prepared, points: int = 20, seed: int = 0) -> CriterionResult:
    """Weight sum == 1/prod(H_p) exactly at random rational points."""
    failures: list[str] = []
    checked = 0
    for name, poset, a in prepared:
        if a.extension_count > MULTIVARIATE_CAP:
            continue
        report = verify_multivariate(
            poset, points=points, seed=seed, cap=MULTIVARIATE_CAP, analysis=a
        )
        checked += 1
        if not report.ok:
            first = report.failures[0]
            failures.append(f"fail poset={name} point={first.point} lhs={first.lhs} rhs={first.rhs}")
    return _result(
        "multivariate-identity", failures, [f"posets={checked} points={points} seed={seed}"]
    )


# 3 ---------------------------------------------------------------------------

WORKED_ORDER = (5, 4, 2, 3, 1, 0)
WORKED_INPUT = (2, 2, 3, 4, 2, 1)  # by element id; order above inserts values 1,2,3,4,2,2
WORKED_IMAGE = (11, 9, 6, 7, 4, 3)


def worked_insertion_example() -> CriterionResult:
    """The known-good insertion run on d_4(1) and its exact inversion."""
    failures: list[str] = []
    poset = d_k_one(4)
    a = analyze(poset)
    image = rsk(poset, WORKED_INPUT, WORKED_ORDER, analysis=a)
    expected = tuple(Fraction(v) for v in WORKED_IMAGE)
    if image != expected:
        failures.append(f"fail image={image} expected={expected}")
    recovered = inverse_rsk(poset, expected, WORKED_ORDER, analysis=a)
    if recovered != tuple(Fraction(v) for v in WORKED_INPUT):
        failures.append(f"fail recovered={recovered}")
    via_stable = rsk(poset, WORKED_INPUT, analysis=a)
    if via_stable != expected:
        failures.append(f"fail stable-order image={via_stable}")
    return _result("worked-insertion-example", failures, ["labels top-to-bottom 3,4,6,7,9,11"])


# 4 ---------------------------------------------------------------------------


def diagonal_sum_identity(prepared: Prepared, trials: int = 100, seed: int = 0) -> CriterionResult:
    """S(D) == sum_p h^(D)(p) t_p exactly on random fillings, every catalog poset."""
    failures: list[str] = []
    for name, poset, a in prepared:
        rng = Random(seed)
        part = a.diagonals
        hooks = a.hook_vectors
        for trial in range(trials):
            t = random_filling(poset.n, rng)
            sums = diagonal_sums(poset, part, rsk(poset, t, analysis=a))
            for d in range(part.count):
                expected = sum(
                    (Fraction(hooks[p][d]) * t[p] for p in range(poset.n)), Fraction(0)
                )
                if sums[d] != expected:
                    failures.append(f"fail poset={name} trial={trial} diagonal={d}")
                    break
            else:
                continue
            break
    poset = d_k_one(4)
    a = analyze(poset)
    sums = diagonal_sums(poset, a.diagonals, rsk(poset, WORKED_INPUT, WORKED_ORDER, analysis=a))
    if sums != tuple(Fraction(v) for v in (14, 13, 6, 7)):
        failures.append(f"fail worked example diagonal sums {sums} != (14, 13, 6, 7)")
    return _result(
        "diagonal-sum-identity", failures, [f"posets={len(prepared)} trials={trials} seed={seed}"]
    )


# 5 ---------------------------------------------------------------------------


def order_independence(prepared: Prepared, trials: int = 100, seed: int = 0) -> CriterionResult:
    """Identical images under two independently sampled insertion orders."""
    failures: list[str] = []
    for name, poset, a in prepared:
        rng = Random(seed)
        for trial in range(trials):
            t = random_filling(poset.n, rng)
            s1 = rsk(poset, t, random_descending_extension(poset, rng), analysis=a)
            s2 = rsk(poset, t, random_descending_extension(poset, rng), analysis=a)
            if s1 != s2:
                failures.append(f"fail poset={name} trial={trial}")
                break
    return _result(
        "order-independence", failures, [f"posets={len(prepared)} trials={trials} seed={seed}"]
    )


# 6 ---------------------------------------------------------------------------


def volume_preservation(prepared: Prepared, points: int = 25, seed: int = 0) -> CriterionResult:
    """The insertion map's exact Jacobian determinant is +-1 at generic points."""
    failures: list[str] = []
    checked = 0
    for name, poset, a in prepared:
        if poset.n > VOLUME_MAX_ELEMENTS:
            continue
        checked += 1
        rng = Random(seed)
        done = 0
        attempts = 0
        while done < points and attempts < points * 40:
            attempts += 1
            t = random_filling(poset.n, rng)
            try:
                det = rsk_jacobian_det(poset, t, analysis=a)
            except NonGenericPoint:
                continue
            if det not in (Fraction(1), Fraction(-1)):
                failures.append(f"fail poset={name} det={det} at t={t}")
                break
            done += 1
        if done < points and not any(f.startswith(f"fail poset={name} ") for f in failures):
            failures.append(f"fail poset={name} found only {done} generic points")
    return _result(
        "volume-preservation", failures, [f"posets={checked} points={points} seed={seed}"]
    )


# 7 ---------------------------------------------------------------------------


def polytope_bijection(prepared: Prepared, trials: int = 100, seed: int = 0) -> CriterionResult:
    """Sampled fillings-polytope points map into the rpp polytope and round-trip."""
    failures: list[str] = []
    for name, poset, a in prepared:
        report = rsk_polytope_check(poset, trials=trials, seed=seed, analysis=a)
        if not report.ok:
            failures.append(f"fail poset={name} first={report.failures[0]}")
    poset = d_k_one(4)
    a = analyze(poset)
    image = rsk(poset, WORKED_INPUT, analysis=a)
    weighted = sum(image, Fraction(0))
    hook_side = sum(
        (Fraction(h) * t for h, t in zip(a.hook_lengths, WORKED_INPUT)), Fraction(0)
    )
    if not weighted == hook_side == 40:
        failures.append(f"fail worked example sums {weighted} != {hook_side} != 40")
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
    return _result(
        "structural-properties",
        failures,
        [f"posets={len(prepared)} upper_set_limit={UPPER_SET_LIMIT}"],
    )


# 9 ---------------------------------------------------------------------------

APPENDIX_MATRIX = ((1, 0, 2), (0, 2, 0), (1, 1, 0))
APPENDIX_RANKS = ((1, 2, 3), (4, 6, 8), (5, 7, 9))
APPENDIX_RPP = ((1, 2, 3), (1, 2, 3), (2, 4, 4))
APPENDIX_LOWER_GT = ((4, 2, 1), (4, 1), (2,))
APPENDIX_UPPER_GT = ((4, 2, 1), (3, 2), (3,))
APPENDIX_P = ((1, 1, 2, 2), (2, 3), (3,))
APPENDIX_Q = ((1, 1, 1, 3), (2, 2), (3,))


def _pipelines_agree(matrix, shape_poset: Poset, a: PosetAnalysis, box_ids) -> bool:
    rpp = toggle_rpp(matrix)
    if not is_rpp(rpp):
        return False
    insert_p, insert_q = classical_insert_rsk(matrix)
    lower, upper = gt_from_rpp(rpp)
    if (ssyt_from_gt(lower).rows, ssyt_from_gt(upper).rows) != (insert_p.rows, insert_q.rows):
        return False
    # element ids of young() are row-major, so id order is a valid (and
    # row-major) descending insertion order matching toggle_rpp's default
    flat = [0] * shape_poset.n
    for (i, j), e in box_ids.items():
        flat[e] = matrix[i - 1][j - 1]
    image = rsk(shape_poset, flat, range(shape_poset.n), analysis=a)
    for (i, j), e in box_ids.items():
        if image[e] != rpp[i - 1][j - 1]:
            return False
    return True


def classical_equivalence(trials: int = 200, seed: int = 0) -> CriterionResult:
    """Insertion RSK and toggle construction agree, pinned example plus random matrices."""
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
    posets = {}
    for size in (3, 4):
        shape = (size,) * size
        square = young(shape)
        posets[size] = (square, young_box_ids(shape), analyze(square))
    for trial in range(trials):
        size = 3 if trial % 2 == 0 else 4
        matrix = [[rng.randint(0, 4) for _ in range(size)] for _ in range(size)]
        shape_poset, box_ids, a = posets[size]
        if not _pipelines_agree(matrix, shape_poset, a, box_ids):
            failures.append(f"fail trial={trial} matrix={matrix}")
            break
    return _result("classical-equivalence", failures, [f"trials={trials} seed={seed}"])


# 10 --------------------------------------------------------------------------


def monte_carlo_agreement(
    prepared: Prepared, samples: int = 10**6, seed: int = 0
) -> CriterionResult:
    """Volume estimates within 4 true standard errors of the closed forms."""
    failures: list[str] = []
    checked = 0
    for name, poset, a in prepared:
        if poset.n > MONTE_CARLO_MAX_ELEMENTS:
            continue
        checked += 1
        x = all_ones_point(a.diagonals.count)
        runs = {}
        for kind in ("fillings", "rpp"):
            spec = PolytopeSpec(kind, x)
            exact = closed_form_volume(poset, spec, analysis=a)
            estimate = monte_carlo_volume(poset, spec, samples=samples, seed=seed, analysis=a)
            p_true = min(max(float(exact) / estimate.box_volume, 0.0), 1.0)
            se_true = math.sqrt(p_true * (1.0 - p_true) / samples) * estimate.box_volume
            runs[kind] = (estimate.estimate, se_true)
            if abs(estimate.estimate - float(exact)) > 4 * se_true:
                failures.append(
                    f"fail poset={name} kind={kind} estimate={estimate.estimate} "
                    f"exact={float(exact)} se={se_true}"
                )
        spread = abs(runs["fillings"][0] - runs["rpp"][0])
        combined = math.hypot(runs["fillings"][1], runs["rpp"][1])
        if spread > 4 * combined:
            failures.append(
                f"fail poset={name} estimates disagree: spread={spread} combined_se={combined}"
            )
    return _result(
        "monte-carlo-volumes",
        failures,
        [
            f"posets={checked} samples={samples} seed={seed} "
            f"max_elements={MONTE_CARLO_MAX_ELEMENTS}"
        ],
    )


# ------------------------------------------------------------------------------


def run_all(
    seed: int = 0,
    points: int = 20,
    trials: int = 100,
    samples: int = 10**6,
    entries: Sequence[CatalogEntry] | None = None,
) -> list[CriterionResult]:
    prepared = prepare(entries)
    return [
        counting_identity(prepared),
        multivariate_identity(prepared, points=points, seed=seed),
        worked_insertion_example(),
        diagonal_sum_identity(prepared, trials=trials, seed=seed),
        order_independence(prepared, trials=trials, seed=seed),
        volume_preservation(prepared, points=25, seed=seed),
        polytope_bijection(prepared, trials=trials, seed=seed),
        structural_properties(prepared),
        classical_equivalence(trials=200, seed=seed),
        monte_carlo_agreement(prepared, samples=samples, seed=seed),
    ]
