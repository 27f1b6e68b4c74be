"""Acceptance battery over the full built-in catalog.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s`` or on failure).  All identity checks are exact; the Monte
Carlo comparison uses a pinned seed.
"""

import importlib
import math
import time
from fractions import Fraction
from functools import reduce
from random import Random

import pytest

from dcposets import acceptance, rsk_polytope_check, verify
from dcposets import Poset, analyze, inverse_rsk, rsk, rsk_jacobian_det, young
from dcposets.analysis import PosetAnalysis
from dcposets.classical import (
    classical_insert_rsk,
    gt_from_rpp,
    is_rpp,
    order_from_ranks,
    row_major_order,
    ssyt_from_gt,
    toggle_rpp,
)
from dcposets.families import young_box_ids
from dcposets.hooks import (
    exact_labels,
    hook_numerators,
    random_rational_point,
    random_scaled_point,
    random_scaled_points,
)
from dcposets.rsk import (
    DIRECTION_BOUND,
    NonGenericPoint,
    Program,
    _run,
    _toggle_all,
    random_descending_extension,
    random_filling,
)
from dcposets.verify import BijectionReport

from conftest import (
    MUTANT_POSETS,
    _double_where_first_denominator_is_even,
    _first_candidate_step,
    _max_below_step,
    _min_above,
    corpus,
    large,
)
from oracles import _reference_program

# the package's ``rsk`` attribute is the function, not the module
rsk_module = importlib.import_module("dcposets.rsk")

SEED = 0


@pytest.fixture(scope="module")
def prepared():
    return acceptance.prepare()


def report(result, *lines):
    """Print a criterion's lines, and require it to pass with exactly ``lines``.

    The lines are the ones ``dcposets suite --seed 0`` prints under the
    criterion, so these tests pin its output.
    """
    print(f"ACCEPTANCE {result.name}: {'PASS' if result.ok else 'FAIL'}")
    for line in result.lines:
        print(f"  {line}")
    assert result.ok, result.lines
    assert result.lines == lines


def test_criterion_01_counting_identity(prepared):
    report(acceptance.counting_identity(prepared), "posets=296")


def test_criterion_02_multivariate_identity(prepared):
    report(acceptance.multivariate_identity(prepared, points=20, seed=SEED), "posets=296 points=20 seed=0")


# d_4(1)'s count line is criterion 3's, with the worked insertion's line
WORKED_LINES = (
    "d4 extensions=2 hook_product=360 factorial=720",
    "labels top-to-bottom 3,4,6,7,9,11",
)


def test_criterion_03_worked_insertion_example():
    report(acceptance.worked_insertion_example(), *WORKED_LINES)


def test_criterion_04_diagonal_sum_identity(prepared):
    report(acceptance.diagonal_sum_identity(prepared, trials=100, seed=SEED), "posets=296 trials=100 seed=0")


def test_criterion_05_order_independence(prepared):
    report(acceptance.order_independence(prepared, trials=100, seed=SEED), "posets=296 trials=100 seed=0")


def test_criterion_06_volume_preservation(prepared):
    report(acceptance.volume_preservation(prepared, points=25, seed=SEED), "posets=296 points=25 seed=0")


def test_criterion_07_polytope_bijection(prepared):
    report(acceptance.polytope_bijection(prepared, trials=100, seed=SEED), "posets=296 trials=100 seed=0")


def test_criterion_08_structural_properties(prepared):
    report(acceptance.structural_properties(prepared), "posets=296")


def test_structural_properties_names_a_failed_axiom():
    # a poset that is not d-complete gets one fail line, naming its first
    # violation, and none of the other structure checks
    P = Poset(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    result = acceptance.structural_properties([("two-diamonds", P, analyze(P))])
    assert not result.ok
    assert result.lines == (
        "posets=1",
        "fail poset=two-diamonds axioms=(AxiomViolation(axiom=3, witness=(0, 1, 2, 3)),)",
    )


def test_criterion_09_classical_equivalence():
    report(acceptance.classical_equivalence(trials=200, seed=SEED), "trials=200 seed=0")


def test_criterion_10_monte_carlo_volumes(prepared):
    report(
        acceptance.monte_carlo_agreement(prepared, samples=10**6, seed=SEED),
        "posets=82 samples=1000000 seed=0 max_elements=6",
    )


def test_catalog_criteria_build_no_worked_example(monkeypatch):
    # criteria 1, 4 and 7 check their identities on the posets they are given
    # and nothing else: d_4(1) is built only by criterion 3
    def refuse(k):
        raise AssertionError(f"d_k_one({k}) built outside criterion 3")

    monkeypatch.setattr(acceptance, "d_k_one", refuse)
    names = ("d4", "young-3.2", "shifted-4.2", "sample10")
    subset = acceptance.prepare([e for e in corpus("catalog") if e.name in names])
    results = (
        acceptance.counting_identity(subset),
        acceptance.diagonal_sum_identity(subset, trials=5, seed=SEED),
        acceptance.polytope_bijection(subset, trials=5, seed=SEED),
    )
    assert [result.lines for result in results] == [
        ("posets=4",),
        (f"posets=4 trials=5 seed={SEED}",),
        (f"posets=4 trials=5 seed={SEED}",),
    ]
    assert all(result.ok for result in results)
    with pytest.raises(AssertionError, match="outside criterion 3"):
        acceptance.worked_insertion_example()


def _diagonal_sums_off_by_one(monkeypatch):
    diagonal_sums = acceptance.diagonal_sums
    monkeypatch.setattr(
        acceptance, "diagonal_sums", lambda *args: tuple(s + 1 for s in diagonal_sums(*args))
    )


def _one_extension_too_many(monkeypatch):
    verify_proctor = acceptance.verify_proctor

    def wrong(P, **kwargs):
        report = verify_proctor(P, **kwargs)
        return report._replace(extensions=report.extensions + 1)

    monkeypatch.setattr(acceptance, "verify_proctor", wrong)


def _first_and_last_hooks_swapped(monkeypatch):
    # d_4(1)'s hook lengths are (1, 2, 3, 3, 4, 5); swapped, their product
    # and so the counting identity hold, but sum_p h_p t_p is 44, not 40
    hook_lengths = PosetAnalysis.hook_lengths.func

    def swapped(self):
        first, *middle, last = hook_lengths(self)
        return (last, *middle, first)

    monkeypatch.setattr(PosetAnalysis, "hook_lengths", property(swapped))


@pytest.mark.parametrize(
    "mutant, lines",
    [
        (
            _diagonal_sums_off_by_one,
            WORKED_LINES
            + (
                "fail worked example diagonal sums (Fraction(15, 1), Fraction(14, 1), "
                "Fraction(7, 1), Fraction(8, 1)) != (14, 13, 6, 7)",
            ),
        ),
        (
            _one_extension_too_many,
            ("d4 extensions=3 hook_product=360 factorial=720", WORKED_LINES[1])
            + ("fail d4 instance does not match (2, 360, 720)",),
        ),
        (_first_and_last_hooks_swapped, WORKED_LINES + ("fail worked example sums 40 != 44 != 40",)),
    ],
    ids=["diagonal-sums", "extension-count", "hook-lengths"],
)
def test_worked_example_fails_each_pinned_identity(monkeypatch, mutant, lines):
    # the worked-example fail lines of criteria 1, 4 and 7 are criterion 3's
    mutant(monkeypatch)
    assert acceptance.worked_insertion_example() == acceptance.CriterionResult(
        "worked-insertion-example", False, lines
    )


def _leaky_step(labels, toggles, top=max, bottom=min):
    """A wrong step function: each toggle also adds the label of element e + 1 (mod n).

    That element is no cover of e, and whether it has been inserted yet
    depends on the insertion order, so the error does too.  It folds each
    side through the step's binary reductions, so it leaks on label lists
    and label matrices alike, and reads an empty side as 0, as the kernel
    does.
    """
    n = len(labels)
    for e, ups, los in toggles:
        hi = reduce(top, [labels[u] for u in ups]) if ups else 0
        lo = reduce(bottom, [labels[v] for v in los]) if los else 0
        labels[e] = hi + lo - labels[e] + labels[(e + 1) % n]


def test_broken_kernel_fails_integer_checks(monkeypatch):
    # the trial loops of criteria 4, 5 and 7 run the kernel on integer labels,
    # criterion 5 one filling at a time and criteria 4 and 7 on all trials'
    # columns at once, and criterion 6 runs it along a direction at each
    # generic point; a wrong step must make each of them fail on every
    # poset, not only in the worked examples, and must trip every check of
    # criterion 7 that reads the image
    names = ("d4", "young-3.2", "shifted-4.2", "sample10")
    subset = acceptance.prepare([e for e in corpus("catalog") if e.name in names])
    monkeypatch.setattr(rsk_module, "_toggle_all", _leaky_step)
    for criterion in (
        acceptance.diagonal_sum_identity,
        acceptance.order_independence,
        lambda subset, trials, seed: acceptance.volume_preservation(subset, points=trials, seed=seed),
        acceptance.polytope_bijection,
    ):
        result = criterion(subset, trials=5, seed=SEED)
        assert not result.ok, result.name
        for name, _, _ in subset:
            assert any(line.startswith(f"fail poset={name} ") for line in result.lines), (
                result.name,
                name,
            )
    kinds = {
        failure[1]
        for _, poset, _ in subset
        for failure in rsk_polytope_check(poset, trials=5, seed=SEED).failures
    }
    assert kinds == {"image-membership", "weighted-sum", "round-trip"}


@pytest.mark.parametrize(
    "seam, step",
    [("_toggle_all", _max_below_step), ("_toggle_all", _first_candidate_step), ("_strict_step", _min_above)],
    ids=["max-below", "first-candidate", "strict-min-above"],
)
def test_volume_preservation_catches_wrong_choices(prepared, monkeypatch, seam, step):
    # each wrong step agrees with the right one wherever every side has one
    # candidate, so criterion 6 must fail exactly on the posets whose stable
    # program has a side with two or more, and pass on the rest: whether the
    # kernel chooses wrongly or the strict step, its reference, does
    multiple = {
        name
        for name, _, a in prepared
        if any(len(ups) > 1 or len(los) > 1 for _, toggles in a.insertion_program for _, ups, los in toggles)
    }
    monkeypatch.setattr(rsk_module, seam, step)
    result = acceptance.volume_preservation(prepared, points=25, seed=SEED)
    failed = {line.split()[1][len("poset="):] for line in result.lines if line.startswith("fail poset=")}
    assert len(multiple) == 46 and failed == multiple
    assert all(" point=" in line and " element=" in line for line in result.lines[1:])


def test_volume_preservation_checks_every_point_it_draws(monkeypatch):
    """Criterion 6 checks each of its 25 fillings, those with a tie included,
    so it passes on large posets where nearly every filling has one.

    When it skipped each filling with a tie and gave up after 1,000 draws,
    both runs below failed with "found only 0 generic points".  Budget,
    stated in advance: 1 s of CPU time for the two, analysis included.
    """
    draws = []

    def counted(count, rng):
        draws.append(count)
        return random_scaled_point(count, rng)

    monkeypatch.setattr(acceptance, "random_scaled_point", counted)
    posets = [(name, large(name), seed) for name, seed in (("young-30x30", 0), ("shifted-40..1", 7))]
    start = time.process_time()
    for name, P, seed in posets:
        draws.clear()
        result = acceptance.volume_preservation([(name, P, analyze(P))], seed=seed)
        assert result.ok, result.lines
        assert draws == [P.n] * 25, name
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("n", [0, 1])
def test_kernel_runs_on_the_smallest_posets(n):
    # the kernel's label lists and matrices have exactly n rows, so the empty
    # poset runs it on zero-row matrices and the one-element poset on one row
    P = Poset(n)
    a = analyze(P)
    filling = (1,) * n
    image = rsk(P, filling, analysis=a)
    assert image == (Fraction(1),) * n
    assert inverse_rsk(P, image, analysis=a) == image
    assert rsk_jacobian_det(P, filling, analysis=a) == 1
    assert rsk_polytope_check(P, trials=10, seed=SEED).ok
    subset = [(f"poset-{n}", P, a)]
    for criterion in (
        acceptance.diagonal_sum_identity,
        acceptance.order_independence,
        acceptance.volume_preservation,
        acceptance.polytope_bijection,
    ):
        result = criterion(subset, 10, SEED)
        assert result.ok, result


@pytest.mark.parametrize("count, error", [(-1, ValueError), (0, ValueError), (2.5, TypeError)])
def test_criteria_refuse_bad_counts(count, error):
    # a count below 1 checked nothing, and -1 or 2.5 leaked random's own errors
    subset = acceptance.prepare([e for e in corpus("catalog") if e.name == "d4"])
    calls = {
        "trials": (
            lambda: acceptance.diagonal_sum_identity(subset, trials=count),
            lambda: acceptance.order_independence(subset, trials=count),
            lambda: acceptance.classical_equivalence(trials=count),
        ),
        "points": (lambda: acceptance.volume_preservation(subset, points=count),),
    }
    for name, runs in calls.items():
        for run in runs:
            with pytest.raises(error, match=f"^{name} must be "):
                run()


# -- the batched criteria against their per-trial loops ------------------------


def _loop_diagonal_sums(prepared, trials, seed):
    """Criterion 4's fail lines from the per-trial loop: one filling at a time
    through the scalar kernel, the same draw read trial by trial."""
    failures = []
    for name, poset, a in prepared:
        labels = random_scaled_points(poset.n, trials, Random(seed))
        program = a.insertion_program
        hooks = a.hook_vectors
        diagonals = [
            (members, [(p, h[d]) for p, h in enumerate(hooks) if h[d]])
            for d, members in enumerate(a.diagonals.classes)
        ]
        for trial, t in enumerate(labels.T.tolist()):
            s = t[:]
            rsk_module._run(s, program)
            for d, (members, column) in enumerate(diagonals):
                if sum(s[p] for p in members) != sum(h * t[p] for p, h in column):
                    failures.append(f"fail poset={name} seed={seed} trial={trial} diagonal={d}")
                    break
            else:
                continue
            break
    return failures


def _loop_polytope_check(P, a, trials, seed):
    """rsk_polytope_check as a per-trial loop through the scalar kernel."""
    x = tuple(Fraction(1) for _ in range(a.diagonals.count))
    hooks, hooks_denom, _ = verify._polytope(P, verify.PolytopeSpec("fillings", x), a)
    weights, _, cover_pairs = verify._polytope(P, verify.PolytopeSpec("rpp", x), a)
    rng = Random(seed)
    factors, denom = verify._sample_scale(hooks, hooks_denom)
    bound = hooks_denom * denom
    program = a.insertion_program

    def fractions(labels):
        return tuple(Fraction(v, denom) for v in labels)

    failures = []
    rows = verify._simplex_gap_rows(P.n, trials, rng).tolist()
    for trial in range(trials):
        t = [g * f for g, f in zip(rows[trial], factors)]
        hook_side = verify._dot(hooks, t)
        if not verify._inside(t, hook_side, bound, ()):
            failures.append((trial, "source-membership", fractions(t)))
            continue
        s = t[:]
        rsk_module._run(s, program)
        weight_side = verify._dot(weights, s)
        if not verify._inside(s, weight_side, bound, cover_pairs):
            failures.append((trial, "image-membership", fractions(t), fractions(s)))
        if weight_side != hook_side:
            lhs, rhs = Fraction(weight_side, bound), Fraction(hook_side, bound)
            failures.append((trial, "weighted-sum", lhs, rhs))
        back = s[:]
        rsk_module._run(back, program, backward=True)
        if back != t:
            failures.append((trial, "round-trip", fractions(t), fractions(s)))
    return BijectionReport(trials=trials, seed=seed, ok=not failures, failures=tuple(failures))


def _drop_toggle(program):
    """The program without the last toggle of its longest step."""
    k = max(range(len(program)), key=lambda i: len(program[i][1]))
    c, toggles = program[k]
    return program[:k] + ((c, toggles[:-1]),) + program[k + 1 :]


def _drop_candidate(program):
    """The program with the last candidate cut from the last side that has two or more:
    that toggle then goes wrong only in the trials where the cut candidate wins."""
    steps = [list(step) for _, step in program]
    sides = [
        (k, i)
        for k, step in enumerate(steps)
        for i, (_, ups, los) in enumerate(step)
        if len(ups) > 1 or len(los) > 1
    ]
    if not sides:
        return program
    k, i = sides[-1]
    e, ups, los = steps[k][i]
    steps[k][i] = (e, ups, los[:-1]) if len(los) > 1 else (e, ups[:-1], los)
    return tuple((c, tuple(step)) for (c, _), step in zip(program, steps))


def _non_commuting(program):
    """The program with each step's first toggle e followed, in the same step, by a
    toggle of e's upper cover against e, so running the step again no longer undoes it."""
    out = []
    for c, step in program:
        e, ups, _ = step[0]
        if ups:
            step += ((ups[0], ups, (e,)),)
        out.append((c, step))
    return tuple(out)


def _bump_hook_vector(hooks):
    """The hook vectors with the last element's last entry one larger."""
    *rest, last = hooks
    return (*rest, (*last[:-1], last[-1] + 1))


PROGRAM_MUTANTS = {
    "drop-toggle": _drop_toggle,
    "drop-candidate": _drop_candidate,
    "non-commuting": _non_commuting,
}


def _mutant_subset(mutant):
    """The subset with fresh analyses, so a mutant leaves every live analysis alone."""
    subset = [(e.name, e.poset, PosetAnalysis(e.poset)) for e in corpus("catalog") if e.name in MUTANT_POSETS]
    assert len(subset) == len(MUTANT_POSETS)
    for _, _, a in subset:
        if mutant in PROGRAM_MUTANTS:
            a.insertion_program = PROGRAM_MUTANTS[mutant](a.insertion_program)
        elif mutant == "bump-hook-vector":
            a.hook_vectors = _bump_hook_vector(a.hook_vectors)
    return subset


@pytest.mark.parametrize("mutant", ["drop-toggle", "drop-candidate", "bump-hook-vector"])
def test_diagonal_sums_fail_like_the_trial_loop(mutant):
    # criterion 4 names the first failing trial and, in it, the first failing
    # diagonal, as the per-trial loop does
    lines = []
    for seed in range(3):
        subset = _mutant_subset(mutant)
        result = acceptance.diagonal_sum_identity(subset, trials=100, seed=seed)
        got = [line for line in result.lines if line.startswith("fail poset=")]
        assert got == _loop_diagonal_sums(subset, 100, seed), seed
        lines += got
    assert lines
    if mutant == "drop-candidate":
        # it fails only where the cut candidate wins, so not always at trial 0
        assert any(" trial=0 " not in line for line in lines)


@pytest.mark.parametrize("mutant", [None, "bump-hook-vector"])
def test_diagonal_sums_compare_python_ints_like_the_trial_loop(monkeypatch, mutant):
    # past the int64 bound criterion 4's label matrix holds Python ints, and
    # both of its matrix products add them exactly; forced to that dtype on
    # the mutant posets, its fail lines are still the per-trial loop's
    label_matrix = acceptance._label_matrix
    monkeypatch.setattr(acceptance, "_label_matrix", lambda values, growth: label_matrix(values, 2**62))
    subset = _mutant_subset(mutant)
    result = acceptance.diagonal_sum_identity(subset, trials=100, seed=SEED)
    got = [line for line in result.lines if line.startswith("fail poset=")]
    assert got == _loop_diagonal_sums(subset, 100, SEED)
    assert bool(got) == (mutant is not None)


def _loop_order_independence(prepared, trials, seed):
    """Criterion 5 as a per-trial loop: each trial's two orders drawn whole by
    random_descending_extension, compiled once per distinct order, and run
    through ``_run``."""
    failures: list[str] = []
    for name, poset, a in prepared:
        rng = Random(seed)
        a.ensure_d_complete()
        part = a.diagonals
        programs: dict[tuple[int, ...], Program] = {}
        labels = random_scaled_points(poset.n, trials, rng)
        for trial, s1 in enumerate(labels.T.tolist()):
            s2 = s1[:]
            for s in (s1, s2):
                order = random_descending_extension(poset, rng)
                program = programs.get(order)
                if program is None:
                    program = programs[order] = _reference_program(poset, part, order)
                _run(s, program)
            if s1 != s2:
                failures.append(f"fail poset={name} seed={seed} trial={trial}")
                break
    return acceptance._result(
        "order-independence", failures, [f"posets={len(prepared)} trials={trials} seed={seed}"]
    )


def _step_off_multiples_of_five(labels, toggles):
    """The replay test's wrong step function: a toggled label landing on a
    multiple of 5 gains 1.  It breaks criteria 4 and 7, but every image it
    gives is still independent of the order, so criterion 5 passes under it."""
    _toggle_all(labels, toggles)
    for e, _, _ in toggles:
        if labels[e] % 5 == 0:
            labels[e] += 1


def _leak_on_multiples_of_seven(labels, toggles):
    """:func:`_leaky_step`'s leak, only where a toggled label lands on a multiple of 7:
    the first failing trial then depends on the draws."""
    _toggle_all(labels, toggles)
    n = len(labels)
    for e, _, _ in toggles:
        if labels[e] % 7 == 0:
            labels[e] += labels[(e + 1) % n]


C5_STEPS = {
    "leaky": _leaky_step,
    "leak-on-multiples-of-7": _leak_on_multiples_of_seven,
    "off-multiples-of-5": _step_off_multiples_of_five,
}


@pytest.mark.parametrize("step", [None, *C5_STEPS])
def test_order_independence_fails_like_the_trial_loop(monkeypatch, step):
    # criterion 5 walks its orders through one memo per poset; its result,
    # fail lines included, equals the per-trial loop's on the same stream
    if step is not None:
        monkeypatch.setattr(rsk_module, "_toggle_all", C5_STEPS[step])
    lines = []
    for seed in range(3):
        subset = _mutant_subset(None)
        result = acceptance.order_independence(subset, trials=100, seed=seed)
        assert result == _loop_order_independence(subset, 100, seed), seed
        lines += [line for line in result.lines if line.startswith("fail poset=")]
    if step in (None, "off-multiples-of-5"):
        assert not lines
    else:
        # tree-0 has one linear extension, so no step can make it fail
        names = {line.split()[1] for line in lines}
        assert names == {f"poset={name}" for name in MUTANT_POSETS if name != "tree-0"}
        assert any(not line.endswith(" trial=0") for line in lines)


def _loop_multivariate_identity(prepared, points, seed):
    """Criterion 2 as a per-point loop: each point drawn as Fractions, its
    weight sum from ``verify.weight_sum`` (one scalar fold per point) and
    its hooks from ``hook_numerators``, compared as Fractions."""
    failures: list[str] = []
    for name, poset, a in prepared:
        a.ensure_d_complete()
        part = a.diagonals
        rng = Random(seed)
        first = None
        for _ in range(points):
            x = random_rational_point(part.count, rng)
            lhs = verify.weight_sum(poset, part, x)
            hooks, denom = hook_numerators(a.hook_program, x)
            rhs = Fraction(denom**poset.n, math.prod(hooks))
            if lhs != rhs and first is None:
                first = (x, lhs, rhs)
        if first is not None:
            x, lhs, rhs = first
            failures.append(f"fail poset={name} seed={seed} point={x} lhs={lhs} rhs={rhs}")
    return acceptance._result(
        "multivariate-identity", failures, [f"posets={len(prepared)} points={points} seed={seed}"]
    )


@pytest.mark.parametrize("mutant", [None, "doubled-fold"])
def test_multivariate_identity_fails_like_the_point_loop(monkeypatch, mutant):
    # criterion 2 folds all of a poset's points in one walk and compares
    # integers; its result, fail lines included, equals the per-point loop's
    if mutant is not None:
        _double_where_first_denominator_is_even(monkeypatch)
    lines = []
    for seed in range(10):
        subset = _mutant_subset(None)
        result = acceptance.multivariate_identity(subset, points=20, seed=seed)
        assert result == _loop_multivariate_identity(subset, 20, seed), seed
        lines += [line for line in result.lines if line.startswith("fail poset=")]
    if mutant is None:
        assert not lines
    else:
        # every poset has a point with an even first denominator at some seed
        assert {line.split()[1] for line in lines} == {f"poset={name}" for name in MUTANT_POSETS}


def _loop_derivative_check(P, filling, rng, a):
    """Criterion 6's per-point check as it read a Fraction filling:
    as integer labels over its common denominator."""
    a.ensure_d_complete()
    base, _ = exact_labels(filling, P.n, "filling", "elements")
    program = a.insertion_program
    width = DIRECTION_BOUND.bit_length()
    bits = rng.getrandbits(width * P.n)
    v = [(bits >> width * j & 2 * DIRECTION_BOUND - 1) - DIRECTION_BOUND for j in range(P.n)]
    k = 2 * a.insertion_growth[0] * DIRECTION_BOUND + 1
    expected = [k * s + w for s, w in zip(base, v)]
    moved = expected[:]
    _run(expected, program, step=rsk_module._strict_step)
    _run(moved, program)
    return next((e for e in range(P.n) if moved[e] != expected[e]), None)


def _loop_volume_preservation(prepared, points, seed):
    """Criterion 6 with each filling drawn by ``random_filling`` as Fractions."""
    failures: list[str] = []
    for name, poset, a in prepared:
        rng = Random(seed)
        for point in range(points):
            t = random_filling(poset.n, rng)
            try:
                wrong = _loop_derivative_check(poset, t, rng, a)
            except NonGenericPoint:
                failures.append(f"fail poset={name} seed={seed} point={point} tie at the scaled point")
                break
            if wrong is not None:
                failures.append(f"fail poset={name} seed={seed} point={point} element={wrong}")
                break
    return acceptance._result(
        "volume-preservation", failures, [f"posets={len(prepared)} points={points} seed={seed}"]
    )


C6_STEPS = {
    "leaky": _leaky_step,
    "max-below": _max_below_step,
    "first-candidate": _first_candidate_step,
    "leak-on-multiples-of-7": _leak_on_multiples_of_seven,
}


@pytest.mark.parametrize("step", [None, *C6_STEPS])
def test_volume_preservation_fails_like_the_point_loop(monkeypatch, step):
    # criterion 6 decodes each filling straight to integer labels; its
    # result, fail lines included, equals the loop's that drew Fractions
    if step is not None:
        monkeypatch.setattr(rsk_module, "_toggle_all", C6_STEPS[step])
    lines = []
    for seed in range(10):
        subset = _mutant_subset(None)
        result = acceptance.volume_preservation(subset, points=25, seed=seed)
        assert result == _loop_volume_preservation(subset, 25, seed), seed
        lines += [line for line in result.lines if line.startswith("fail poset=")]
    assert bool(lines) == (step is not None)
    if step == "leak-on-multiples-of-7":
        # its first failing point depends on the draws
        assert any(" point=0 " not in line for line in lines)


def _bump_hook(polytope):
    def bumped(P, spec, a):
        weights, bound, pairs = polytope(P, spec, a)
        if spec.kind == "fillings":
            weights = [*weights[:-1], weights[-1] + 1]
        return weights, bound, pairs

    return bumped


def _swap_cover_pair(polytope):
    def swapped(P, spec, a):
        weights, bound, pairs = polytope(P, spec, a)
        if pairs:
            (low, high), *rest = pairs
            pairs = [(high, low), *rest]
        return weights, bound, pairs

    return swapped


def _double_last_factor(sample_scale):
    def scaled(hooks, hooks_denom):
        factors, denom = sample_scale(hooks, hooks_denom)
        return [*factors[:-1], 2 * factors[-1]], denom

    return scaled


# mutant -> (the verify function it wraps, the wrapper, the failure kinds it must trip)
POLYTOPE_MUTANTS = {
    "drop-toggle": (None, None, {"image-membership", "weighted-sum"}),
    "drop-candidate": (None, None, {"weighted-sum"}),
    "non-commuting": (None, None, {"round-trip"}),
    "bump-hook": ("_polytope", _bump_hook, {"weighted-sum"}),
    "swap-cover-pair": ("_polytope", _swap_cover_pair, {"image-membership"}),
    "scale": ("_sample_scale", _double_last_factor, {"source-membership"}),
}


@pytest.mark.parametrize("mutant", list(POLYTOPE_MUTANTS))
def test_polytope_check_fails_like_the_trial_loop(monkeypatch, mutant):
    # criterion 7's failure tuples, trial by trial, equal the per-trial loop's
    name, wrap, kinds = POLYTOPE_MUTANTS[mutant]
    if name:
        monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
    subset = _mutant_subset(mutant)
    # rsk_polytope_check reads analyze(P): hand it the subset's fresh analyses,
    # so a program mutant reaches it and every live analysis is left alone
    fresh = {id(P): a for _, P, a in subset}
    monkeypatch.setattr(verify, "analyze", lambda P: fresh[id(P)])
    seen = set()
    for _, P, a in subset:
        for seed in range(2):
            report = rsk_polytope_check(P, trials=100, seed=seed)
            assert report == _loop_polytope_check(P, a, 100, seed), (P, seed)
            seen.update(failure[1] for failure in report.failures)
    assert kinds <= seen


def _loop_pipelines_agree(matrix, shape_poset, a, box_ids) -> bool:
    """Criterion 9's per-matrix check as the per-trial loop ran it: one rsk() call."""
    rpp = acceptance.toggle_rpp(matrix)
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
    image = rsk_module.rsk(shape_poset, flat, range(shape_poset.n), analysis=a)
    for (i, j), e in box_ids.items():
        if image[e] != rpp[i - 1][j - 1]:
            return False
    return True


def _loop_classical_equivalence(trials, seed, agree=_loop_pipelines_agree):
    """Criterion 9 as the per-trial loop: each matrix drawn, then checked alone."""
    A = acceptance
    failures: list[str] = []
    rpp = A.toggle_rpp(list(map(list, A.APPENDIX_MATRIX)), order_from_ranks(A.APPENDIX_RANKS))
    if tuple(map(tuple, rpp)) != A.APPENDIX_RPP:
        failures.append(f"fail pinned rpp={rpp}")
    lower, upper = gt_from_rpp(rpp)
    if lower.rows != A.APPENDIX_LOWER_GT or upper.rows != A.APPENDIX_UPPER_GT:
        failures.append(f"fail pinned patterns {lower.rows} {upper.rows}")
    p, q = classical_insert_rsk(A.APPENDIX_MATRIX)
    if p.rows != A.APPENDIX_P or q.rows != A.APPENDIX_Q:
        failures.append(f"fail pinned tableaux {p.rows} {q.rows}")
    if (ssyt_from_gt(lower).rows, ssyt_from_gt(upper).rows) != (A.APPENDIX_P, A.APPENDIX_Q):
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
        if not agree(matrix, shape_poset, a, box_ids):
            failures.append(f"fail seed={seed} trial={trial} matrix={matrix}")
            break
    return A._result("classical-equivalence", failures, [f"trials={trials} seed={seed}"])


def _toggle_rpp_skipping_a_toggle(matrix, order=None):
    """toggle_rpp, except that placing cell (3, 3) leaves cell (0, 0) untoggled:
    only 4x4 matrices go wrong, and only where that toggle changes the label."""
    rows = [list(row) for row in matrix]
    shape = [len(row) for row in rows]
    out = {}

    def read(i, j):
        return out.get((i, j), 0)

    for i, j in order or row_major_order(shape):
        out[(i, j)] = max(read(i - 1, j), read(i, j - 1)) + rows[i][j]
        for x, y in list(out):
            if (x, y) != (i, j) and x - y == i - j and ((i, j), (x, y)) != ((3, 3), (0, 0)):
                out[(x, y)] = (
                    max(read(x - 1, y), read(x, y - 1))
                    + min(read(x + 1, y), read(x, y + 1))
                    - out[(x, y)]
                )
    return [[out[(i, j)] for j in range(width)] for i, width in enumerate(shape)]


def _toggle_rpp_swapping_two_cells(matrix, order=None):
    """toggle_rpp, except that on a 4x4 matrix cells (0, 0) and (3, 3) trade
    labels: the result is no RPP wherever the two differ."""
    rpp = toggle_rpp(matrix, order)
    if len(rpp) == 4:
        rpp[0][0], rpp[3][3] = rpp[3][3], rpp[0][0]
    return rpp


@pytest.mark.parametrize("mutant", [None, "leaky-step", "skip-a-toggle", "non-rpp"])
def test_classical_equivalence_fails_like_the_trial_loop(monkeypatch, mutant):
    # criterion 9 draws every matrix first and runs each square's trials as one
    # label matrix; its result, fail line included, equals the per-trial loop's.
    # The non-RPP mutant fails the loop's is_rpp check and criterion 9's
    # gt_from_rpp refusal alike
    if mutant == "leaky-step":
        monkeypatch.setattr(rsk_module, "_toggle_all", _leaky_step)
    elif mutant == "skip-a-toggle":
        monkeypatch.setattr(acceptance, "toggle_rpp", _toggle_rpp_skipping_a_toggle)
    elif mutant == "non-rpp":
        monkeypatch.setattr(acceptance, "toggle_rpp", _toggle_rpp_swapping_two_cells)
    lines = []
    for seed in range(3):
        result = acceptance.classical_equivalence(trials=200, seed=seed)
        assert result == _loop_classical_equivalence(200, seed), seed
        lines += [line for line in result.lines if line.startswith("fail")]
    assert bool(lines) == (mutant is not None)
    if mutant in ("skip-a-toggle", "non-rpp"):
        assert not any(line.startswith("fail pinned") for line in lines)
    if mutant == "skip-a-toggle":
        assert any(" trial=1 " not in line for line in lines)


def test_classical_equivalence_draws_the_loops_matrices(monkeypatch):
    # the batched draw gives the per-trial loop's matrices, trial by trial
    for seed in range(3):
        batched, looped = [], []

        def record_batched(matrix, image, box_ids, agree=acceptance._pipelines_agree):
            batched.append(matrix)
            return agree(matrix, image, box_ids)

        def record_looped(matrix, *rest):
            looped.append(matrix)
            return _loop_pipelines_agree(matrix, *rest)

        monkeypatch.setattr(acceptance, "_pipelines_agree", record_batched)
        assert acceptance.classical_equivalence(trials=200, seed=seed).ok
        monkeypatch.undo()
        assert _loop_classical_equivalence(200, seed, agree=record_looped).ok
        assert len(batched) == 200 and batched == looped, seed
