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
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

import numpy as np

from .analysis import PosetAnalysis, analyze
from .diagonals import DiagonalPartition
from .hooks import (
    RationalPoint,
    all_ones_point,
    random_rational_point,
    validate_point,
)
from .poset import (
    ExtensionLimitError,
    Poset,
    fold_ideals,
    is_descending_extension,
    linear_extensions,
)
from .rsk import Filling, inverse_rsk, normalize_filling, rsk

# Fillings-polytope samples draw their simplex coordinates from multiples of 1/GRAIN.
GRAIN = 2**20
# Monte Carlo points drawn per numpy batch.  2**14 points on 6 elements take
# 768 KiB; 2**17-point batches raised peak RSS by up to 24 MiB, depending on
# where the allocator placed them, and ran slower.  The draws are the same.
CHUNK = 1 << 14


@dataclass(frozen=True)
class WeightEvaluation:
    extension: tuple[int, ...]
    value: Fraction


def weight_eval(
    P: Poset,
    part: DiagonalPartition,
    extension: Sequence[int],
    x: RationalPoint,
) -> WeightEvaluation:
    """Weight of one linear extension at a rational point.

    The reciprocal weight is the product over positions i of the sum of
    x over the diagonals of the suffix p_i..p_n (elements counted with
    multiplicity).
    """
    ext = tuple(extension)
    if not is_descending_extension(P, ext):
        raise ValueError("extension must list every element, larger elements first")
    x = validate_point(x, part.count)
    suffix = Fraction(0)
    inverse = Fraction(1)
    for p in reversed(ext):
        suffix += x[part.diagonal_of[p]]
        inverse *= suffix
    return WeightEvaluation(extension=ext, value=1 / inverse)


def weight_sum(
    P: Poset,
    part: DiagonalPartition,
    x: RationalPoint,
    method: str = "ideal-dp",
) -> Fraction:
    """Sum of extension weights at a rational point.

    ``ideal-dp`` folds the sum up the lattice of downsets with
    :func:`fold_ideals` (each suffix of a descending extension is a
    downset): a downset's value is the sum over the downsets it covers,
    divided by its x-sum.  Posets with more than ``IDEAL_LIMIT`` downsets
    raise :class:`ExtensionLimitError`.  ``enumerate`` sums extension by
    extension; it is the reference the tests compare against.  Both are
    exact and agree.
    """
    x = validate_point(x, part.count)
    if method == "enumerate":
        total = Fraction(0)
        for ext in linear_extensions(P):
            total += weight_eval(P, part, ext, x).value
        return total
    if method != "ideal-dp":
        raise ValueError(f"unknown method {method!r}")

    # With x = c / L over a common denominator L, each x-sum is an integer
    # over L; the fold divides by the integer and the L**n comes back last.
    scale = math.lcm(*(v.denominator for v in x))
    diagonal_masks = [0] * part.count
    for p in range(P.n):
        diagonal_masks[part.diagonal_of[p]] |= 1 << p
    scaled = [(int(v * scale), m) for v, m in zip(x, diagonal_masks)]

    def finish(mask: int, total) -> Fraction:
        return Fraction(total, sum(c * (mask & m).bit_count() for c, m in scaled))

    return fold_ideals(P, finish) * Fraction(scale) ** P.n


@dataclass(frozen=True)
class ProctorReport:
    extensions: int
    hook_product: int
    factorial: int
    ok: bool


def verify_proctor(P: Poset, *, analysis: PosetAnalysis | None = None) -> ProctorReport:
    """Check extensions * product(hook lengths) == |P|! exactly."""
    a = analysis or analyze(P)
    a.ensure_d_complete()
    count = a.extension_count
    product = math.prod(a.hook_lengths)
    fact = math.factorial(P.n)
    return ProctorReport(
        extensions=count,
        hook_product=product,
        factorial=fact,
        ok=count * product == fact,
    )


@dataclass(frozen=True)
class MultivariateFailure:
    point: RationalPoint
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class MultivariateReport:
    points: int
    seed: int
    extensions: int
    ok: bool
    failures: tuple[MultivariateFailure, ...]


def verify_multivariate(
    P: Poset,
    points: int = 20,
    seed: int = 0,
    cap: int = 10**6,
    *,
    analysis: PosetAnalysis | None = None,
) -> MultivariateReport:
    """Check the weight sum against 1/prod(H_p) at random rational points.

    Equality must be exact at every point.  Posets with more linear
    extensions than ``cap`` are refused rather than sampled.
    """
    a = analysis or analyze(P)
    a.ensure_d_complete()
    count = a.extension_count
    if count > cap:
        raise ExtensionLimitError(
            f"poset has {count} linear extensions, above the cap of {cap}; refusing"
        )
    part = a.diagonals
    rng = Random(seed)
    failures = []
    for _ in range(points):
        x = random_rational_point(part.count, rng)
        lhs = weight_sum(P, part, x)
        rhs = 1 / math.prod(a.hook_polynomials(x), start=Fraction(1))
        if lhs != rhs:
            failures.append(MultivariateFailure(point=x, lhs=lhs, rhs=rhs))
    return MultivariateReport(
        points=points,
        seed=seed,
        extensions=count,
        ok=not failures,
        failures=tuple(failures),
    )


# -- polytopes ---------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeSpec:
    """One of the two polytopes, pinned at a positive rational point.

    ``fillings``: t >= 0 with sum_p H_p(x) t_p <= 1 (a rescaled simplex).
    ``rpp``: s >= 0, order-reversing, with sum_p x_{D(p)} s_p <= 1.
    """

    kind: str
    x: RationalPoint

    def __post_init__(self):
        if self.kind not in ("fillings", "rpp"):
            raise ValueError(f"kind must be 'fillings' or 'rpp', got {self.kind!r}")


def polytope_membership(
    P: Poset,
    spec: PolytopeSpec,
    values,
    *,
    analysis: PosetAnalysis | None = None,
) -> bool:
    """Exact evaluation of the defining inequalities."""
    a = analysis or analyze(P)
    x = validate_point(spec.x, a.diagonals.count)
    v = normalize_filling(P.n, values)
    if any(value < 0 for value in v):
        return False
    if spec.kind == "fillings":
        hooks = a.hook_polynomials(x)
        return sum((h * t for h, t in zip(hooks, v)), Fraction(0)) <= 1
    part = a.diagonals
    if any(v[lowp] < v[highp] for lowp, highp in P.covers):
        return False
    return sum((x[part.diagonal_of[p]] * v[p] for p in range(P.n)), Fraction(0)) <= 1


def sample_fillings_point(
    P: Poset,
    x: RationalPoint,
    rng: Random,
    *,
    analysis: PosetAnalysis | None = None,
) -> Filling:
    """Uniform exact-rational point of the fillings polytope.

    Sorted-uniform gaps give a uniform point of the simplex
    {u >= 0, sum u <= 1}; dividing coordinatewise by the hook polynomials
    lands in the fillings polytope.  This matches the distribution of
    rejection sampling from the bounding box without its 1/n! acceptance
    rate.
    """
    a = analysis or analyze(P)
    hooks = a.hook_polynomials(validate_point(x, a.diagonals.count))
    draws = sorted(Fraction(rng.randrange(0, GRAIN + 1), GRAIN) for _ in range(P.n))
    gaps = [draws[0]] + [b - c for b, c in zip(draws[1:], draws)]
    order = list(range(P.n))
    rng.shuffle(order)
    t = [Fraction(0)] * P.n
    for gap, p in zip(gaps, order):
        t[p] = gap / hooks[p]
    return tuple(t)


@dataclass(frozen=True)
class BijectionReport:
    trials: int
    seed: int
    ok: bool
    failures: tuple[tuple, ...]


def rsk_polytope_check(
    P: Poset,
    x: RationalPoint | None = None,
    trials: int = 100,
    seed: int = 0,
    *,
    analysis: PosetAnalysis | None = None,
) -> BijectionReport:
    """Sampled points of the fillings polytope map into the rpp polytope.

    Each trial checks membership of the image, the exact identity
    sum x_{D(p)} s_p == sum H_p(x) t_p, and the exact round trip.
    """
    a = analysis or analyze(P)
    a.ensure_d_complete()
    part = a.diagonals
    if x is None:
        x = all_ones_point(part.count)
    x = validate_point(x, part.count)
    rng = Random(seed)
    hooks = a.hook_polynomials(x)
    fillings_spec = PolytopeSpec("fillings", x)
    rpp_spec = PolytopeSpec("rpp", x)
    failures = []
    for trial in range(trials):
        t = sample_fillings_point(P, x, rng, analysis=a)
        if not polytope_membership(P, fillings_spec, t, analysis=a):
            failures.append((trial, "source-membership", t))
            continue
        s = rsk(P, t, analysis=a)
        if not polytope_membership(P, rpp_spec, s, analysis=a):
            failures.append((trial, "image-membership", t, s))
        lhs = sum((x[part.diagonal_of[p]] * s[p] for p in range(P.n)), Fraction(0))
        rhs = sum((h * v for h, v in zip(hooks, t)), Fraction(0))
        if lhs != rhs:
            failures.append((trial, "weighted-sum", lhs, rhs))
        if inverse_rsk(P, s, analysis=a) != t:
            failures.append((trial, "round-trip", t, s))
    return BijectionReport(trials=trials, seed=seed, ok=not failures, failures=tuple(failures))


# -- Monte Carlo volumes ------------------------------------------------------


@dataclass(frozen=True)
class VolumeEstimate:
    kind: str
    samples: int
    seed: int
    hits: int
    box_volume: float
    estimate: float
    std_error: float


def closed_form_volume(P: Poset, spec: PolytopeSpec, *, analysis: PosetAnalysis | None = None) -> Fraction:
    """Exact volume: simplex formula for fillings, weight sum for rpp."""
    a = analysis or analyze(P)
    x = validate_point(spec.x, a.diagonals.count)
    n_fact = math.factorial(P.n)
    if spec.kind == "fillings":
        return Fraction(1, n_fact) / math.prod(a.hook_polynomials(x), start=Fraction(1))
    return weight_sum(P, a.diagonals, x) / n_fact


def monte_carlo_volume(
    P: Poset,
    spec: PolytopeSpec,
    samples: int = 10**6,
    seed: int = 0,
    *,
    analysis: PosetAnalysis | None = None,
) -> VolumeEstimate:
    """Hit-rate estimate over the bounding box, with binomial standard error.

    Boxes: [0, max_p 1/H_p(x)]^n for fillings, [0, 1/min_D x_D]^n for rpp.
    """
    a = analysis or analyze(P)
    x = validate_point(spec.x, a.diagonals.count)
    n = P.n
    rng = np.random.default_rng(seed)
    if spec.kind == "fillings":
        hooks = np.array([float(h) for h in a.hook_polynomials(x)])
        edge = float(max(Fraction(1) / h for h in a.hook_polynomials(x)))
    else:
        part = a.diagonals
        weights = np.array([float(x[part.diagonal_of[p]]) for p in range(n)])
        edge = float(1 / min(x))
        cover_pairs = sorted(P.covers)
    box_volume = edge**n
    hits = 0
    done = 0
    while done < samples:
        take = min(CHUNK, samples - done)
        pts = rng.uniform(0.0, edge, size=(take, n))
        if spec.kind == "fillings":
            inside = pts @ hooks <= 1.0
        else:
            inside = pts @ weights <= 1.0
            for low, high in cover_pairs:
                inside &= pts[:, low] >= pts[:, high]
        hits += int(inside.sum())
        done += take
    rate = hits / samples
    estimate = rate * box_volume
    std_error = math.sqrt(rate * (1.0 - rate) / samples) * box_volume
    return VolumeEstimate(
        kind=spec.kind,
        samples=samples,
        seed=seed,
        hits=hits,
        box_volume=box_volume,
        estimate=estimate,
        std_error=std_error,
    )
