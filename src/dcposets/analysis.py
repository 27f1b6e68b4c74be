"""Cached per-poset analysis bundle.

Derived structure (d^- convex sets, d-intervals, diagonals, hook vectors,
a stable insertion order and its toggle program, the linear-extension
count) is computed once per poset and reused across the many evaluation
points of the verification routines.  This is the one place that wires
the derivation chain: the functions it calls take each input they need
as an argument and recompute nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .diagonals import DiagonalPartition, compute_diagonals
from .dstructure import (
    AxiomReport,
    DInterval,
    DMinusConvexSet,
    check_d_complete,
    find_d_intervals,
    find_d_minus_convex_sets,
)
from .hooks import HookVector, hook_lengths, hook_polynomial_eval, hook_vectors
from .poset import Poset, count_linear_extensions


class PosetAnalysis:
    """Lazy cache of everything the verification layer derives from a poset."""

    def __init__(self, poset: Poset):
        self.poset = poset
        self._hooks_at: tuple[tuple, tuple[Fraction, ...]] | None = None

    @cached_property
    def d_minus_sets(self) -> tuple[DMinusConvexSet, ...]:
        return find_d_minus_convex_sets(self.poset)

    @cached_property
    def d_intervals(self) -> tuple[DInterval, ...]:
        return find_d_intervals(self.poset, self.d_minus_sets)

    @cached_property
    def axiom_report(self) -> AxiomReport:
        return check_d_complete(self.poset, self.d_intervals, self.d_minus_sets)

    @property
    def is_d_complete(self) -> bool:
        return self.axiom_report.is_d_complete

    def ensure_d_complete(self) -> None:
        report = self.axiom_report
        if not report.is_d_complete:
            first = report.violations[0]
            raise ValueError(
                f"poset is not d-complete: axiom {first.axiom} fails at {first.witness}"
            )

    @cached_property
    def extension_count(self) -> int:
        return count_linear_extensions(self.poset)

    @cached_property
    def diagonals(self) -> DiagonalPartition:
        return compute_diagonals(self.poset, self.d_intervals)

    @cached_property
    def hook_vectors(self) -> tuple[HookVector, ...]:
        self.ensure_d_complete()
        return hook_vectors(self.poset, self.diagonals, self.d_intervals)

    @cached_property
    def hook_lengths(self) -> tuple[int, ...]:
        return hook_lengths(self.hook_vectors)

    @cached_property
    def stable_order(self) -> tuple[int, ...]:
        from .rsk import stable_insertion_order

        return stable_insertion_order(self.poset, analysis=self)

    @cached_property
    def insertion_program(self):
        """The toggle program of the stable insertion order."""
        from .rsk import compile_program

        return compile_program(self.poset, self.diagonals, self.stable_order)

    def hook_polynomials(self, x) -> tuple[Fraction, ...]:
        """All hook polynomials H_p evaluated at the rational point x.

        The last point and its values are kept: callers check several
        things at one point in a row.
        """
        point = tuple(x)
        if self._hooks_at is None or self._hooks_at[0] != point:
            self._hooks_at = (point, tuple(hook_polynomial_eval(v, point) for v in self.hook_vectors))
        return self._hooks_at[1]


def analyze(P: Poset) -> PosetAnalysis:
    return PosetAnalysis(P)
