"""Cached per-poset analysis bundle.

Derived structure (d^- convex sets, d-intervals, diagonals, hook vectors,
the hook program, the insertion step table, a stable insertion order and
its toggle program, the compiled lattice of order ideals and the
linear-extension count) is computed once per poset and reused across the
many evaluation points of the verification routines.  This is the one
place that wires the derivation chain: the functions it calls take each
input they need as an argument and recompute nothing.

A poset has at most one live analysis: :func:`analyze` returns the one
still in use, and every entry point reads it, so each reuses what a
caller's analysis has already derived.  The poset keeps only a weak
reference to it; once no caller holds the analysis it is freed, and the
next :func:`analyze` builds a fresh one.  The four entry points that
keep ``analysis=`` for the benchmark read it by :func:`_resolve`.
"""

from __future__ import annotations

import weakref
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
from .hooks import (
    HookProgram,
    HookVector,
    compile_hook_program,
    hook_integers,
    hook_numerators,
    hook_vectors,
)
from .poset import IdealLattice, Poset, compile_ideal_lattice, fold_ideal_lattice


class PosetAnalysis:
    """Lazy cache of everything the verification layer derives from a poset."""

    def __init__(self, poset: Poset):
        self.poset = poset

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
    def ideal_lattice(self) -> IdealLattice:
        """The lattice of order ideals, walked once for every count and weight sum."""
        return compile_ideal_lattice(self.poset)

    @cached_property
    def extension_count(self) -> int:
        """The number of linear extensions: :func:`poset.fold_ideal_lattice` with every weight 1."""
        return fold_ideal_lattice(self.ideal_lattice, [1] * self.poset.n)[0]

    @cached_property
    def diagonals(self) -> DiagonalPartition:
        return compute_diagonals(self.poset, self.d_intervals)

    @cached_property
    def hook_vectors(self) -> tuple[HookVector, ...]:
        """The dense hook vectors: the hook program run once, at a point that packs the diagonals."""
        return hook_vectors(self.hook_program)

    @cached_property
    def hook_lengths(self) -> tuple[int, ...]:
        """Classical hook lengths: every hook polynomial at the all-ones point."""
        return tuple(hook_integers(self.hook_program, [1] * self.poset.n))

    @cached_property
    def hook_program(self) -> HookProgram:
        """The d-interval hook recursion: every H_p at a point, and the dense vectors at a packed one."""
        self.ensure_d_complete()
        return compile_hook_program(self.poset, self.diagonals, self.d_intervals)

    @cached_property
    def stable_order(self) -> tuple[int, ...]:
        from .rsk import stable_insertion_order

        self.ensure_d_complete()
        return stable_insertion_order(self.poset, self.d_intervals)

    @cached_property
    def insertion_steps(self):
        """Per element, the toggles of inserting it along any descending extension."""
        from .rsk import insertion_steps

        self.ensure_d_complete()
        return insertion_steps(self.poset, self.diagonals)

    @cached_property
    def insertion_program(self):
        """The toggle program of the stable insertion order, read off the step table."""
        from .rsk import program_along

        return program_along(self.insertion_steps, self.stable_order)

    def hook_polynomials(self, x) -> tuple[Fraction, ...]:
        """All hook polynomials H_p at the exact point x, read as :func:`hooks.hook_numerators` reads it."""
        numerators, denom = hook_numerators(self.hook_program, x)
        return tuple(Fraction(a, denom) for a in numerators)


def analyze(P: Poset) -> PosetAnalysis:
    """P's live analysis: the one a caller still holds, or a new one."""
    a = None if P._analysis is None else P._analysis()
    if a is None:
        a = PosetAnalysis(P)
        P._analysis = weakref.ref(a)
    return a


def _resolve(P: Poset, analysis: PosetAnalysis | None) -> PosetAnalysis:
    """``analysis`` if it is one of P or of an equal poset, P's live one if None, else TypeError or ValueError."""
    if analysis is not None and not isinstance(analysis, PosetAnalysis):
        raise TypeError(f"analysis must be a PosetAnalysis or None, not {type(analysis).__name__}")
    a = analysis or analyze(P)
    if a.poset is not P and a.poset != P:
        raise ValueError("analysis was built for another poset")
    return a
