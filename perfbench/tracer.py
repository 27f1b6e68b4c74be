"""Span tracer installed from outside the package.

Wrappers replace the public functions of each ``dcposets`` module on every
module attribute that callers resolve (``from .rsk import rsk`` binds a
second name, so all bindings of the same function object are patched), and
two methods are patched on their classes.  Each call records a span: name,
start, end, parent span and op id.  Spans stay in memory and are written
out once, when the run ends.

Some wrappers also compute work counts at the call boundary from public
data (toggles per insertion, ideal-lattice sizes, Monte Carlo samples).
That work runs after the call's span closes, in a ``trace.count`` span of
its own, so it is tracing overhead and lands in no layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# module -> public functions wrapped; layer names are "<module>.<function>"
TRACED_FUNCTIONS = {
    "poset": ("is_descending_extension", "count_linear_extensions"),
    "families": ("young", "shifted_young", "tree", "d_k_one", "builtin_poset"),
    "catalog": ("catalog",),
    "dstructure": (
        "find_d_intervals",
        "find_d_minus_convex_sets",
        "check_d_complete",
        "structure_report",
    ),
    "diagonals": ("compute_diagonals", "diagonal_report"),
    "hooks": ("hook_vectors", "hook_polynomial_eval"),
    "rsk": ("stable_insertion_order", "rsk", "inverse_rsk", "rsk_jacobian_det"),
    "verify": (
        "verify_proctor",
        "weight_sum",
        "verify_multivariate",
        "polytope_membership",
        "sample_fillings_point",
        "rsk_polytope_check",
        "closed_form_volume",
        "monte_carlo_volume",
    ),
    "classical": (
        "classical_insert_rsk",
        "toggle_rpp",
        "gt_from_rpp",
        "ssyt_from_gt",
        "is_rpp",
        "order_from_ranks",
    ),
}

# (module, class, method) -> layer name
TRACED_METHODS = {
    ("poset", "Poset", "__init__"): "poset.Poset",
    ("analysis", "PosetAnalysis", "hook_polynomials"): "analysis.PosetAnalysis.hook_polynomials",
}


def layer_names() -> tuple[str, ...]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED_FUNCTIONS.items() for fn in fns]
    return tuple(names) + tuple(TRACED_METHODS.values())


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, indexed by span id
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.failed: list[bool] = []
        self.outer: list[bool] = []  # False when an ancestor span has the same name
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._active: list[int] = []  # open spans per name id
        self._op = -1
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []
        self._ideals: dict[object, int] = {}

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.outer.append(not self._active[nid])
        self.end.append(0)
        self.failed.append(False)
        self._active[nid] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.failed[sid] = failed
        self._stack.pop()
        self._active[self.name[sid]] -= 1

    def begin_op(self, op_id: int, name: str) -> int:
        self._op = op_id
        return self.open(self.name_id(name))

    def end_op(self, sid: int, failed: bool) -> None:
        self.close(sid, failed)
        self._op = -1

    @contextmanager
    def pause(self):
        """Calls made inside run unrecorded."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- installation ----------------------------------------------------------

    def _wrapper(self, layer: str, fn, counter=None):
        tracer = self
        nid = self.name_id(layer)
        count_nid = self.name_id("trace.count")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(sid, failed=True)
                raise
            tracer.close(sid)
            if counter is not None:
                sid = tracer.open(count_nid)
                with tracer.pause():
                    counter(tracer, fn, args, kwargs, result)
                tracer.close(sid)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of each traced function inside ``dcposets``."""
        modules = [m for name, m in sys.modules.items() if name == "dcposets" or name.startswith("dcposets.")]
        for mod_name, fns in TRACED_FUNCTIONS.items():
            home = sys.modules[f"dcposets.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                layer = f"{mod_name}.{fn_name}"
                wrapper = self._wrapper(layer, original, COUNTERS.get(layer))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for (mod_name, cls_name, meth), layer in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"dcposets.{mod_name}"], cls_name)
            self._patch(cls, meth, self._wrapper(layer, vars(cls)[meth]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- computed counts -------------------------------------------------------

    def ideal_count(self, P) -> int:
        """Size of the lattice of order ideals, via ``order_ideal_masks``."""
        count = self._ideals.get(P)
        if count is None:
            from dcposets.poset import order_ideal_masks

            count = self._ideals[P] = sum(1 for _ in order_ideal_masks(P))
        return count

    # -- reporting -------------------------------------------------------------

    def per_layer(self) -> dict[str, dict[str, float]]:
        """calls, inclusive s, self_s and failed per span name and per module.

        Inclusive time counts only the outermost span of a name, so a layer
        that re-enters itself is not counted twice.  A module's inclusive
        time is the time inside any of its spans with no enclosing span of
        the same module.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        module_of = [nm.split(".", 1)[0] for nm in self.names]
        rows: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0, "self_s": 0, "failed": 0})
        mods: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0, "self_s": 0})
        for i in range(n):
            nid = self.name[i]
            row = rows[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            row["failed"] += self.failed[i]
            if self.outer[i]:
                row["s"] += dur[i]
            mod = mods[module_of[nid]]
            mod["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or module_of[self.name[p]] != module_of[nid]:
                mod["s"] += dur[i]
        out = {}
        for name, row in rows.items():
            out[name] = {k: (v / 1e9 if k in ("s", "self_s") else v) for k, v in row.items()}
        for name, row in mods.items():
            out[f"module:{name}"] = {k: v / 1e9 for k, v in row.items()}
        return out

    def op_self_sums(self) -> dict[int, tuple[int, int]]:
        """Per op id: (sum of self times of its spans, its root span's duration), in ns."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        sums: dict[int, list[int]] = {}
        for i in range(n):
            op = self.op[i]
            if op < 0:
                continue
            entry = sums.setdefault(op, [0, 0])
            dur = self.end[i] - self.start[i]
            entry[0] += dur - child[i]
            if self.parent[i] < 0:
                entry[1] += dur
        return {op: (s, d) for op, (s, d) in sums.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_ns", "end_ns", "parent", "op", "failed"],
                    "name": self.name,
                    "start_ns": self.start,
                    "end_ns": self.end,
                    "parent": self.parent,
                    "op": self.op,
                    "failed": [int(f) for f in self.failed],
                    "counts": dict(self.counts),
                },
                fh,
            )


# -- boundary counters ----------------------------------------------------------


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _toggles(tracer, fn, args, kwargs, result):
    """Toggles one insertion runs: per inserted element, the present members of its diagonal."""
    from dcposets.analysis import analyze

    a = _bound(fn, args, kwargs)
    analysis = a["analysis"] or analyze(a["P"])
    order = analysis.stable_order if a["order"] is None else tuple(a["order"])
    diagonal_of = analysis.diagonals.diagonal_of
    present = [0] * analysis.diagonals.count
    total = 0
    for c in order:
        d = diagonal_of[c]
        present[d] += 1
        total += present[d]
    tracer.counts["rsk.toggles"] += total


def _ideals_count_dp(tracer, fn, args, kwargs, result):
    P = _bound(fn, args, kwargs)["P"]
    if P.n <= 25:  # the ideal-lattice DP path; larger posets enumerate extensions
        tracer.counts["poset.ideals"] += tracer.ideal_count(P)


def _ideals_weight(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if a["method"] == "ideal-dp":
        tracer.counts["poset.ideals"] += tracer.ideal_count(a["P"])


def _mc_samples(tracer, fn, args, kwargs, result):
    tracer.counts["verify.mc_samples"] += result.samples


def _d_intervals(tracer, fn, args, kwargs, result):
    tracer.counts["dstructure.d_intervals"] += len(result)


COUNTERS = {
    "rsk.rsk": _toggles,
    "rsk.inverse_rsk": _toggles,
    "poset.count_linear_extensions": _ideals_count_dp,
    "verify.weight_sum": _ideals_weight,
    "verify.monte_carlo_volume": _mc_samples,
    "dstructure.find_d_intervals": _d_intervals,
}
