"""dcposets benchmark runner.

    python3 perfbench/run.py --workload {battery,insert,exact} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  Lines above
it give every metric by name and unit, the environment, and one replay
record per failed op.  Exit status is 1 when an output check fails, 2 when
the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe
from tracer import Tracer, layer_names

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, so c10 measures one core

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_PROBES = 5

# end-to-end metrics reported with --trace 0, every workload
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}
# per-layer metrics reported with --trace 1; the timed ones are layers every
# workload enters (set-up is traced too), so none reads as a constant zero
TIMED_LAYERS = (
    "poset.Poset",
    "poset.is_descending_extension",
    "families.young",
    "families.shifted_young",
    "families.d_k_one",
    "dstructure.find_d_intervals",
    "dstructure.find_d_minus_convex_sets",
    "dstructure.check_d_complete",
    "diagonals.compute_diagonals",
    "hooks.hook_vectors",
    "rsk.stable_insertion_order",
)
TIMED_MODULES = ("poset", "families", "dstructure", "diagonals", "hooks", "rsk")
FAILING_LAYERS = ("poset.count_linear_extensions", "verify.verify_proctor", "rsk.rsk_jacobian_det")


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile leaving at least ten samples of one pass beyond it."""
    return math.floor(100 * (1 - 10 / ops_per_pass))


def import_seconds() -> float:
    """Median import time of the package, each probe in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import dcposets; print(time.perf_counter() - t)"
    )
    probes = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        probes.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(probes)


def environment(np) -> dict:
    """Commit (when the checkout is a git work tree), source digest and runtime versions."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dcposets").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
    }


def measure(probe, fn):
    """(value, raw seconds, scale): probes bracket the call; probe time is not counted."""
    probe.probe()
    t0 = time.perf_counter()
    value = fn()
    t1 = time.perf_counter()
    probe.probe()
    return value, t1 - t0 - probe.probe_seconds(t0, t1), probe.scale(t0, t1)


def run_passes(workload, state, rec, seconds: float) -> tuple[list[float], list[float]]:
    """Closed-loop passes until the next one would end past ``seconds``; at least one.

    Returns raw and speed-scaled pass times.
    """
    raw: list[float] = []
    scaled: list[float] = []
    start = time.perf_counter()
    for p in range(workload.max_passes):
        rec.pass_index = p
        _, took, scale = measure(rec.probe, lambda: workload.run_pass(state, p, rec))
        raw.append(took)
        scaled.append(took * scale)
        if time.perf_counter() - start + statistics.median(raw) > seconds:
            break
    return raw, scaled


def replay_lines(workload: str, seed: int, ops) -> list[str]:
    return [
        f"replay workload={workload} seed={seed} pass={op.pass_index} op={op.index} "
        f"kind={op.kind} poset={op.poset} "
        + (f"error={op.error!r}" if op.error else f"wrong={op.wrong!r}")
        for op in ops
        if op.error or op.wrong
    ]


def end_to_end(workload, state, ops, probe, passes, setup) -> tuple[dict, dict, list]:
    """End-to-end metrics (speed-scaled), info values (raw times among them) and per-op records."""
    raw_passes, scaled_passes = passes
    seconds = [op.seconds * probe.scale_op(op.start, op.seconds) for op in ops]
    lat = sorted(seconds)
    failed = sum(1 for op in ops if op.error or op.wrong)
    pct = tail_percentile(workload.ops_per_pass(state))
    values = {
        # passes differ in inputs, so the mean uses every pass; timing noise is
        # already damped by the speed scaling
        "wall_s": statistics.fmean(scaled_passes),
        "setup_s": setup[1],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - failed / len(ops),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    record_ops = [
        {"op": op.index, "pass": op.pass_index, "kind": op.kind, "poset": op.poset,
         "raw_s": op.seconds, "s": took, "failure": op.error or op.wrong}
        for op, took in zip(ops, seconds)
    ]
    # op latencies spread 10-25% between runs on a shared host (op-type and
    # input mix), too wide for a bound, so they are reported, not gated
    extra = {
        "failed_frac": failed / len(ops),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, pct) * 1e3,
        "op_tail_percentile": pct,
        "op_samples": len(lat),
        "passes": len(raw_passes),
        "raw_wall_s": statistics.fmean(raw_passes),
        "raw_setup_s": setup[0],
        "raw_op_p50_ms": statistics.median(op.seconds for op in ops) * 1e3,
        "host_speed": REFERENCE_S * len(probe.took) / sum(probe.took),
        "raw_pass_s": raw_passes,
    }
    if workload.name == "insert":
        extra.update(insert_rates(ops, seconds))
    if workload.name == "battery":
        per: dict[str, float] = {}
        for op, took in zip(ops, seconds):
            per[op.kind] = per.get(op.kind, 0.0) + took
        extra["criterion_s_per_pass"] = {
            f"acceptance.{k}.s": v / len(raw_passes) for k, v in per.items()
        }
    return metrics, extra, record_ops


def insert_rates(ops, seconds) -> dict:
    def ok(op):
        return not (op.error or op.wrong)

    def rate(kinds):
        done = sum(1 for op in ops if op.kind in kinds and ok(op))
        busy = sum(took for op, took in zip(ops, seconds) if op.kind in kinds)
        return done / busy if busy else 0.0

    attempts = sum(op.attempts for op in ops if op.kind == "jacobian")
    generic = sum(1 for op in ops if op.kind == "jacobian" and ok(op))
    return {
        "rsk_per_s": rate(("rsk_stable", "rsk_random")),
        "inverse_per_s": rate(("inverse_rsk",)),
        "jacobian_per_s": rate(("jacobian",)),
        "jacobian_generic_ratio": generic / attempts if attempts else 0.0,
    }


def per_layer(tracer, untraced_wall: float, traced_wall: float, scale: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced region; span times are speed-scaled by ``scale``."""
    rows = tracer.per_layer()
    for row in rows.values():
        row["s"] *= scale
        row["self_s"] *= scale
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0}
    row = lambda name: rows.get(name, zero)
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.s"] = (row(name)["s"], "s")
        metrics[f"{name}.self_s"] = (row(name)["self_s"], "s")
    for mod in TIMED_MODULES:
        metrics[f"{mod}.self_s"] = (rows.get(f"module:{mod}", zero)["self_s"], "s")
    for name in layer_names():
        metrics[f"{name}.calls"] = (row(name)["calls"], "count")
    for name in FAILING_LAYERS:
        metrics[f"{name}.failed"] = (row(name)["failed"], "count")

    def per_s(num, den):
        return num / den if den else 0.0

    jac = row("rsk.rsk_jacobian_det")
    insertion_s = row("rsk.rsk")["s"] + row("rsk.inverse_rsk")["s"]
    metrics.update(
        {
            "rsk.toggles": (counts["rsk.toggles"], "count"),
            "rsk.toggles_per_s": (per_s(counts["rsk.toggles"], insertion_s), "1/s"),
            "rsk.rsk.per_s": (per_s(row("rsk.rsk")["calls"], row("rsk.rsk")["s"]), "1/s"),
            "rsk.inverse_rsk.per_s": (
                per_s(row("rsk.inverse_rsk")["calls"], row("rsk.inverse_rsk")["s"]), "1/s"
            ),
            "rsk.jacobian.generic_ratio": (per_s(jac["calls"] - jac["failed"], jac["calls"]), "ratio"),
            "rsk.jacobian.generic_per_s": (per_s(jac["calls"] - jac["failed"], jac["s"]), "1/s"),
            "poset.ideals": (counts["poset.ideals"], "count"),
            "dstructure.d_intervals": (counts["dstructure.d_intervals"], "count"),
            "verify.mc_samples": (counts["verify.mc_samples"], "count"),
            "verify.mc_samples_per_s": (
                per_s(counts["verify.mc_samples"], row("verify.monte_carlo_volume")["s"]), "1/s"
            ),
            "trace.spans": (len(tracer.start), "count"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.traced_wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        }
    )
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dcposets benchmark")
    parser.add_argument("--workload", required=True, choices=("battery", "insert", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dcposets" / "__init__.py").is_file():
        print(f"perfbench: no dcposets sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dcposets
    import numpy as np

    if Path(dcposets.__file__).resolve().parent != (SRC / "dcposets").resolve():
        print(f"perfbench: imported dcposets from {dcposets.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload]
    env = environment(np)
    probe = SpeedProbe()
    rec = Recorder(workload.name, probe)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env}
    if not args.trace:
        import_s, _, scale = measure(probe, import_seconds)
        probe.start_timer()
        try:
            setups = [measure(probe, lambda: workload.setup(args.seed)) for _ in range(workload.setup_reps)]
            state = setups[-1][0]
            passes = run_passes(workload, state, rec, args.seconds)
        finally:
            probe.stop_timer()
        setup = (
            import_s + statistics.median(raw for _, raw, _ in setups),
            import_s * scale + statistics.median(raw * k for _, raw, k in setups),
        )
        metrics, extra, record["ops"] = end_to_end(workload, state, rec.ops, probe, passes, setup)
        record["extra"] = extra
    else:
        state = workload.setup(args.seed)
        _, raw, scale = measure(probe, lambda: workload.run_pass(state, 0, rec))
        untraced_wall = raw * scale
        tracer = Tracer()
        traced = Recorder(workload.name, probe, tracer, first_id=len(rec.ops))
        tracer.install()
        try:
            probe.probe()
            t0 = time.perf_counter()
            _, state = traced.call("setup", "-", lambda: workload.setup(args.seed), span="setup")
            _, raw, scale = measure(probe, lambda: workload.run_pass(state, 0, traced))
            traced_wall = raw * scale
            layer_scale = probe.scale(t0, time.perf_counter())
        finally:
            tracer.uninstall()
        rec.ops.extend(traced.ops)
        metrics, rows = per_layer(tracer, untraced_wall, traced_wall, layer_scale)
        sums = tracer.op_self_sums()
        excess = [op for op, (self_ns, dur_ns) in sums.items() if self_ns > dur_ns]
        if excess:
            print(f"perfbench: self times exceed op duration for ops {excess[:5]}", file=sys.stderr)
            return 1
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_path)
        record["layers"] = rows
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"layer {name} calls={row.get('calls', '-')} s={row['s']:.6f} "
                f"self_s={row['self_s']:.6f} failed={row.get('failed', '-')}"
            )
        print(f"trace ops_checked={len(sums)} spans={len(tracer.start)} file={record['spans_file']}")
        for name, value in sorted(tracer.counts.items()):
            print(f"computed {name}={value} (work count from public data; repeats exactly per seed)")

    ops = rec.ops
    failed = sum(1 for op in ops if op.error or op.wrong)
    wrong = [op for op in ops if op.wrong]
    replays = replay_lines(workload.name, args.seed, ops)
    record.update(
        {
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "attempted": len(ops),
            "failed": failed,
            "replays": replays,
        }
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in replays:
        print(line)
    for key, value in record.get("extra", {}).items():
        print(f"info {key}={value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name}={value} {unit}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
