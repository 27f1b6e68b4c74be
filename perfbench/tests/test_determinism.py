"""Determinism of the benchmark's inputs and computed counts.

    python3 -m pytest -q perfbench/tests

Small poset subsets keep each check to a few seconds; the generators and
pass code are the ones the benchmark runs.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dcposets  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Cheap stand-ins for the ladders, the shard count and the criteria list."""
    monkeypatch.setattr(workloads, "INSERT_POSETS", workloads.INSERT_POSETS[-3:])
    monkeypatch.setattr(workloads, "EXACT_POSETS", (workloads.EXACT_POSETS[0],) + workloads.EXACT_POSETS[4:7])
    monkeypatch.setattr(workloads, "SHARDS", 64)
    monkeypatch.setattr(
        workloads,
        "BATTERY_CRITERIA",
        tuple(c for c in workloads.BATTERY_CRITERIA if c[0] in ("counting-identity", "order-independence")),
    )
    monkeypatch.setattr(workloads.Insert, "max_passes", 2)
    monkeypatch.setattr(workloads.Exact, "max_passes", 2)


def inputs_of(name, state):
    """The generated inputs of a set-up state, as comparable plain data."""
    if name == "battery":
        shards = [[entry[0] for entry in shard] for shard in state["shards"]]
        return state["passes"], shards
    if name == "insert":
        return [[(n, t, order) for n, _, _, t, order, _ in batch] for batch in state["passes"]]
    return state["passes"]


def traced_pass(name, seed):
    workload = workloads.WORKLOADS[name]
    tracer = Tracer()
    rec = workloads.Recorder(name, tracer=tracer)
    tracer.install()
    try:
        _, state = rec.call("setup", "-", lambda: workload.setup(seed), span="setup")
        workload.run_pass(state, 0, rec)
    finally:
        tracer.uninstall()
    calls = {k: v["calls"] for k, v in tracer.per_layer().items() if not k.startswith("module:")}
    return dict(tracer.counts), calls, rec.ops


@pytest.mark.parametrize("name", ["battery", "insert", "exact"])
def test_same_seed_same_inputs_and_counts(small, name):
    workload = workloads.WORKLOADS[name]
    assert inputs_of(name, workload.setup(5)) == inputs_of(name, workload.setup(5))
    first, second = traced_pass(name, 5), traced_pass(name, 5)
    assert first[0] == second[0] and first[1] == second[1]
    assert not any(op.wrong for op in first[2])


@pytest.mark.parametrize("name", ["battery", "insert", "exact"])
def test_other_seed_other_inputs(small, name):
    workload = workloads.WORKLOADS[name]
    assert inputs_of(name, workload.setup(5)) != inputs_of(name, workload.setup(6))


def test_program_receives_only_generated_inputs(small, monkeypatch):
    """Every top-level call into dcposets gets a generated value, or an output of an earlier call."""
    seen = []

    def spy(fn_name):
        real = getattr(dcposets, fn_name)

        def record(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.append((fn_name, args, result))
            return result

        return record

    for fn_name in ("rsk", "inverse_rsk", "rsk_jacobian_det", "weight_sum"):
        monkeypatch.setattr(dcposets, fn_name, spy(fn_name))

    insert = workloads.WORKLOADS["insert"]
    state = insert.setup(7)
    insert.run_pass(state, 0, workloads.Recorder("insert"))
    batch = state["passes"][0]
    fillings = {(id(P), t) for _, P, _, t, _, _ in batch}
    orders = {(id(P), t, order) for _, P, _, t, order, _ in batch}
    for _, P, _, _, _, stream in batch:
        rng = workloads._seeded(*stream)
        fillings |= {(id(P), dcposets.random_filling(P.n, rng)) for _ in range(workloads.JACOBIAN_ATTEMPTS)}
    images = {(id(args[0]), result) for fn_name, args, result in seen if fn_name == "rsk"}
    for fn_name, args, _ in seen:
        key = (id(args[0]), tuple(args[1]))
        if fn_name == "rsk" and len(args) == 3:
            assert key + (args[2],) in orders
        elif fn_name == "inverse_rsk":
            assert key in images
        else:
            assert key in fillings
    assert {name for name, _, _ in seen} == {"rsk", "inverse_rsk", "rsk_jacobian_det"}

    seen.clear()
    exact = workloads.WORKLOADS["exact"]
    state = exact.setup(7)
    exact.run_pass(state, 0, workloads.Recorder("exact"))
    points = [x for pts in state["passes"][0].values() for x in pts]
    weights = [args for name, args, _ in seen if name == "weight_sum"]
    assert weights and all(any(x[: len(args[2])] == args[2] for x in points) for args in weights)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    per_layer, _ = run.per_layer(tracer, 1.0, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
