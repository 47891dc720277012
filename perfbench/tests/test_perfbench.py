"""The benchmark's own tests: smoke runs, trace transparency, the ledger.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import ledger
import run as bench_run
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

#: Short horizons per workload. Below a quarter of its hour, a fleet-short
#: cmfuzz cell on mosquitto spends its whole horizon in model build.
SMOKE_SCALE = {"grid-table1": 0.1, "fleet-short": 0.25,
               "checkpoint-resume": 0.1}


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(workload, trace, cwd=ROOT, runner=RUN, extra=()):
    command = [sys.executable, runner, "--workload", workload, "--seed", "3",
               "--seconds", "0", "--trace", str(trace),
               "--scale", str(SMOKE_SCALE[workload])] + list(extra)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Smoke runs through the command line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    proc = run_bench(workload, trace=1)
    # The run itself fails when the traced exports differ from the
    # untraced ones or when the ledger leaves time unexplained.
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == expected
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    assert metrics["fuzzing.execs"] > 0
    assert metrics["trace.overhead"] > 0
    assert abs(1.0 - metrics["trace.ledger_ratio"]) <= tracing.LEDGER_TOLERANCE
    if workload == "checkpoint-resume":
        assert metrics["harness.checkpoint_loads"] > 0
        assert metrics["harness.resume_s"] > 0
    if workload == "fleet-short":
        assert metrics["fleet.leases"] >= 54
        assert metrics["harness.cell_s.p80"] > 0


def test_traced_run_writes_its_spans(tmp_path):
    out = tmp_path / "spans.json"
    proc = run_bench("checkpoint-resume", trace=1, extra=["--trace-out", str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    dump = json.loads(out.read_text())
    records = [record for traced_pass in dump["passes"]
               for state in traced_pass["states"] for record in state["records"]]
    by_id = {record[3]: record for record in records}
    cells = [record for record in records if record[0] == tracing.CELL]
    assert len(cells) == 2 * len(dump["passes"])
    # name, start, end, span id, parent span id, cell id
    for name, start, end, span_id, parent, cell in records:
        assert start <= end and cell is not None
        if name != tracing.CELL:
            assert by_id[parent][1] <= start and end <= by_id[parent][2]


def test_run_fails_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark: no result, non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("checkpoint-resume", trace=0, cwd=str(tmp_path),
                     runner=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    bench = benchmark_json()
    assert [m["name"] for m in bench["end_to_end"]] \
        == [name for name, _ in bench_run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(ledger.PER_LAYER)
    assert {w["name"]: w["why"] for w in bench["workloads"]} \
        == {name: cls.why for name, cls in workloads.WORKLOADS.items()}


# ---------------------------------------------------------------------------
# Inputs and export checks
# ---------------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    def seeds(seed):
        workload = workloads.create("grid-table1", seed)
        workload.build()
        return [spec.config.seed for spec in workload.specs]

    assert seeds(5) == seeds(5)
    assert seeds(5) != seeds(6)


def test_check_pass_counts_a_changed_export_as_a_failed_cell():
    reference = workloads.PassResult(
        wall_s=1.0, cells=2, sim_hours=2.0,
        exports=['[{"final_coverage": 3}]', '[{"final_coverage": 4}]'],
        merged="both")
    same = workloads.PassResult(wall_s=1.0, cells=2, sim_hours=2.0,
                                exports=list(reference.exports),
                                merged="both")
    assert workloads.check_pass(same, reference).ok
    changed = workloads.PassResult(
        wall_s=1.0, cells=2, sim_hours=2.0,
        exports=[reference.exports[0], '[{"final_coverage": 5}]'],
        merged="other")
    check = workloads.check_pass(changed, reference)
    assert (check.attempted, check.failed, check.ok) == (2, 1, False)


def test_traced_exports_equal_untraced_in_process(tmp_path):
    workload = workloads.create("checkpoint-resume", 4, scale=0.1)
    workload.build()
    untraced = workload.run_pass(str(tmp_path))
    with tracing.Tracer() as tracer:
        traced = workload.run_pass(str(tmp_path), runner=tracing.ResumeRunner(
            tracer, workloads.interrupt_and_resume))
        states = tracer.collect()
    assert traced.failures == {} and untraced.failures == {}
    assert traced.merged == untraced.merged
    assert any(state["agg"].get("harness.checkpoint_load") for state in states)


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------


class _Toy:
    def outer(self, inner_calls):
        for _ in range(inner_calls):
            self.inner()
        return "done"

    def inner(self):
        return sum(range(1000))

    def recursive(self, depth):
        return depth if depth == 0 else self.recursive(depth - 1)

    def boom(self):
        raise KeyError("boom")


def test_self_time_subtracts_children_and_uninstall_restores():
    originals = dict(_Toy.__dict__)
    tracer = tracing.Tracer()
    tracer.patch(_Toy, "outer", "toy.outer")
    tracer.patch(_Toy, "inner", "toy.inner")
    tracer.patch(_Toy, "recursive", "toy.recursive")
    tracer.patch(_Toy, "boom", "toy.boom")
    try:
        toy = _Toy()
        assert toy.outer(5) == "done"
        assert toy.recursive(4) == 0
        with pytest.raises(KeyError):
            toy.boom()
        agg = tracer.state().agg
    finally:
        tracer.uninstall()
    calls, total, own = agg["toy.outer"]
    assert calls == 1 and agg["toy.inner"][0] == 5
    assert own == total - agg["toy.inner"][1]
    assert agg["toy.recursive"][0] == 1  # re-entry opens no second span
    assert agg["toy.boom"][0] == 1
    assert tracer.state().stack == []
    assert all(_Toy.__dict__[name] is originals[name]
               for name in ("outer", "inner", "recursive", "boom"))


def test_fold_charges_nested_spans_to_the_folding_span():
    tracer = tracing.Tracer()
    tracer.patch(_Toy, "outer", "toy.outer", fold=True)
    tracer.patch(_Toy, "inner", "toy.inner")
    try:
        _Toy().outer(3)
        _Toy().inner()
    finally:
        tracer.uninstall()
    agg = tracer.state().agg
    assert agg["toy.outer"][1] == agg["toy.outer"][2]
    assert agg["toy.inner"][0] == 1  # only the call outside the fold


# ---------------------------------------------------------------------------
# The ledger's accounting check
# ---------------------------------------------------------------------------


def _state(pid, thread, agg, root_ns, records=()):
    return {"pid": pid, "thread": thread, "agg": agg, "counts": {},
            "records": list(records), "root_ns": root_ns}


def _cell(pid, layer_ns, glue_ns):
    """A pool worker that ran one cell: layer spans plus root glue."""
    total = layer_ns + glue_ns
    return _state(pid, "MainThread", {
        tracing.CELL: [1, total, glue_ns],
        "fuzzing.iteration": [10, layer_ns, layer_ns],
    }, total, [(tracing.CELL, 0, total, 1, 0, "c")])


def test_ledger_accounts_for_the_wall_time():
    second = 10 ** 9
    # Two lanes for 10 s: 9 s and 8 s of layer time, 0.1 s of glue each.
    states = [_cell(101, 9 * second, second // 10),
              _cell(102, 8 * second, second // 10)]
    book = ledger.build_ledger(states, owner_pid=100, lanes=2, wall_s=10.0)
    assert book.ok
    assert book.idle_s == pytest.approx(20.0 - 17.2)
    assert book.ratio == pytest.approx((17.0 + 2.8) / 20.0)


def test_ledger_flags_time_no_layer_explains():
    second = 10 ** 9
    # 3 s of each 9 s cell sits in the cell root's own glue.
    states = [_cell(101, 6 * second, 3 * second),
              _cell(102, 6 * second, 3 * second)]
    book = ledger.build_ledger(states, owner_pid=100, lanes=2, wall_s=10.0)
    assert not book.ok
    assert book.ratio == pytest.approx(0.7)


def test_ledger_flags_double_counted_time():
    second = 10 ** 9
    # Layer self time larger than the lane could hold: spans overlap.
    state = _state(100, "MainThread", {
        tracing.CELL: [1, 5 * second, 0],
        "fuzzing.iteration": [1, 7 * second, 7 * second],
    }, 5 * second)
    book = ledger.build_ledger([state], owner_pid=100, lanes=1, wall_s=5.0)
    assert not book.ok
    assert book.ratio > 1 + tracing.LEDGER_TOLERANCE


def test_off_lane_threads_stay_out_of_the_capacity():
    second = 10 ** 9
    agents = [_state(100, "fleet-agent-%d" % index, {
        tracing.CELL: [1, 4 * second, 0],
        "fuzzing.iteration": [1, 4 * second, 4 * second],
    }, 4 * second) for index in range(2)]
    waiter = _state(100, "MainThread", {
        "fleet.session_wait": [1, 5 * second, 5 * second]}, 5 * second)
    book = ledger.build_ledger(agents + [waiter], owner_pid=100, lanes=2,
                               wall_s=5.0)
    assert book.lane_self == {"fuzzing": 8.0}
    assert book.off_lane_self == {"fleet": 5.0}
    assert book.idle_s == pytest.approx(2.0)
    assert book.ok
