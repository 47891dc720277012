"""Engine hot-loop benchmark: kept reference components vs the engine.

Measures single-instance execs/sec through :class:`repro.fuzzing.engine.
FuzzEngine` as campaigns build it and on the reference twins of its
hot-loop components, and records the results in ``BENCH_engine.json``.
The reference leg runs the dict-backed ``CoverageCollector``, messages
without model templates (on the tree-walking ``Message`` bodies) and an
override-free ``random.Random`` subclass as the engine's generator, so
the mutation strategy, the state walk and every draw take the stdlib
path.

1. ``engine_single`` — the gated metric: the engine loop driven against
   a featherweight transport (three coverage probes per packet, constant
   reply), so the measurement isolates the subsystems the hot-loop
   mechanics touch — path walk, message generation/mutation/encode,
   coverage bookkeeping — from any particular target's parse cost. The
   engine must clear ``CMFUZZ_BENCH_ENGINE_MIN_SPEEDUP`` (default
   2.90×) over the reference leg: the former 3.0× floor over the
   engine's retired untemplated twin, scaled by that twin's measured
   throughput relative to this leg (derivation in CHANGES.md).
2. ``engine_e2e`` — the honest end-to-end figure: the same loop against
   the real in-process dnsmasq target (its packet parsing is untouched
   by the hot-loop mechanics and dilutes the ratio); reported, never
   gated.
3. ``engine_multi`` — ``CMFUZZ_BENCH_ENGINE_INSTANCES`` featherweight
   engines round-robined in one process, approximating a parallel
   campaign cell's per-process throughput.

Every leg runs both flavours from the same seed and asserts the final
coverage map and message count are identical — the benchmark refuses
to report a speedup that changed behaviour. Timing protocol: best of
``CMFUZZ_BENCH_ENGINE_REPEATS`` runs (default 5) per flavour, the
reference and engine runs alternating, GC disabled inside the timed
region, fixed seeds throughout.

Runs with the bench suite (``pytest benchmarks/bench_engine.py``) or
standalone (``python benchmarks/bench_engine.py``).
"""

import gc
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from unittest import mock

import conftest  # noqa: F401  (adds src/ to sys.path)

from repro.coverage.collector import CoverageCollector, make_collector
from repro.fuzzing.engine import DirectTransport, FuzzEngine
from repro.targets import get_target, target_names

TARGET = "dnsmasq"
ITERATIONS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_ITERS", "3000"))
E2E_ITERATIONS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_E2E_ITERS", "1500"))
REPEATS = int(os.environ.get("CMFUZZ_BENCH_ENGINE_REPEATS", "5"))
INSTANCES = int(os.environ.get("CMFUZZ_BENCH_ENGINE_INSTANCES", "4"))
MIN_SPEEDUP = float(os.environ.get("CMFUZZ_BENCH_ENGINE_MIN_SPEEDUP", "2.90"))
SEED = int(os.environ.get("CMFUZZ_BENCH_ENGINE_SEED", "1"))
RECORD_PATH = os.environ.get(
    "CMFUZZ_BENCH_ENGINE_OUT",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "BENCH_engine.json"),
)


class StdlibRandom(random.Random):
    """Overrides nothing, so it draws the stock stream — but the hot
    loop only inlines draws for exact ``random.Random`` instances, so
    every draw goes through the stdlib methods."""


@contextmanager
def _flavour(reference):
    """Yields the collector class for one leg; the reference leg also
    builds every message without a model template."""
    if not reference:
        yield make_collector
        return
    with mock.patch("repro.fuzzing.datamodel._resolve_template",
                    lambda model: None):
        yield CoverageCollector


class FeatherTransport:
    """A near-zero-cost transport: three coverage probes, constant reply.

    Stands in for an instrumented target whose parse cost is nil, so the
    engine loop itself dominates the measurement.
    """

    def __init__(self, cov):
        self.cov = cov

    def send(self, payload):
        self.cov.branch("feather.len", len(payload) % 2 == 0)
        self.cov.hit("feather.byte%d" % (payload[0] if payload else 0))
        return b"ok"

    def reset(self):
        pass


def _snapshot(cov):
    """Coverage totals as a plain dict, for cross-flavor comparison."""
    total = cov.total
    if hasattr(total, "as_dict"):
        return dict(total.as_dict())
    return dict(total._hits)


def _engine(model, transport, cov, seed, reference):
    engine = FuzzEngine(model, transport, cov, seed=seed)
    if reference:
        engine.rng = StdlibRandom(seed)
    return engine


def _feather_engine(seed, collector_cls, reference):
    cov = collector_cls("feather")
    model = get_target(TARGET).state_model()
    return _engine(model, FeatherTransport(cov), cov, seed, reference), cov


def _e2e_engine(seed, collector_cls, reference):
    entry = get_target(TARGET)
    cov = collector_cls(TARGET)
    target = entry.target_cls(collector=cov)
    target.startup()
    model = entry.state_model()
    return _engine(model, DirectTransport(target), cov, seed, reference), cov


def _timed(build, iterations):
    """One timed run: returns (elapsed, coverage snapshot, messages)."""
    engine, cov = build(SEED)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(iterations):
            engine.run_iteration()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, _snapshot(cov), engine.total_messages


def _legs(build, iterations):
    """Best-of-``REPEATS`` execs/sec and the final outcome, keyed by
    flavour (``True`` is the reference). The flavours alternate run by
    run, so minute-scale drift in machine speed hits both alike."""
    best = {}
    outcome = {}
    for _ in range(REPEATS):
        for reference in (True, False):
            with _flavour(reference) as collector_cls:
                elapsed, snapshot, messages = _timed(
                    lambda seed: build(seed, collector_cls, reference),
                    iterations)
            best[reference] = min(elapsed, best.get(reference, elapsed))
            outcome[reference] = (snapshot, messages)
    return ({flavour: iterations / elapsed
             for flavour, elapsed in best.items()}, outcome)


def _multi_leg(reference):
    """Round-robin INSTANCES featherweight engines in one process."""
    with _flavour(reference) as collector_cls:
        engines = [_feather_engine(SEED + index, collector_cls, reference)[0]
                   for index in range(INSTANCES)]
        per_engine = max(1, ITERATIONS // INSTANCES)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(per_engine):
                for engine in engines:
                    engine.run_iteration()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
    return per_engine * INSTANCES / elapsed


def run_bench():
    """Returns the ``BENCH_engine.json`` record."""
    single, single_outcome = _legs(_feather_engine, ITERATIONS)
    single_ref, single_fast = single[True], single[False]
    e2e, e2e_outcome = _legs(_e2e_engine, E2E_ITERATIONS)
    e2e_ref, e2e_fast = e2e[True], e2e[False]
    multi_ref = _multi_leg(True)
    multi_fast = _multi_leg(False)
    identical = (single_outcome[True] == single_outcome[False]
                 and e2e_outcome[True] == e2e_outcome[False])
    return {
        "bench": "engine",
        "target": TARGET,
        "registry_targets": list(target_names()),
        "iterations": ITERATIONS,
        "e2e_iterations": E2E_ITERATIONS,
        "repeats": REPEATS,
        "instances": INSTANCES,
        "seed": SEED,
        "min_speedup": MIN_SPEEDUP,
        "single_ref_execs_per_s": round(single_ref, 1),
        "single_fast_execs_per_s": round(single_fast, 1),
        "speedup_single": round(single_fast / single_ref, 2),
        "e2e_ref_execs_per_s": round(e2e_ref, 1),
        "e2e_fast_execs_per_s": round(e2e_fast, 1),
        "speedup_e2e": round(e2e_fast / e2e_ref, 2),
        "multi_ref_execs_per_s": round(multi_ref, 1),
        "multi_fast_execs_per_s": round(multi_fast, 1),
        "speedup_multi": round(multi_fast / multi_ref, 2),
        "identical": identical,
    }


def _write_record(record):
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_engine_speedup():
    record = run_bench()
    _write_record(record)
    print("\nengine: single %0.0f -> %0.0f execs/s (%.2fx)  "
          "e2e %0.0f -> %0.0f (%.2fx)  multi[%d] %0.0f -> %0.0f (%.2fx)"
          % (record["single_ref_execs_per_s"],
             record["single_fast_execs_per_s"], record["speedup_single"],
             record["e2e_ref_execs_per_s"], record["e2e_fast_execs_per_s"],
             record["speedup_e2e"], record["instances"],
             record["multi_ref_execs_per_s"],
             record["multi_fast_execs_per_s"], record["speedup_multi"]))
    assert record["identical"], (
        "engine and reference legs diverged (coverage or message counts)")
    assert record["speedup_single"] >= MIN_SPEEDUP, (
        "engine %.2fx over the reference is below the %.2fx floor"
        % (record["speedup_single"], MIN_SPEEDUP))


def main() -> int:
    record = run_bench()
    _write_record(record)
    print(json.dumps(record, indent=2, sort_keys=True))
    ok = record["identical"] and record["speedup_single"] >= MIN_SPEEDUP
    if not ok:
        print("FAILED: identical=%s speedup_single=%sx (floor %.2fx)"
              % (record["identical"], record["speedup_single"], MIN_SPEEDUP),
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
