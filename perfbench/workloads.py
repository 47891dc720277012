"""The benchmark's three workloads: spec grids derived from a seed.

Each workload turns the command-line seed into campaign specs and knows
how to run one timed *pass* over them through the public entry points:

- ``grid-table1``: the paper's Table I grid through
  :func:`repro.harness.executor.execute_specs` on the local pool;
- ``fleet-short``: a 54-cell short-horizon grid through
  :func:`repro.fleet.run_specs_fleet` on an ephemeral fleet;
- ``checkpoint-resume``: two checkpointing campaigns through
  :func:`repro.harness.campaign.run_campaign`, each interrupted once at
  a seed-chosen iteration and resumed.

Every pass returns a :class:`PassResult` holding its wall time, its
exports (one :func:`results_to_json` document per cell) and any failure
records; :func:`check_pass` compares those exports against the serial
in-process reference that :meth:`Workload.reference` computes once per
invocation, outside the timed region.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

WORKERS = 2

#: The paper's six Table I/II subjects.
SUBJECTS = ("mosquitto", "libcoap", "cyclonedds", "openssl", "qpid", "dnsmasq")
FUZZERS = ("peach", "spfuzz", "cmfuzz")


def derive_rng(workload: str, seed: int) -> random.Random:
    """The one source of every seed-dependent input of a workload."""
    return random.Random("perfbench:%s:%d" % (workload, seed))


def export_one(result) -> str:
    """One campaign's export document."""
    from repro.harness.export import results_to_json

    return results_to_json([result])


@dataclass
class PassResult:
    """One timed pass: its wall time and what it produced."""

    wall_s: float
    cells: int
    sim_hours: float
    #: One export per cell, spec order; None where the cell failed.
    exports: List[Optional[str]]
    #: The merged ``results_to_json`` document of all cells; None when
    #: any cell failed.
    merged: Optional[str]
    #: Failure messages keyed by cell index.
    failures: Dict[int, str] = field(default_factory=dict)
    #: checkpoint-resume only: seconds from the resuming call to the
    #: restored loop's first ``abort_hook`` call, one per resume.
    resumes: List[float] = field(default_factory=list)


def fold_results(results: Sequence, failures: Dict[int, str], wall_s: float,
                 sim_hours: float, resumes: Sequence[float] = ()) -> PassResult:
    """Build a :class:`PassResult` from per-cell results (None = failed)."""
    from repro.harness.export import results_to_json

    ok = [result for result in results if result is not None]
    return PassResult(
        wall_s=wall_s, cells=len(ok), sim_hours=sim_hours,
        exports=[None if result is None else export_one(result)
                 for result in results],
        merged=results_to_json(ok) if len(ok) == len(results) else None,
        failures=dict(failures), resumes=list(resumes),
    )


@dataclass
class Check:
    """The outcome of comparing one pass against the reference."""

    attempted: int
    failed: int
    problems: List[str]

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def check_pass(result: PassResult, reference: PassResult) -> Check:
    """Compare a pass's exports with the reference, cell by cell.

    A cell fails when it raised or was recorded as a failure, when its
    export differs from the reference, or when its final coverage is
    not positive. The merged document must also be byte-identical.
    """
    problems = []
    failed = 0
    for index, export in enumerate(result.exports):
        if index in result.failures:
            problems.append("cell %d failed: %s" % (index, result.failures[index]))
            failed += 1
        elif export != reference.exports[index]:
            problems.append("cell %d export differs from the reference" % index)
            failed += 1
        elif _final_coverage(export) <= 0:
            problems.append("cell %d has no final coverage" % index)
            failed += 1
    if result.merged is None or result.merged != reference.merged:
        problems.append("merged export differs from the reference")
    return Check(attempted=len(result.exports), failed=failed,
                 problems=problems)


def _final_coverage(export: str) -> int:
    return min(int(entry["final_coverage"]) for entry in json.loads(export))


class Workload:
    """A named spec grid plus the entry point that runs it."""

    name = ""
    why = ""
    #: How many cells can run at once.
    lanes = WORKERS
    #: Seconds one pass takes on a 2-vCPU machine at the parent commit;
    #: sets how many passes fill a run's ``--seconds``.
    nominal_pass_s = 1.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.scale = scale
        self.rng = derive_rng(self.name, seed)

    def build(self) -> None:
        """Generate the workload's inputs (part of the set-up time)."""
        raise NotImplementedError

    def reference(self) -> PassResult:
        """The serial, uninterrupted, in-process run of the same inputs."""
        raise NotImplementedError

    def run_pass(self, workdir: str, runner=None) -> PassResult:
        """One timed pass; ``runner`` replaces the per-cell body when given."""
        raise NotImplementedError


class _SpecGrid(Workload):
    """Workloads whose pass is one call over a list of ``CampaignSpec``."""

    specs: list

    def _fold(self, cells, started: float) -> PassResult:
        wall = time.perf_counter() - started
        by_index = {cell.index: cell for cell in cells}
        results, failures, sim_hours = [], {}, 0.0
        for index, spec in enumerate(self.specs):
            cell = by_index.get(index)
            if cell is None or not cell.ok:
                results.append(None)
                failures[index] = ("no result returned" if cell is None
                                   else str(cell.failure))
                continue
            results.append(cell.outcome.to_result())
            sim_hours += spec.config.duration_hours * spec.config.n_instances
        return fold_results(results, failures, wall, sim_hours)

    def reference(self) -> PassResult:
        from repro.harness.executor import execute_specs

        started = time.perf_counter()
        return self._fold(execute_specs(self.specs, workers=1), started)


class GridTable1(_SpecGrid):
    """Table I: 6 subjects x {peach, spfuzz, cmfuzz}, 4 instances.

    The horizon is 8 simulated hours, not the paper's 24: with the
    serial reference every run computes, a 24 h grid takes over a
    minute per run before it has measured more than one pass, more than
    the benchmark's time budget allows for the number of runs a
    comparison needs. The loop does the same work every simulated hour,
    so the hot-loop shares barely move; model build is a fixed cost and
    its share of lane time rises to about 2%.
    """

    name = "grid-table1"
    nominal_pass_s = 8.0
    why = ("Table I grid on the local pool: the fuzzing hot loop dominates, "
           "with no dispatch or checkpoint work")

    def build(self) -> None:
        from repro.harness.campaign import CampaignConfig
        from repro.harness.executor import CampaignSpec
        from repro.harness.simclock import CostModel

        config = CampaignConfig(
            n_instances=4, duration_hours=8.0 * self.scale,
            seed=self.rng.randrange(1, 1_000_000),
            costs=CostModel(iteration=30.0),
            sample_interval=1800.0 * self.scale,
            sync_interval=1800.0 * self.scale,
        )
        self.specs = [CampaignSpec(target=target, mode=mode, config=config)
                      for target in SUBJECTS for mode in FUZZERS]

    def run_pass(self, workdir: str, runner=None) -> PassResult:
        from repro.harness.executor import execute_specs

        started = time.perf_counter()
        cells = execute_specs(self.specs, workers=WORKERS, runner=runner,
                              cache=False, backend="local")
        return self._fold(cells, started)


class FleetShort(_SpecGrid):
    """54 one-hour cells on an ephemeral fleet: fixed per-cell costs."""

    name = "fleet-short"
    nominal_pass_s = 6.0
    why = ("54 one-hour cells on an ephemeral fleet: model build, lease, "
           "poll and teardown costs dominate")

    def build(self) -> None:
        import repro.fleet  # noqa: F401 - importing the entry point is set-up
        from repro.harness.campaign import CampaignConfig
        from repro.harness.executor import CampaignSpec

        base = self.rng.randrange(1, 1_000_000)
        self.specs = [
            CampaignSpec(target=target, mode=mode, config=CampaignConfig(
                n_instances=2, duration_hours=1.0 * self.scale,
                seed=base + repetition * 101,
                sample_interval=300.0 * self.scale,
            ))
            for target in SUBJECTS
            for mode in ("cmfuzz", "spfuzz", "peach")
            for repetition in range(3)
        ]

    def run_pass(self, workdir: str, runner=None) -> PassResult:
        from repro.fleet import run_specs_fleet

        started = time.perf_counter()
        cells = run_specs_fleet(self.specs, workers=WORKERS, runner=runner,
                                cache=False)
        return self._fold(cells, started)


#: The checkpoint-resume cells: (target, mode, campaign seed). The
#: campaign seeds are fixed and only the interrupt points come from the
#: workload seed: with two cells, the campaign seed alone moves a pass's
#: work by about 12%, which would drown the run-to-run comparison.
CHECKPOINT_CELLS = (("mosquitto", "cmfuzz", 101), ("dnsmasq", "plateau", 202))


class ResumeMissing(RuntimeError):
    """The interrupt never fired, so the cell did not exercise resume."""


class CheckpointResume(Workload):
    """Two checkpointing campaigns, each interrupted once and resumed."""

    name = "checkpoint-resume"
    nominal_pass_s = 10.0
    why = ("checkpointing campaigns interrupted once and resumed: checkpoint "
           "save and load I/O and the plateau controller hook")
    lanes = 1

    def build(self) -> None:
        from repro.harness.campaign import CampaignConfig
        from repro.parallel.registry import mode_names
        from repro.targets.registry import get_target

        mode_names()
        self.cells = [
            (get_target(target), mode, CampaignConfig(
                n_instances=4, duration_hours=24.0 * self.scale, seed=seed))
            for target, mode, seed in CHECKPOINT_CELLS
        ]
        # Interrupt points, one per cell per pass, drawn from the seed:
        # between 1000 and 6000 instance steps of the ~10000 a 24 sim-h
        # cell takes, scaled with the horizon.
        self._low = max(1, int(1000 * self.scale))
        self._high = max(self._low + 1, int(6000 * self.scale))

    def campaign(self, cell, config, abort_hook=None):
        from repro.harness.campaign import run_campaign
        from repro.parallel.registry import create_mode

        entry, mode, _ = cell
        return run_campaign(entry.target_cls, entry.state_model(),
                            create_mode(mode), config, abort_hook=abort_hook)

    def reference(self) -> PassResult:
        started = time.perf_counter()
        results = [self.campaign(cell, cell[2]) for cell in self.cells]
        return fold_results(results, {}, time.perf_counter() - started,
                            self._sim_hours(len(results)))

    def _sim_hours(self, cells: int) -> float:
        config = self.cells[0][2]
        return cells * config.duration_hours * config.n_instances

    def run_pass(self, workdir: str, runner=None) -> PassResult:
        run_cell = runner or interrupt_and_resume
        stops = [self.rng.randrange(self._low, self._high)
                 for _ in self.cells]
        results, failures, resumes = [], {}, []
        started = time.perf_counter()
        for index, cell in enumerate(self.cells):
            config = dataclasses.replace(
                cell[2], checkpoint_every=600.0,
                checkpoint_dir=os.path.join(workdir, "checkpoints"))
            try:
                result, resume_s = run_cell(self, cell, config, stops[index])
            except Exception as exc:  # noqa: BLE001 - counted as a failed cell
                results.append(None)
                failures[index] = "%s: %s" % (type(exc).__name__, exc)
                continue
            results.append(result)
            resumes.append(resume_s)
        wall = time.perf_counter() - started
        return fold_results(results, failures, wall,
                            self._sim_hours(len(results) - len(failures)),
                            resumes)


def interrupt_and_resume(workload: CheckpointResume, cell, config, stop: int):
    """Run ``cell`` until ``stop`` steps, then resume it to the horizon.

    Returns the finished result and the resume latency: seconds from
    calling ``run_campaign(..., resume=True)`` to the restored loop's
    first ``abort_hook`` call.
    """
    from repro.errors import CampaignInterrupted

    try:
        workload.campaign(cell, config,
                          abort_hook=lambda iterations, now: iterations >= stop)
    except CampaignInterrupted:
        pass
    else:
        raise ResumeMissing("campaign finished before step %d" % stop)
    first_call: List[float] = []

    def watch(iterations, now):
        if not first_call:
            first_call.append(time.perf_counter())
        return False

    called = time.perf_counter()
    result = workload.campaign(
        cell, dataclasses.replace(config, resume=True), abort_hook=watch)
    return result, first_call[0] - called


WORKLOADS = {cls.name: cls for cls in (GridTable1, FleetShort, CheckpointResume)}


def create(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The named workload, its inputs not yet built."""
    if name not in WORKLOADS:
        raise KeyError("unknown workload %r (known: %s)"
                       % (name, ", ".join(sorted(WORKLOADS))))
    return WORKLOADS[name](seed, scale=scale)
