"""Per-layer metrics and the accounting check, from collected spans.

Input: the thread snapshots a :class:`tracer.Tracer` collected during
one traced pass. Output: the named per-layer metrics and a
:class:`Ledger` that splits the pass's *lane capacity* (lanes x wall
time; a lane is a pool worker, a fleet agent thread, or the main thread
of a serial workload) into per-layer self time plus idle lane time.

The ledger's check: layer self times plus idle time must come within
:data:`tracer.LEDGER_TOLERANCE` of the capacity. Idle time is capacity
minus the lanes' root spans, so what the check catches is time inside
those roots that no layer span covers (the cell root's own glue), or
spans counted twice.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from tracer import CELL, LEDGER_TOLERANCE

#: Agent threads of an ephemeral fleet are named with this prefix by
#: ``repro.fleet.run_specs_fleet``.
AGENT_THREAD_PREFIX = "fleet-agent-"

#: The layers, named by module, in report order.
LAYERS = ("fuzzing", "targets", "coverage", "netns", "parallel", "core",
          "harness", "fleet", "trace")

#: Every per-layer metric: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("fuzzing.execs", "count"),
    ("fuzzing.messages", "count"),
    ("fuzzing.iteration_self_s", "s"),
    ("fuzzing.mutate_s", "s"),
    ("fuzzing.encode_s", "s"),
    ("fuzzing.walk_s", "s"),
    ("fuzzing.new_coverage_ratio", "ratio"),
    ("targets.packets", "count"),
    ("targets.handle_packet_s", "s"),
    ("targets.faults", "count"),
    ("targets.startups", "count"),
    ("targets.startup_s", "s"),
    ("coverage.hits", "count"),
    ("coverage.hits_per_exec", "count/exec"),
    ("coverage.start_run_s", "s"),
    ("netns.sends", "count"),
    ("netns.send_self_s", "s"),
    ("parallel.sync_rounds", "count"),
    ("parallel.sync_s", "s"),
    ("parallel.seeds_synced", "count"),
    ("parallel.after_iteration_s", "s"),
    ("parallel.create_instances_s", "s"),
    ("core.quantify_s", "s"),
    ("core.allocate_s", "s"),
    ("core.probes_logical", "count"),
    ("core.probes_executed", "count"),
    ("core.probe_reuse_ratio", "ratio"),
    ("harness.cell_s.p50", "s"),
    ("harness.cell_s.p80", "s"),
    ("harness.drive_self_s", "s"),
    ("harness.pool_idle_s", "s"),
    ("harness.checkpoint_saves", "count"),
    ("harness.checkpoint_save_s", "s"),
    ("harness.checkpoint_bytes", "bytes"),
    ("harness.checkpoint_loads", "count"),
    ("harness.checkpoint_load_s", "s"),
    ("harness.resume_s", "s"),
    ("fleet.leases", "count"),
    ("fleet.lease_s", "s"),
    ("fleet.lease_hit_ratio", "ratio"),
    ("fleet.reports", "count"),
    ("fleet.report_s", "s"),
    ("fleet.heartbeats", "count"),
    ("fleet.session_wait_s", "s"),
    ("fleet.teardown_s", "s"),
    ("fleet.idle_s", "s"),
) + tuple(("%s.self_s" % layer, "s") for layer in LAYERS) + (
    ("trace.overhead", "ratio"),
    ("trace.ledger_ratio", "ratio"),
)


@dataclass
class Ledger:
    """One traced pass's lane capacity, split by layer."""

    wall_s: float
    lanes: int
    #: Layer -> self seconds on lanes.
    lane_self: Dict[str, float]
    #: Layer -> self seconds off lanes (orchestration threads).
    off_lane_self: Dict[str, float]
    #: Capacity not inside any lane root span.
    idle_s: float
    #: Self time of the cell root spans: lane time no layer explains.
    unattributed_s: float
    #: name -> [calls, total seconds, self seconds], all threads.
    spans: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    cell_s: List[float] = field(default_factory=list)
    pooled: bool = False
    fleet: bool = False

    @property
    def capacity_s(self) -> float:
        return self.lanes * self.wall_s

    @property
    def ratio(self) -> float:
        """(layer self times + idle) / capacity; 1.0 is a full account."""
        accounted = sum(self.lane_self.values()) + self.idle_s
        return accounted / self.capacity_s if self.capacity_s else 0.0

    @property
    def ok(self) -> bool:
        return abs(1.0 - self.ratio) <= LEDGER_TOLERANCE


def is_lane(state: dict, owner_pid: int, serial: bool) -> bool:
    if state["pid"] != owner_pid:
        return True  # a forked pool worker
    if state["thread"].startswith(AGENT_THREAD_PREFIX):
        return True
    return serial and state["thread"] == "MainThread"


def build_ledger(states: Sequence[dict], owner_pid: int, lanes: int,
                 wall_s: float) -> Ledger:
    """Fold thread snapshots into a :class:`Ledger`.

    ``lanes == 1`` marks a serial workload, whose lane is the main thread.
    """
    serial = lanes == 1
    lane_self: Dict[str, float] = {}
    off_lane_self: Dict[str, float] = {}
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    cell_s: List[float] = []
    lane_root_ns = 0
    unattributed_ns = 0
    pooled = fleet = False
    for state in states:
        lane = is_lane(state, owner_pid, serial)
        pooled = pooled or state["pid"] != owner_pid
        fleet = fleet or state["thread"].startswith(AGENT_THREAD_PREFIX)
        if lane:
            lane_root_ns += state["root_ns"]
        for name, (calls, total_ns, self_ns) in state["agg"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total_ns / 1e9
            entry[2] += self_ns / 1e9
            if name == CELL:
                unattributed_ns += self_ns
                continue
            bucket = lane_self if lane else off_lane_self
            layer = name.split(".", 1)[0]
            bucket[layer] = bucket.get(layer, 0.0) + self_ns / 1e9
        for name, value in state["counts"].items():
            counts[name] = counts.get(name, 0) + value
        cell_s.extend((end - start) / 1e9
                      for name, start, end, *_ in state["records"]
                      if name == CELL)
    return Ledger(
        wall_s=wall_s, lanes=lanes, lane_self=lane_self,
        off_lane_self=off_lane_self,
        idle_s=lanes * wall_s - lane_root_ns / 1e9,
        unattributed_s=unattributed_ns / 1e9, spans=spans, counts=counts,
        cell_s=cell_s, pooled=pooled, fleet=fleet,
    )


def _p80(values: Sequence[float]) -> float:
    """The 80th percentile, only where at least ten cells lie beyond it."""
    if len(values) * 0.2 < 10:
        return 0.0
    return statistics.quantiles(values, n=5)[3]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(ledger: Ledger, untraced_wall_s: float,
                  resumes: Sequence[float] = ()) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced pass.

    Metrics of a layer the workload does not exercise read 0.
    """
    spans, counts = ledger.spans, ledger.counts

    def calls(name: str) -> int:
        return int(spans.get(name, (0, 0.0, 0.0))[0])

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    execs = calls("fuzzing.iteration")
    logical = counts.get("core.probes_logical", 0)
    executed = counts.get("core.probes_executed", 0)
    leases = calls("fleet.lease")
    busy = sum(ledger.cell_s)
    # A layer's self time counts its lanes only: off-lane threads (the
    # caller waiting on a fleet, heartbeats) overlap the lanes' work.
    layers = {layer: ledger.lane_self.get(layer, 0.0) for layer in LAYERS}
    values = {
        "fuzzing.execs": execs,
        "fuzzing.messages": counts.get("fuzzing.messages", 0),
        "fuzzing.iteration_self_s": own("fuzzing.iteration"),
        "fuzzing.mutate_s": own("fuzzing.mutate"),
        "fuzzing.encode_s": own("fuzzing.encode"),
        "fuzzing.walk_s": own("fuzzing.walk"),
        "fuzzing.new_coverage_ratio": _ratio(
            counts.get("fuzzing.new_coverage_execs", 0), execs),
        "targets.packets": calls("targets.handle_packet"),
        "targets.handle_packet_s": own("targets.handle_packet"),
        "targets.faults": counts.get("targets.faults", 0),
        "targets.startups": calls("targets.startup"),
        "targets.startup_s": own("targets.startup"),
        "coverage.hits": counts.get("coverage.hits", 0),
        "coverage.hits_per_exec": _ratio(counts.get("coverage.hits", 0), execs),
        "coverage.start_run_s": own("coverage.start_run"),
        "netns.sends": calls("netns.send"),
        "netns.send_self_s": own("netns.send"),
        "parallel.sync_rounds": calls("parallel.on_sync"),
        "parallel.sync_s": own("parallel.on_sync") + own("parallel.seed_sync"),
        "parallel.seeds_synced": counts.get("parallel.seeds_synced", 0),
        "parallel.after_iteration_s": own("parallel.after_iteration"),
        "parallel.create_instances_s": own("parallel.create_instances"),
        # Model build folds its probes' startups into itself.
        "core.quantify_s": total("core.quantify"),
        "core.allocate_s": own("core.allocate"),
        "core.probes_logical": logical,
        "core.probes_executed": executed,
        "core.probe_reuse_ratio": 1.0 - _ratio(executed, logical)
        if logical else 0.0,
        "harness.cell_s.p50": statistics.median(ledger.cell_s)
        if ledger.cell_s else 0.0,
        "harness.cell_s.p80": _p80(ledger.cell_s),
        "harness.drive_self_s": own("harness.run_campaign"),
        "harness.pool_idle_s": ledger.capacity_s - busy
        if ledger.pooled else 0.0,
        "harness.checkpoint_saves": calls("harness.checkpoint_save"),
        "harness.checkpoint_save_s": own("harness.checkpoint_save"),
        "harness.checkpoint_bytes": counts.get("harness.checkpoint_bytes", 0),
        "harness.checkpoint_loads": calls("harness.checkpoint_load"),
        "harness.checkpoint_load_s": own("harness.checkpoint_load"),
        "harness.resume_s": statistics.median(resumes) if resumes else 0.0,
        "fleet.leases": leases,
        "fleet.lease_s": own("fleet.lease"),
        "fleet.lease_hit_ratio": _ratio(counts.get("fleet.lease_hits", 0),
                                        leases),
        "fleet.reports": calls("fleet.report"),
        "fleet.report_s": own("fleet.report"),
        "fleet.heartbeats": calls("fleet.heartbeat"),
        "fleet.session_wait_s": own("fleet.session_wait"),
        "fleet.teardown_s": own("fleet.teardown"),
        "fleet.idle_s": ledger.capacity_s - busy if ledger.fleet else 0.0,
        "trace.overhead": _ratio(ledger.wall_s, untraced_wall_s),
        "trace.ledger_ratio": ledger.ratio,
    }
    values.update(("%s.self_s" % layer, seconds)
                  for layer, seconds in layers.items())
    return values


def median_metrics(passes: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over traced passes."""
    return {name: statistics.median(p[name] for p in passes)
            for name, _ in PER_LAYER}
