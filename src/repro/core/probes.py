"""Startup-probe execution: serial, pooled, cached on disk and memoised.

Phase 1 of the model-build pipeline (relation quantification, §III-B1)
is dominated by startup probes: every pair of mutable entities launches
the target across its value combinations. This module turns those
launches into a first-class, schedulable workload:

- :class:`ProbeBatch` is the picklable description of a chunk of probes
  (target class + assignments); :func:`run_probe_batch` runs them.
- :class:`LocalProbeExecutor` runs probes in-process against any
  :data:`~repro.core.relation.StartupProbe` callable.
- :class:`PooledProbeExecutor` fans chunks out across the generic
  process pool (:mod:`repro.harness.pool`), reusing its per-task
  timeout / bounded-retry / :class:`~repro.harness.pool.CellFailure`
  machinery.
- :class:`ProbeCache` stores outcomes on disk under
  ``.cmfuzz-cache/probes/``, keyed by a sha256 of the target class id
  and the sorted values, versioned by :data:`PROBE_CACHE_VERSION`.
- :class:`ProbeMemo` keeps a class's outcomes for the process's life
  (:func:`probe_memo`): an outcome depends only on the class and the
  values, so every campaign model build in the process shares them.
- :class:`CachedProbeExecutor` layers either store over any executor;
  a campaign stacks memo → disk cache → local or pooled executor.

All executors share one contract: ``run(assignments)`` returns one
:class:`ProbeOutcome` per assignment, in order, and maintains a
``stats`` dict (``executed`` / ``cache_hits``) the quantifier folds into
telemetry. Sanitizer faults raised during startup are carried *inside*
the outcome (as picklable tuples) so they survive the process boundary,
the cache and the memo, and replay identically on warm rebuilds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import (
    FaultTolerantStore,
    default_cache_dir,
    validate_cache_dir,
)
from repro.coverage.bitmap import CoverageMap
from repro.errors import StartupError

#: Bumped whenever the probe outcome layout or key derivation changes;
#: stale entries from older versions are treated as misses.
#: 2: the target id is the probed class's ``module.qualname``, not its
#: registry name.
PROBE_CACHE_VERSION = 2

#: Subdirectory of the cache root holding probe outcomes.
PROBE_CACHE_SUBDIR = "probes"

#: A serialized sanitizer fault: (kind value, function, detail).
FaultTuple = Tuple[str, str, str]


@dataclass(frozen=True)
class ProbeOutcome:
    """The portable result of one startup probe.

    Attributes:
        sites: Branch sites covered during startup (empty on failure).
        failed: True when the assignment prevented startup.
        faults: Sanitizer faults raised during startup, serialized as
            ``(kind, function, detail)`` tuples so the outcome stays
            picklable and cacheable.
    """

    sites: frozenset = frozenset()
    failed: bool = False
    faults: Tuple[FaultTuple, ...] = ()

    @property
    def branches(self) -> int:
        return 0 if self.failed else len(self.sites)


def serialize_fault(fault) -> FaultTuple:
    """Flatten a :class:`~repro.targets.faults.SanitizerFault`."""
    return (fault.kind.value, fault.function, fault.detail)


def deserialize_fault(entry: FaultTuple):
    """Rebuild a live :class:`SanitizerFault` from its tuple form."""
    from repro.targets.faults import FaultKind, SanitizerFault

    kind, function, detail = entry
    return SanitizerFault(FaultKind(kind), function, detail)


def assignment_items(assignment: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical, hashable form of a probe assignment (sorted by name)."""
    return tuple(sorted(assignment.items(), key=lambda kv: kv[0]))


def target_class(target):
    """The target class itself, resolving a registry name if given one."""
    if isinstance(target, str):
        from repro.targets.registry import get_target

        return get_target(target).target_cls
    return target


def probe_key(target_id: str, assignment: Dict[str, Any]) -> str:
    """Content address of one probe: sha256 of target id + sorted values."""
    payload = {
        "version": PROBE_CACHE_VERSION,
        "target": target_id,
        "values": [[name, repr(value)]
                   for name, value in assignment_items(assignment)],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The picklable worker body
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeBatch:
    """A picklable chunk of startup probes against one target class.

    Attributes:
        target: The target class, or its registry name (e.g.
            ``"dnsmasq"``) for :func:`repro.targets.get_target`.
        assignments: One canonical item-tuple per probe.
        startup_latency: Simulated per-probe startup cost in seconds —
            models the process-spawn latency of probing a real SUT
            (benchmarks use it; production paths leave it at 0).
    """

    target: Any
    assignments: Tuple[Tuple[Tuple[str, Any], ...], ...]
    startup_latency: float = 0.0


def probe_one(probe: Callable[[Dict[str, Any]], Any],
              assignment: Dict[str, Any],
              fault_log: Optional[List] = None,
              startup_latency: float = 0.0) -> ProbeOutcome:
    """Run one startup probe and normalise the result to an outcome.

    ``fault_log`` is the list the probe's ``on_fault`` callback appends
    to (see :func:`repro.targets.base.startup_probe_for`); faults that
    accumulated during this call are drained into the outcome.
    """
    before = len(fault_log) if fault_log is not None else 0
    if startup_latency > 0:
        time.sleep(startup_latency)
    try:
        coverage = probe(dict(assignment))
    except StartupError:
        faults: Tuple[FaultTuple, ...] = ()
        if fault_log is not None:
            faults = tuple(serialize_fault(f) for f in fault_log[before:])
        return ProbeOutcome(failed=True, faults=faults)
    if isinstance(coverage, CoverageMap):
        sites = coverage.sites()
    else:
        sites = frozenset(coverage)
    return ProbeOutcome(sites=sites)


def _collecting_probe(target_cls):
    """A startup probe whose faults collect into a list for outcomes."""
    from repro.targets.base import startup_probe_for

    fault_log: List = []
    return startup_probe_for(target_cls, on_fault=fault_log.append), fault_log


def run_probe_batch(batch: ProbeBatch) -> List[ProbeOutcome]:
    """Worker body: build the target's probe and run one chunk."""
    return LocalProbeExecutor(
        *_collecting_probe(target_class(batch.target)),
        startup_latency=batch.startup_latency,
    ).run([dict(items) for items in batch.assignments])


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class LocalProbeExecutor:
    """Runs probes serially, in-process, against any probe callable.

    Args:
        probe: The startup probe.
        fault_log: The list the probe's ``on_fault`` callback appends
            to; when given, faults are drained into outcomes (so they
            can be cached and replayed). When omitted, whatever the
            probe does with faults happens during execution, matching
            the historical serial behaviour.
        startup_latency: Simulated per-probe startup cost (benchmarks).
    """

    def __init__(self, probe: Callable[[Dict[str, Any]], Any],
                 fault_log: Optional[List] = None,
                 startup_latency: float = 0.0):
        self.probe = probe
        self.fault_log = fault_log
        self.startup_latency = startup_latency
        self.stats: Dict[str, int] = {"executed": 0, "cache_hits": 0}

    def run(self, assignments: Sequence[Dict[str, Any]]) -> List[ProbeOutcome]:
        outcomes = [
            probe_one(self.probe, assignment, self.fault_log,
                      startup_latency=self.startup_latency)
            for assignment in assignments
        ]
        self.stats["executed"] += len(outcomes)
        return outcomes


class PooledProbeExecutor:
    """Fans probe chunks out across the generic process pool.

    Each chunk becomes one :class:`~repro.harness.pool.Task` whose
    deadline scales with the chunk size (``timeout`` is per probe).
    A chunk whose every retry failed is re-run inline so the underlying
    exception surfaces with its real traceback instead of a flattened
    :class:`CellFailure` string.

    Args:
        target: Target class or registry name.
        workers: Worker processes (chunks in flight).
        timeout: Per-probe wall-clock budget in seconds.
        retries: Failed-chunk retries in a fresh worker.
    """

    def __init__(self, target, workers: int = 2,
                 timeout: Optional[float] = None, retries: int = 1,
                 telemetry=None, startup_latency: float = 0.0,
                 injector=None):
        if workers < 1:
            raise ValueError("need at least one worker, got %d" % workers)
        self.target = target
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.telemetry = telemetry
        self.startup_latency = startup_latency
        self.injector = injector
        self.stats: Dict[str, int] = {"executed": 0, "cache_hits": 0}

    def run(self, assignments: Sequence[Dict[str, Any]]) -> List[ProbeOutcome]:
        from repro.harness.pool import Task, execute_tasks

        if not assignments:
            return []
        items = [assignment_items(a) for a in assignments]
        n_chunks = max(1, min(self.workers, len(items)))
        per_chunk = int(math.ceil(len(items) / n_chunks))
        tasks = []
        for index, start in enumerate(range(0, len(items), per_chunk)):
            chunk = tuple(items[start:start + per_chunk])
            tasks.append(Task(
                index=index,
                payload=ProbeBatch(target=self.target, assignments=chunk,
                                   startup_latency=self.startup_latency),
                timeout=(self.timeout * len(chunk)
                         if self.timeout is not None else None),
            ))
        results = execute_tasks(
            tasks, run_probe_batch, workers=self.workers,
            retries=self.retries, telemetry=self.telemetry,
            metric_prefix="modelbuild.pool", injector=self.injector,
        )
        outcomes: List[ProbeOutcome] = []
        for result in results:
            if result.ok:
                outcomes.extend(result.outcome)
            else:
                # Deterministic failure (or exhausted retries): reproduce
                # inline so the caller sees the true exception.
                outcomes.extend(run_probe_batch(result.spec))
        self.stats["executed"] += len(outcomes)
        return outcomes


class ProbeCache:
    """Content-addressed probe outcomes under ``.cmfuzz-cache/probes/``.

    One pickle per probe, keyed by :func:`probe_key` — sha256 of the
    target id and the sorted configuration values — so identical
    value-combination launches are never repeated across runs, targets
    never collide, and a :data:`PROBE_CACHE_VERSION` bump invalidates
    everything at once. Writes are atomic (temp + rename) so parallel
    model builds cannot tear an entry. I/O runs through a
    :class:`~repro.cache.FaultTolerantStore`: transient errors retry,
    persistent failure degrades to in-memory, corrupt entries are
    quarantined instead of silently counting as misses.
    """

    key = staticmethod(probe_key)

    def __init__(self, root: Optional[str] = None, telemetry=None,
                 injector=None):
        base = root or default_cache_dir()
        self.root = validate_cache_dir(os.path.join(base, PROBE_CACHE_SUBDIR))
        self.store = FaultTolerantStore("probe", telemetry=telemetry,
                                        injector=injector)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".pkl")

    def get(self, key: str) -> Optional[ProbeOutcome]:
        payload = self.store.load(self._path(key))
        if not isinstance(payload, dict):
            return None
        if (payload.get("version") != PROBE_CACHE_VERSION
                or payload.get("key") != key):
            return None
        outcome = payload.get("outcome")
        return outcome if isinstance(outcome, ProbeOutcome) else None

    def put(self, key: str, outcome: ProbeOutcome) -> None:
        self.store.store(
            self._path(key),
            {"version": PROBE_CACHE_VERSION, "key": key, "outcome": outcome},
        )


#: Guards every :class:`ProbeMemo` and the class → memo table: fleet
#: agents are threads, and two of them may build one target at once.
_MEMO_LOCK = threading.Lock()
_MEMOS = weakref.WeakKeyDictionary()  # target class -> ProbeMemo


class ProbeMemo:
    """One target class's outcomes by :func:`assignment_items`.

    Each is stored with a canonical site set (interned strings, one
    frozenset per distinct set): a target's thousands of probes cover a
    few hundred sets. Of equal outcomes raced in, the first stays.
    """

    def __init__(self):
        self.outcomes: Dict[Tuple[Tuple[str, Any], ...], ProbeOutcome] = {}
        self._site_sets: Dict[frozenset, frozenset] = {}

    @staticmethod
    def key(target_id, assignment: Dict[str, Any]):
        return assignment_items(assignment)

    def get(self, key) -> Optional[ProbeOutcome]:
        with _MEMO_LOCK:
            return self.outcomes.get(key)

    def put(self, key, outcome: ProbeOutcome) -> None:
        with _MEMO_LOCK:
            sites = self._site_sets.get(outcome.sites)
            if sites is None:
                sites = frozenset(map(sys.intern, outcome.sites))
                self._site_sets[sites] = sites
            self.outcomes.setdefault(key, ProbeOutcome(
                sites=sites, failed=outcome.failed, faults=outcome.faults))


def probe_memo(target_cls) -> ProbeMemo:
    """This process's memo for ``target_cls``; dies with the class."""
    with _MEMO_LOCK:
        memo = _MEMOS.get(target_cls)
        if memo is None:
            memo = _MEMOS[target_cls] = ProbeMemo()
        return memo


class CachedProbeExecutor:
    """Layers an outcome store over another executor.

    The store is a :class:`ProbeCache` or a :class:`ProbeMemo`; it
    derives each probe's key from ``target_id`` and the assignment.
    Hits come straight from the store; misses go to the inner executor
    and are stored. ``stats`` aggregates its own hits with the inner
    executor's counts.
    """

    def __init__(self, inner, target_id, cache=None):
        self.inner = inner
        self.target_id = target_id
        self.cache = cache or ProbeCache()
        self._hits = 0

    @property
    def stats(self) -> Dict[str, int]:
        merged = dict(self.inner.stats)
        merged["cache_hits"] = merged.get("cache_hits", 0) + self._hits
        return merged

    def run(self, assignments: Sequence[Dict[str, Any]]) -> List[ProbeOutcome]:
        keys = [self.cache.key(self.target_id, a) for a in assignments]
        outcomes: List[Optional[ProbeOutcome]] = [
            self.cache.get(key) for key in keys
        ]
        self._hits += sum(1 for o in outcomes if o is not None)
        misses = [i for i, o in enumerate(outcomes) if o is None]
        if misses:
            fresh = self.inner.run([assignments[i] for i in misses])
            for i, outcome in zip(misses, fresh):
                self.cache.put(keys[i], outcome)
                outcomes[i] = outcome
        return outcomes  # type: ignore[return-value]


def build_probe_executor(
    target,
    workers: int = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    telemetry=None,
    startup_latency: float = 0.0,
    injector=None,
):
    """Wire up the executor stack for one target's model build.

    Chooses pooled vs local execution, honours the content-addressed
    probe cache, and degrades gracefully: inside a daemonic pool worker
    (a campaign cell already running under :func:`execute_specs`) child
    processes are forbidden, so the pooled path silently falls back to
    serial rather than crashing the campaign. Campaigns layer the
    per-process :class:`ProbeMemo` on top (:mod:`repro.parallel.cmfuzz`).

    Args:
        target: The target class, or its registry name. The class itself
            travels to pool workers and names the cache entries.
        workers: Probe worker processes; ``1`` stays in-process.
        cache: Enable the on-disk probe cache.
        cache_dir: Cache root override (default ``.cmfuzz-cache/``).
        startup_latency: Simulated per-probe startup cost in seconds.
        injector: Optional :class:`repro.faultplane.FaultInjector`
            governing the probe cache's I/O and pooled worker deaths.

    Raises:
        CacheUnavailableError: When ``cache`` is enabled but the cache
            directory is unusable.
    """
    from repro.harness.pool import in_daemon_worker

    target_cls = target_class(target)
    if workers > 1 and not in_daemon_worker():
        executor = PooledProbeExecutor(
            target_cls, workers=workers, timeout=timeout, retries=retries,
            telemetry=telemetry, startup_latency=startup_latency,
            injector=injector,
        )
    else:
        executor = LocalProbeExecutor(*_collecting_probe(target_cls),
                                      startup_latency=startup_latency)
    if cache:
        executor = CachedProbeExecutor(
            executor, "%s.%s" % (target_cls.__module__, target_cls.__qualname__),
            cache=ProbeCache(cache_dir, telemetry=telemetry,
                             injector=injector))
    return executor
