"""Span tracing from outside the program: wrappers around layer calls.

A :class:`Tracer` patches the public functions and methods of each
layer (the list is :func:`patch_points`) with wrappers that record a
span per call: name, start, end, parent and cell. Nothing in ``src/``
changes, and :meth:`Tracer.uninstall` restores every original.

Spans that occur once per cell or per sync round (``COARSE``) are kept
as full records. Spans that occur per iteration or per packet would
cost hundreds of megabytes as records, so they are folded into
per-thread aggregates (calls, total time, self time) when they close.
A span's *self time* is its duration minus the time of its child spans.
Everything stays in memory until the pass ends; forked pool workers
spill their share to a file that the parent reads back
(:class:`CellRunner`). :mod:`ledger` turns the collected spans into
the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Spans kept as full records; every other span is only aggregated.
COARSE = frozenset({
    "harness.cell", "harness.run_spec", "harness.run_campaign",
    "harness.checkpoint_save", "harness.checkpoint_load",
    "parallel.create_instances", "parallel.on_sync", "core.quantify",
    "core.allocate", "targets.startup", "fleet.lease", "fleet.report",
    "fleet.heartbeat", "fleet.session_wait", "fleet.teardown",
})

#: The cell root span: opened by the benchmark's runner, not a layer.
CELL = "harness.cell"

#: Bookkeeping the tracer does inside a lane (summing run maps); kept
#: as its own pseudo-layer so the ledger shows it instead of hiding it.
TRACE_LAYER = "trace"

#: Largest share of lane capacity the ledger may leave unexplained.
LEDGER_TOLERANCE = 0.10


class ThreadState:
    """One thread's open spans and what its closed spans added up to."""

    def __init__(self, pid: int, thread: str):
        self.pid = pid
        self.thread = thread
        #: Open spans: [name, start_ns, child_ns, span_id].
        self.stack: List[list] = []
        #: name -> [calls, total_ns, self_ns]
        self.agg: Dict[str, List[int]] = {}
        #: Event counts gathered by post-call hooks.
        self.counts: Dict[str, int] = {}
        #: Full records of COARSE spans:
        #: (name, start_ns, end_ns, span_id, parent_id, cell)
        self.records: List[Tuple] = []
        #: Summed duration of spans closed with an empty stack.
        self.root_ns = 0
        self.cell: Optional[str] = None
        #: Set inside model build: nested spans fold into it.
        self.fold = False

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> dict:
        return {"pid": self.pid, "thread": self.thread, "agg": self.agg,
                "counts": self.counts, "records": self.records,
                "root_ns": self.root_ns}


class Tracer:
    """Installs span wrappers and collects what they record."""

    def __init__(self):
        self.owner_pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------

    def state(self) -> ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = ThreadState(os.getpid(), threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def clear(self) -> None:
        """Drop everything recorded so far (between passes)."""
        with self._lock:
            self._states = []
        self._local = threading.local()

    def reset_after_fork(self) -> None:
        """In a forked worker: forget the parent's spans, keep the patches."""
        self._lock = threading.Lock()
        self.clear()

    def collect(self) -> List[dict]:
        with self._lock:
            return [state.snapshot() for state in self._states]

    def spill(self, directory: str) -> None:
        """Write this process's spans where the parent will read them."""
        path = os.path.join(directory, "spans-%d.pkl" % os.getpid())
        with open(path + ".tmp", "wb") as handle:
            pickle.dump(self.collect(), handle)
        os.replace(path + ".tmp", path)

    # -- spans --------------------------------------------------------------

    def _close(self, state: ThreadState, frame: list, end: int) -> None:
        stack = state.stack
        stack.pop()
        name, start, child_ns, span_id = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        else:
            state.root_ns += duration
        entry = state.agg.get(name)
        if entry is None:
            entry = state.agg[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        if span_id:
            parent = next((f[3] for f in reversed(stack) if f[3]), 0)
            state.records.append((name, start, end, span_id, parent,
                                  state.cell))

    def wrap(self, name: str, fn: Callable,
             post: Optional[Callable] = None,
             on_error: Optional[Callable] = None,
             around: Optional[Callable] = None,
             fold: bool = False) -> Callable:
        """A transparent wrapper recording one ``name`` span per call.

        ``post(state, args, result)`` runs after a successful call and
        ``on_error(state, exc)`` after a raising one; their time is
        charged to the trace pseudo-layer. ``around(tracer, args)`` is a
        context manager entered around the call. ``fold`` makes nested
        spans part of this one. A call re-entering the span it is already
        in (a ``super()`` chain) opens no second span.
        """
        perf = time.perf_counter_ns
        tracer = self
        coarse = name in COARSE

        def wrapper(*args, **kwargs):
            state = tracer.state()
            stack = state.stack
            if state.fold or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, 0, 0, next(tracer._ids) if coarse else 0]
            stack.append(frame)
            if fold:
                state.fold = True
            frame[1] = perf()
            try:
                if around is None:
                    result = fn(*args, **kwargs)
                else:
                    with around(tracer, args):
                        result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf()
                if fold:
                    state.fold = False
                tracer._close(state, frame, end)
                if on_error is not None:
                    tracer._hook(state, on_error, end, state, exc)
                raise
            end = perf()
            if fold:
                state.fold = False
            tracer._close(state, frame, end)
            if post is not None:
                tracer._hook(state, post, end, state, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _hook(self, state: ThreadState, hook: Callable, start: int,
              *args) -> None:
        hook(*args)
        spent = time.perf_counter_ns() - start
        entry = state.agg.get(TRACE_LAYER + ".hooks")
        if entry is None:
            entry = state.agg[TRACE_LAYER + ".hooks"] = [0, 0, 0]
        entry[0] += 1
        entry[1] += spent
        entry[2] += spent
        if state.stack:
            state.stack[-1][2] += spent
        else:
            state.root_ns += spent

    @contextlib.contextmanager
    def cell(self, cell_id: str):
        """The root span of one campaign cell."""
        state = self.state()
        state.cell = cell_id
        frame = [CELL, 0, 0, next(self._ids)]
        state.stack.append(frame)
        frame[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(state, frame, time.perf_counter_ns())
            state.cell = None

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def install(self) -> "Tracer":
        for owner, attr, name, hooks in patch_points():
            self.patch(owner, attr, name, **hooks)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------


def _run_hits(run) -> int:
    counts = getattr(run, "_counts", None)
    if counts is not None:
        return sum(counts)
    return sum(run._hits.values())


def _after_iteration(state: ThreadState, args, result) -> None:
    state.count("fuzzing.messages", result.messages_sent)
    if result.new_sites:
        state.count("fuzzing.new_coverage_execs")
    state.count("coverage.hits", _run_hits(args[0].collector.run))


def _count_fault(name: str) -> Callable:
    from repro.targets.faults import SanitizerFault

    def on_error(state: ThreadState, exc: BaseException) -> None:
        if isinstance(exc, SanitizerFault):
            state.count(name)
    return on_error


def _after_quantify(state: ThreadState, args, result) -> None:
    stats = args[0].last_run_stats
    state.count("core.probes_logical", stats.get("logical", 0))
    state.count("core.probes_executed", stats.get("executed", 0))


def _after_lease(state: ThreadState, args, grant) -> None:
    if not grant.idle and not grant.done:
        state.count("fleet.lease_hits")


def _after_save(state: ThreadState, args, path) -> None:
    state.count("harness.checkpoint_bytes", os.path.getsize(path))


def _after_seed_sync(state: ThreadState, args, shared) -> None:
    state.count("parallel.seeds_synced", shared)


def _defining(classes: Iterable[type], attr: str) -> List[type]:
    """Every class among ``classes`` and their bases defining ``attr``."""
    seen: List[type] = []
    for cls in classes:
        for klass in cls.__mro__:
            if attr in klass.__dict__ and klass not in seen:
                seen.append(klass)
    return seen


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(s for s in _subclasses(sub) if s not in found)
    return found


def patch_points() -> List[Tuple[object, str, str, dict]]:
    """(owner, attribute, span name, hooks) for every traced call."""
    import repro.fleet
    import repro.harness.campaign as campaign
    import repro.harness.executor as executor
    from repro.core.relation import RelationQuantifier
    from repro.coverage.collector import CoverageCollector
    from repro.fleet.client import CoordinatorClient
    from repro.fleet.coordinator import FleetServer
    from repro.fuzzing.datamodel import Message
    from repro.fuzzing.engine import (
        BatchedChannelTransport,
        ChannelTransport,
        DirectTransport,
        FuzzEngine,
    )
    from repro.fuzzing.statemodel import StateModel
    from repro.fuzzing.strategies import MutationStrategy
    from repro.harness.checkpoint import CheckpointStore
    from repro.parallel.base import ParallelMode
    from repro.parallel.registry import mode_names
    from repro.parallel.sync import SeedSynchronizer
    from repro.targets.registry import target_entries

    mode_names()  # registers every mode class before subclasses are listed
    targets = [entry.target_cls for entry in target_entries()]
    modes = _subclasses(ParallelMode)
    transports = (DirectTransport, ChannelTransport, BatchedChannelTransport)

    points: List[Tuple[object, str, str, dict]] = [
        (FuzzEngine, "run_iteration", "fuzzing.iteration",
         {"post": _after_iteration}),
        (Message, "encode", "fuzzing.encode", {}),
        (StateModel, "walk", "fuzzing.walk", {}),
        (RelationQuantifier, "quantify", "core.quantify",
         {"post": _after_quantify, "fold": True}),
        (SeedSynchronizer, "sync", "parallel.seed_sync",
         {"post": _after_seed_sync}),
        (CheckpointStore, "save", "harness.checkpoint_save",
         {"post": _after_save}),
        (CheckpointStore, "load_latest", "harness.checkpoint_load", {}),
        (executor, "run_spec", "harness.run_spec", {}),
        (executor, "run_campaign", "harness.run_campaign", {}),
        (campaign, "run_campaign", "harness.run_campaign", {}),
        (CoordinatorClient, "lease", "fleet.lease", {"post": _after_lease}),
        (CoordinatorClient, "report", "fleet.report", {}),
        (CoordinatorClient, "heartbeat", "fleet.heartbeat", {}),
        (repro.fleet, "wait_for_session", "fleet.session_wait", {}),
        (FleetServer, "stop", "fleet.teardown", {}),
    ]
    points += [(cls, "apply", "fuzzing.mutate", {})
               for cls in _defining(_subclasses(MutationStrategy), "apply")]
    points += [(cls, "send", "netns.send", {}) for cls in transports]
    points += [(cls, "start_run", "coverage.start_run", {})
               for cls in _defining(_subclasses(CoverageCollector), "start_run")]
    points += [(cls, "handle_packet", "targets.handle_packet",
                {"on_error": _count_fault("targets.faults")})
               for cls in _defining(targets, "handle_packet")]
    points += [(cls, "startup", "targets.startup",
                {"on_error": _count_fault("targets.faults")})
               for cls in _defining(targets, "startup")]
    points += [(cls, "create_instances", "parallel.create_instances",
                {"around": _traced_allocator})
               for cls in _defining(modes, "create_instances")]
    points += [(cls, "after_iteration", "parallel.after_iteration", {})
               for cls in _defining(modes, "after_iteration")]
    points += [(cls, "on_sync", "parallel.on_sync", {})
               for cls in _defining(modes, "on_sync")]
    return points


@contextlib.contextmanager
def _traced_allocator(tracer: Tracer, args):
    """Swap a CMFuzz-family mode's allocator for a traced one.

    The allocator is bound as an instance attribute at construction, so
    it cannot be patched on a class; it is swapped for the duration of
    ``create_instances`` and restored before the mode can be pickled
    into a checkpoint.
    """
    mode = args[0]
    original = mode.__dict__.get("allocator")
    if original is None:
        yield
        return
    mode.allocator = tracer.wrap("core.allocate", original)
    try:
        yield
    finally:
        mode.allocator = original


# ---------------------------------------------------------------------------
# The traced cell bodies
# ---------------------------------------------------------------------------


def spec_cell_id(spec) -> str:
    return "%s/%s/%d" % (spec.target, spec.mode, spec.config.seed)


class CellRunner:
    """``run_spec`` inside a cell root span; used only in traced passes.

    Pool cells run in forked per-task processes, which inherit the
    patched classes but keep their spans to themselves: in a forked
    process the runner starts from an empty tracer and spills what it
    recorded to ``spill_dir`` before the outcome goes back. Fleet agent
    threads share the parent's tracer, so nothing needs spilling.
    Relies on the pool's fork start method (its default on Linux).
    """

    def __init__(self, tracer: Tracer, spill_dir: str):
        self.tracer = tracer
        self.spill_dir = spill_dir

    def __call__(self, spec):
        import repro.harness.executor as executor

        forked = os.getpid() != self.tracer.owner_pid
        if forked:
            self.tracer.reset_after_fork()
        with self.tracer.cell(spec_cell_id(spec)):
            outcome = executor.run_spec(spec)
        if forked:
            self.tracer.spill(self.spill_dir)
        return outcome


class ResumeRunner:
    """A checkpoint-resume cell body inside a cell root span."""

    def __init__(self, tracer: Tracer, body: Callable):
        self.tracer = tracer
        self.body = body

    def __call__(self, workload, cell, config, stop):
        entry, mode, _ = cell
        with self.tracer.cell("%s/%s/%d" % (entry.name, mode, config.seed)):
            return self.body(workload, cell, config, stop)


def load_spills(directory: str) -> List[dict]:
    """Thread snapshots spilled by forked workers (written by this program)."""
    states: List[dict] = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".pkl"):
            with open(os.path.join(directory, name), "rb") as handle:
                states.extend(pickle.load(handle))
            os.remove(os.path.join(directory, name))
    return states
