"""A generic bounded process pool with timeouts, retries and failure records.

Any picklable fan-out — campaign cells, relation-probe batches — runs
through :func:`execute_tasks`:

- :class:`Task` wraps one unit of work: a picklable ``payload`` handed to
  the runner, the ``index`` results are keyed by, optional caller
  ``meta`` (e.g. a cache key) and an optional per-task ``timeout``.
- Scheduling state lives in a :class:`~repro.harness.leases.LeaseTable`,
  the fleet coordinator's state machine: a launch is a ``lease``, a
  result ``complete``, an exception, dead worker or timeout ``fail``
  (charging the retry budget), an injected worker death ``release``
  (refunding it). :func:`settled_result` folds a settled cell into its
  :class:`CellResult` on both backends.
- The pool itself forks one worker per in-flight task, enforces
  deadlines, runs the ``on_success`` hook and records telemetry;
  ``workers=1`` drives the same table in-process (no timeouts).

The campaign-specific layers — spec construction, outcome caching —
stay in :mod:`repro.harness.executor`; the probe fan-out lives in
:mod:`repro.core.probes`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import CampaignInterrupted, HarnessError
from repro.faultplane import doom_worker
from repro.harness.leases import CELL_PENDING, Cell, LeaseTable
from repro.telemetry import NULL_TELEMETRY

#: The pool's name in its lease table: the parent holds every lease.
_HOLDER = "pool"

#: What ``Connection.send`` can raise inside a worker (mirrors the
#: concrete-set treatment of ``UNPICKLE_ERRORS`` in :mod:`repro.cache`):
#: OSError/BrokenPipeError when the parent already closed or broke the
#: pipe, ValueError for a connection closed on this side, and
#: PicklingError/TypeError/AttributeError when the payload (e.g. an
#: exception holding unpicklable state) refuses to pickle. Anything else
#: is a real bug and must surface.
_PIPE_SEND_ERRORS = (OSError, ValueError, pickle.PicklingError,
                     TypeError, AttributeError)

#: What ``Connection.close`` can raise: only OS-level failures on an
#: already-broken or double-closed handle.
_PIPE_CLOSE_ERRORS = (OSError,)


@dataclass
class CellFailure:
    """A structured record of why a task could not produce a result."""

    kind: str  # "exception" | "timeout" | "worker-died"
    message: str
    traceback: str = ""
    exitcode: Optional[int] = None

    def __str__(self) -> str:
        return "[%s] %s" % (self.kind, self.message)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellFailure":
        return cls(kind="exception",
                   message="%s: %s" % (type(exc).__name__, exc),
                   traceback="".join(traceback.format_exception(
                       type(exc), exc, exc.__traceback__)))


@dataclass
class CellResult:
    """One task's execution record: outcome or failure, plus provenance."""

    index: int
    spec: Any
    outcome: Optional[Any] = None
    failure: Optional[CellFailure] = None
    from_cache: bool = False
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome is not None


def settled_result(index: int, spec: Any, attempts: int, outcome: Any = None,
                   failure: Any = None,
                   from_cache: bool = False) -> CellResult:
    """The one fold from a settled lease-table cell, local or fleet, to
    its record; ``failure`` is a :class:`CellFailure` or, off the wire,
    a dict of its fields."""
    if isinstance(failure, dict):
        failure = CellFailure(**failure)
    return CellResult(index=index, spec=spec, outcome=outcome,
                      failure=failure, from_cache=from_cache,
                      attempts=attempts)


def _describe_spec(spec: Any) -> str:
    target = getattr(spec, "target", None)
    mode = getattr(spec, "mode", None)
    if target is not None and mode is not None:
        return "%s/%s" % (target, mode)
    if target is not None:
        return str(target)
    return type(spec).__name__


class ExecutorError(HarnessError):
    """Raised when a grid finished with failed cells."""

    def __init__(self, failed: Sequence[CellResult]):
        self.failed = list(failed)
        details = "; ".join(
            "cell %d (%s): %s" % (c.index, _describe_spec(c.spec), c.failure)
            for c in self.failed
        )
        super().__init__("%d cell(s) failed: %s" % (len(self.failed), details))


@dataclass
class Task:
    """One unit of pool work.

    Attributes:
        index: The slot results are keyed by (callers own the numbering).
        payload: The picklable argument handed to the runner.
        meta: Opaque caller bookkeeping (e.g. a cache key); never crosses
            the process boundary.
        timeout: Per-task wall-clock budget overriding the pool default
            (batched tasks scale their deadline with batch size).
    """

    index: int
    payload: Any
    meta: Any = None
    timeout: Optional[float] = None


def _task_entry(runner: Callable, payload: Any, conn) -> None:
    """Worker process entry point: run the task, ship one message back."""
    try:
        outcome = runner(payload)
        conn.send(("ok", outcome))
    except BaseException as exc:  # noqa: BLE001 - converted to a record
        try:
            conn.send(("error", type(exc).__name__, str(exc),
                       traceback.format_exc()))
        except _PIPE_SEND_ERRORS:
            # Unreportable failure (pipe gone or record unpicklable):
            # die silently; the parent records "worker-died".
            pass
    finally:
        try:
            conn.close()
        except _PIPE_CLOSE_ERRORS:
            # Broken/already-closed pipe; the process is exiting anyway.
            pass


def _doomed_entry(conn) -> None:
    """Entry point for a fault-plane-doomed worker: die without a result.

    ``os._exit`` skips every cleanup hook, which is the point — the
    parent must observe exactly what a segfaulting or OOM-killed worker
    looks like: a closed pipe and a nonzero exitcode.
    """
    try:
        conn.close()
    except _PIPE_CLOSE_ERRORS:
        # Broken/already-closed pipe; the doomed exit must proceed.
        pass
    os._exit(173)


@dataclass
class _Running:
    cell: Cell
    process: Any
    deadline: Optional[float]
    budget: Optional[float]
    injected: bool = False


def default_context():
    """Fork when available (cheap, inherits the import state), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def in_daemon_worker() -> bool:
    """True inside a daemonic pool worker, which cannot spawn children."""
    return multiprocessing.current_process().daemon


def execute_tasks(
    tasks: Sequence[Task],
    runner: Callable[[Any], Any],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    mp_context=None,
    telemetry=None,
    on_success: Optional[Callable[[Task, Any], None]] = None,
    metric_prefix: str = "executor",
    injector=None,
) -> List[CellResult]:
    """Run tasks, optionally across worker processes.

    Args:
        tasks: The work items, in the order results should come back.
        runner: Task body mapping ``task.payload`` to a result. Must be a
            picklable module-level callable for ``workers > 1``.
        workers: Max tasks in flight. ``1`` runs in-process (identical
            results, no subprocesses, no timeout enforcement).
        timeout: Default per-task wall-clock budget in seconds (pooled
            only); ``Task.timeout`` overrides it per task.
        retries: How many times a failed task is re-run in a fresh worker
            before its failure record becomes final.
        telemetry: Optional :class:`repro.telemetry.Telemetry`; records
            ``<prefix>.task_seconds`` and ``<prefix>.retries``.
        on_success: Invoked as ``on_success(task, outcome)`` before the
            success record is built (cache writes hook in here).
        metric_prefix: Namespace for the pool's telemetry instruments.
        injector: Optional :class:`repro.faultplane.FaultInjector`; an
            enabled plan may doom a launched worker to die before
            shipping its result. The death releases the lease: the cell
            re-runs uncharged and unseen by the pool metrics. Ignored
            on the ``workers=1`` path (there is no worker to kill).

    Returns:
        One :class:`CellResult` per task, ordered like ``tasks``
        regardless of completion order, each carrying the task's
        ``index``.
    """
    schedule = _Schedule(tasks, retries, telemetry or NULL_TELEMETRY,
                         metric_prefix, on_success)
    if workers <= 1:
        _run_inline(schedule, runner)
    else:
        _run_pool(schedule, workers, runner, timeout,
                  mp_context or default_context(), injector)
    return [settled_result(task.index, task.payload, cell.attempts,
                           cell.outcome_blob, cell.failure)
            for task, cell in zip(schedule.tasks, schedule.table.cells)]


class _Schedule:
    """The pool's side of its lease table: the one lease holder, plus
    the telemetry and success hook each transition carries."""

    def __init__(self, tasks: Sequence[Task], retries: int, tele,
                 metric_prefix: str, on_success: Optional[Callable]):
        self.tasks = list(tasks)
        self.table = LeaseTable.for_blobs(self.tasks, retries=retries)
        self.tele = tele
        self.prefix = metric_prefix
        self.on_success = on_success

    def _observe(self, cell: Cell) -> None:
        self.tele.histogram(self.prefix + ".task_seconds").observe(
            time.monotonic() - cell.leased_at)

    def complete(self, cell: Cell, outcome: Any) -> None:
        self._observe(cell)
        if self.on_success is not None:
            self.on_success(self.tasks[cell.index], outcome)
        self.table.complete(_HOLDER, cell.index, cell.epoch, outcome,
                            time.monotonic())

    def fail(self, cell: Cell, failure: CellFailure,
             injected: bool = False) -> None:
        """A failed attempt, charged to the retry budget — unless the
        fault plane injected it: that releases the lease, unseen by the
        pool metrics, so exports match the fault-free run."""
        if injected:
            self.table.release(_HOLDER, cell.index, cell.epoch,
                               time.monotonic())
            return
        self._observe(cell)
        self.table.fail(_HOLDER, cell.index, cell.epoch, failure,
                        time.monotonic())
        if cell.state == CELL_PENDING:  # re-pended: a retry follows
            self.tele.counter(self.prefix + ".retries").inc()


def _run_inline(schedule: _Schedule, runner: Callable) -> None:
    """The ``workers=1`` path: the same lease table, no subprocesses."""
    while True:
        cell = schedule.table.lease(_HOLDER, time.monotonic())
        if cell is None:
            return
        try:
            outcome = runner(schedule.tasks[cell.index].payload)
        except CampaignInterrupted:
            # An operator-initiated stop (SIGTERM/SIGINT with
            # checkpointing): retrying in-process would immediately
            # resume the campaign the operator is trying to stop, so
            # the interrupt propagates to the caller instead.
            raise
        except Exception as exc:
            schedule.fail(cell, CellFailure.from_exception(exc))
        else:
            schedule.complete(cell, outcome)


def _run_pool(schedule: _Schedule, workers: int, runner: Callable,
              timeout: Optional[float], ctx, injector) -> None:
    running: Dict[Any, _Running] = {}
    deaths: Dict[int, int] = {}

    def launch(cell: Cell) -> None:
        task = schedule.tasks[cell.index]
        doomed = doom_worker(injector, "pool.worker", cell.index, deaths)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_doomed_entry if doomed else _task_entry,
            args=(child_conn,) if doomed
            else (runner, task.payload, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        budget = task.timeout if task.timeout is not None else timeout
        deadline = (time.monotonic() + budget) if budget else None
        running[parent_conn] = _Running(
            cell=cell, process=process, deadline=deadline, budget=budget,
            injected=doomed,
        )

    try:
        while True:
            while len(running) < workers:
                cell = schedule.table.lease(_HOLDER, time.monotonic())
                if cell is None:
                    break
                launch(cell)
            if not running:
                return

            wait_timeout = None
            deadlines = [r.deadline for r in running.values()
                         if r.deadline is not None]
            if deadlines:
                wait_timeout = max(0.0, min(deadlines) - time.monotonic())
            ready = mp_connection.wait(list(running), timeout=wait_timeout)

            for conn in ready:
                run = running.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                conn.close()
                run.process.join()
                if message is None:
                    schedule.fail(run.cell, CellFailure(
                        kind="worker-died",
                        message="worker exited without a result (exitcode %s)"
                                % run.process.exitcode,
                        exitcode=run.process.exitcode,
                    ), run.injected)
                elif message[0] == "ok":
                    schedule.complete(run.cell, message[1])
                else:
                    _, name, text, trace = message
                    schedule.fail(run.cell, CellFailure(
                        kind="exception",
                        message="%s: %s" % (name, text),
                        traceback=trace,
                    ), run.injected)

            now = time.monotonic()
            for conn in [c for c, r in running.items()
                         if r.deadline is not None and now >= r.deadline]:
                run = running.pop(conn)
                _terminate(run.process)
                conn.close()
                schedule.fail(run.cell, CellFailure(
                    kind="timeout",
                    message="task exceeded the %.1fs budget" % run.budget,
                ), run.injected)
    finally:
        for conn, run in running.items():
            _terminate(run.process)
            conn.close()


def _terminate(process) -> None:
    process.terminate()
    process.join(5.0)
    if process.is_alive():  # pragma: no cover - stuck in uninterruptible state
        process.kill()
        process.join(5.0)
