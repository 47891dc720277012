"""The lease table: the one scheduling state machine behind every cell.

One :class:`LeaseTable` owns one ordered list of cells, and both
backends drive their cells through it: the local process pool
(:mod:`repro.harness.pool`, which also carries the probe fan-out) holds
one table per :func:`~repro.harness.pool.execute_tasks` call, the fleet
coordinator (:mod:`repro.fleet.coordinator`) one per submitted campaign.
A cell's ``spec_blob``, ``outcome_blob`` and ``failure`` hold whatever
its owner stores: tasks, outcomes and ``CellFailure`` records in the
pool, wire blobs and failure dicts in the coordinator. Per cell::

    PENDING --lease()--> LEASED --complete()--> DONE
       ^                   |  \\--fail()-------> PENDING (attempts+1)
       |                   |                    ... or FAILED (budget out)
       +--expire/steal/----+
          release (epoch+1, attempts refunded)

Three rules make the table safe under dead agents and re-delivery:

- **Fencing epochs.** Every (re)assignment bumps the cell's epoch and
  the epoch travels inside the lease grant. A result reported under a
  stale epoch — a zombie agent finishing work the coordinator already
  re-leased — is discarded, never folded. Results are idempotent per
  epoch: the first report wins, duplicates are rejected.
- **Double-lease impossibility.** ``lease()`` only ever hands out
  PENDING cells; a LEASED cell can reach another agent solely through
  the expiry/steal path, which atomically revokes the old epoch first.
  At no point do two agents hold *valid* leases on one cell.
- **Lease-style retries.** Deaths and expiries re-pend the cell without
  charging its retry budget (an injected worker death is a
  ``release``); only a *reported* failure consumes an attempt.

Work-stealing: when nothing is PENDING, an idle agent may steal the
oldest lease from the *slowest queue* — the agent holding the most
outstanding leases — once that lease is older than ``steal_after``.
All tie-breaks are deterministic (lowest cell index, lexicographic
agent id) so a simulated fleet replays identically.

Time never comes from ``time.time()`` here: the owner injects ``now``
into every transition, which is what makes the hypothesis harness able
to kill agents at arbitrary points and replay the schedule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

__all__ = [
    "CELL_DONE",
    "CELL_FAILED",
    "CELL_LEASED",
    "CELL_PENDING",
    "Cell",
    "LeaseTable",
]

CELL_PENDING = "pending"
CELL_LEASED = "leased"
CELL_DONE = "done"
CELL_FAILED = "failed"


@dataclass
class Cell:
    """One campaign cell's lease record."""

    index: int
    spec_blob: Any
    state: str = CELL_PENDING
    epoch: int = 0
    agent: str = ""
    leased_at: float = 0.0
    deadline: float = 0.0
    attempts: int = 0
    outcome_blob: Any = None
    failure: Any = None
    from_cache: bool = False

    @property
    def open(self) -> bool:
        return self.state in (CELL_PENDING, CELL_LEASED)


@dataclass
class _Event:
    seq: int
    time: float
    cell_index: int
    state: str
    agent: str
    epoch: int


@dataclass
class LeaseTable:
    """Lease bookkeeping for one ordered list of cells."""

    cells: List[Cell]
    lease_ttl: float = 15.0
    retries: int = 1
    #: Minimum lease age before an idle agent may steal it; ``None``
    #: disables stealing (expiry still reassigns).
    steal_after: Optional[float] = None
    events: List[_Event] = field(default_factory=list)

    @classmethod
    def for_blobs(cls, spec_blobs: Sequence[Any],
                  **kwargs: Any) -> "LeaseTable":
        return cls(cells=[Cell(index=i, spec_blob=blob)
                          for i, blob in enumerate(spec_blobs)], **kwargs)

    # -- queries -----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Every cell settled (successfully or with a final failure)."""
        return all(not cell.open for cell in self.cells)

    @property
    def failed(self) -> bool:
        return self.done and any(c.state == CELL_FAILED for c in self.cells)

    def queue_depth(self, agent: str) -> int:
        return sum(1 for c in self.cells
                   if c.state == CELL_LEASED and c.agent == agent)

    def leased_to(self, agent: str) -> List[Cell]:
        return [c for c in self.cells
                if c.state == CELL_LEASED and c.agent == agent]

    # -- transitions -------------------------------------------------------

    def _record(self, cell: Cell, now: float) -> None:
        self.events.append(_Event(
            seq=len(self.events), time=now, cell_index=cell.index,
            state=cell.state, agent=cell.agent, epoch=cell.epoch,
        ))

    def _repend(self, cell: Cell, now: float) -> None:
        """Revoke a lease: epoch bump fences the old holder out."""
        cell.state = CELL_PENDING
        cell.epoch += 1
        cell.agent = ""
        cell.leased_at = 0.0
        cell.deadline = 0.0
        self._record(cell, now)

    def lease(self, agent: str, now: float) -> Optional[Cell]:
        """Grant the next cell to ``agent``, or ``None`` when idle.

        PENDING cells go out lowest-index-first. With none pending, an
        eligible lease may be stolen from the slowest queue (see module
        docstring); the steal revokes the victim's epoch before the new
        grant, so the grant the victim still holds is already fenced.
        """
        cell = next((c for c in self.cells if c.state == CELL_PENDING), None)
        if cell is None:
            cell = self._steal_candidate(agent, now)
            if cell is None:
                return None
            self._repend(cell, now)
        cell.state = CELL_LEASED
        cell.epoch += 1
        cell.agent = agent
        cell.leased_at = now
        cell.deadline = now + self.lease_ttl
        cell.attempts += 1
        self._record(cell, now)
        return cell

    def _steal_candidate(self, thief: str, now: float) -> Optional[Cell]:
        if self.steal_after is None:
            return None
        eligible = [c for c in self.cells
                    if c.state == CELL_LEASED and c.agent != thief
                    and now - c.leased_at >= self.steal_after]
        if not eligible:
            return None
        # The slowest queue: most outstanding leases; ties break on the
        # agent id so the choice replays.
        depth = lambda c: (-self.queue_depth(c.agent), c.agent)  # noqa: E731
        victim_agent = min(eligible, key=depth).agent
        victims = [c for c in eligible if c.agent == victim_agent]
        return min(victims, key=lambda c: (c.leased_at, c.index))

    def heartbeat(self, agent: str, now: float) -> int:
        """Extend every lease ``agent`` holds; returns how many."""
        leases = self.leased_to(agent)
        for cell in leases:
            cell.deadline = now + self.lease_ttl
        return len(leases)

    def expire(self, now: float) -> List[Cell]:
        """Re-pend every lease whose deadline passed (missed heartbeats).

        The expired holder keeps executing as a zombie; its eventual
        report carries the pre-bump epoch and is discarded.
        """
        expired = [c for c in self.cells
                   if c.state == CELL_LEASED and now >= c.deadline]
        for cell in expired:
            self._repend(cell, now)
        return expired

    def expire_agent(self, agent: str, now: float) -> List[Cell]:
        """Re-pend every lease of a dead agent immediately."""
        dropped = self.leased_to(agent)
        for cell in dropped:
            self._repend(cell, now)
        return dropped

    def release(self, agent: str, index: int, epoch: int, now: float) -> bool:
        """A voluntary give-back (shutdown, injected fault): re-pend
        without charging the retry budget. Stale epochs are ignored."""
        cell = self.cells[index]
        if cell.state != CELL_LEASED or cell.agent != agent \
                or cell.epoch != epoch:
            return False
        cell.attempts -= 1  # a released lease never ran to completion
        self._repend(cell, now)
        return True

    def complete(self, agent: str, index: int, epoch: int,
                 outcome_blob: Any, now: float,
                 from_cache: bool = False) -> Tuple[bool, str]:
        """Fold one successful result in; returns ``(accepted, reason)``."""
        cell = self.cells[index]
        if cell.state == CELL_DONE:
            return False, "duplicate: cell already settled"
        if cell.state != CELL_LEASED:
            return False, "no live lease (cell is %s)" % cell.state
        if cell.epoch != epoch:
            return False, ("stale epoch %d (current %d): lease was "
                           "reassigned" % (epoch, cell.epoch))
        if cell.agent != agent:
            return False, "lease held by %r, not %r" % (cell.agent, agent)
        cell.state = CELL_DONE
        cell.outcome_blob = outcome_blob
        cell.from_cache = from_cache
        cell.agent = agent
        self._record(cell, now)
        return True, ""

    def fail(self, agent: str, index: int, epoch: int,
             failure: Any, now: float) -> Tuple[bool, str]:
        """Record a reported failure; re-pend while budget remains."""
        cell = self.cells[index]
        if cell.state != CELL_LEASED or cell.epoch != epoch \
                or cell.agent != agent:
            return False, "no live lease under this epoch"
        if cell.attempts <= self.retries:
            self._repend(cell, now)
        else:
            cell.state = CELL_FAILED
            cell.failure = failure
            self._record(cell, now)
        return True, ""
