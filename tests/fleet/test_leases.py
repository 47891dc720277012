"""The lease state machine: fencing epochs, stealing, retry accounting.

Time is injected into every transition, so these tests replay the exact
schedules the docstring promises are safe: expiry → reassignment →
zombie report, double-lease attempts, heartbeat jitter, stealing from
the slowest queue.
"""

from repro.harness.leases import (
    CELL_DONE,
    CELL_FAILED,
    CELL_LEASED,
    CELL_PENDING,
    LeaseTable,
)


def _table(cells=3, **kwargs):
    kwargs.setdefault("lease_ttl", 10.0)
    return LeaseTable.for_blobs(["blob-%d" % i for i in range(cells)],
                                **kwargs)


class TestGrants:
    def test_pending_cells_go_out_lowest_index_first(self):
        table = _table(3)
        assert table.lease("a", now=0.0).index == 0
        assert table.lease("b", now=0.0).index == 1
        assert table.lease("a", now=0.0).index == 2

    def test_grant_carries_epoch_and_deadline(self):
        table = _table(1, lease_ttl=7.0)
        cell = table.lease("a", now=3.0)
        assert cell.epoch == 1
        assert cell.leased_at == 3.0
        assert cell.deadline == 10.0
        assert cell.attempts == 1

    def test_no_pending_no_steal_returns_none(self):
        table = _table(2)  # steal_after=None: stealing disabled
        table.lease("a", now=0.0)
        table.lease("a", now=0.0)
        assert table.lease("b", now=100.0) is None

    def test_done_table_reports_done(self):
        table = _table(1)
        cell = table.lease("a", now=0.0)
        accepted, _ = table.complete("a", 0, cell.epoch, "out", now=1.0)
        assert accepted
        assert table.done and not table.failed


class TestDoubleLeaseImpossibility:
    def test_leased_cell_is_never_granted_twice_while_valid(self):
        """Exhaustively: at every step of a three-agent scramble, the set
        of validly leased cells never contains a duplicate and a second
        grant of a live lease never happens."""
        table = _table(4, steal_after=5.0, lease_ttl=10.0)
        live = {}  # cell index -> (agent, epoch) of the valid lease
        now = 0.0
        for step in range(40):
            agent = "abc"[step % 3]
            now += 0.5
            cell = table.lease(agent, now=now)
            if cell is None:
                continue
            if cell.index in live:
                # Only reachable via the steal path, which must have
                # revoked the old epoch first.
                _, old_epoch = live[cell.index]
                assert cell.epoch > old_epoch
            live[cell.index] = (agent, cell.epoch)
            leased_now = [c for c in table.cells if c.state == CELL_LEASED]
            assert len({c.index for c in leased_now}) == len(leased_now)

    def test_steal_revokes_before_regrant(self):
        table = _table(1, steal_after=4.0)
        victim_epoch = table.lease("slow", now=0.0).epoch
        stolen = table.lease("fast", now=5.0)
        assert stolen.index == 0
        assert stolen.agent == "fast"
        # The victim's epoch is fenced: two bumps (revoke + regrant).
        assert stolen.epoch == victim_epoch + 2
        accepted, reason = table.complete("slow", 0, victim_epoch, "zombie",
                                          now=6.0)
        assert not accepted and "reassigned" in reason


class TestExpiry:
    def test_expire_repends_overdue_leases_only(self):
        table = _table(2, lease_ttl=10.0)
        table.lease("a", now=0.0)
        table.lease("b", now=8.0)
        expired = table.expire(now=12.0)
        assert [c.index for c in expired] == [0]
        assert table.cells[0].state == CELL_PENDING
        assert table.cells[1].state == CELL_LEASED

    def test_expire_then_reassign_then_zombie_report_discarded(self):
        """The headline schedule: agent a dies mid-cell, the cell is
        re-leased to b, then a's late (zombie) report must be discarded
        and b's accepted."""
        table = _table(1, lease_ttl=10.0)
        doomed_epoch = table.lease("a", now=0.0).epoch
        assert table.expire(now=11.0)  # a missed every heartbeat
        fresh = table.lease("b", now=12.0)
        assert fresh.epoch > doomed_epoch
        accepted, reason = table.complete("a", 0, doomed_epoch, "zombie",
                                          now=13.0)
        assert not accepted and "stale epoch" in reason
        accepted, _ = table.complete("b", 0, fresh.epoch, "good", now=14.0)
        assert accepted
        assert table.cells[0].outcome_blob == "good"

    def test_expiry_refunds_the_attempt(self):
        """Deaths are lease-style: only reported failures charge the
        budget, so a cell can die more times than it has retries."""
        table = _table(1, lease_ttl=10.0, retries=1)
        now = 0.0
        for _ in range(5):
            cell = table.lease("a", now=now)
            assert cell is not None, "expiries must never exhaust the budget"
            now += 11.0
            assert table.expire(now=now)
        cell = table.lease("b", now=now)
        accepted, _ = table.complete("b", 0, cell.epoch, "out", now=now + 1)
        assert accepted

    def test_expire_agent_drops_all_its_leases_at_once(self):
        table = _table(3, lease_ttl=50.0)
        table.lease("a", now=0.0)
        table.lease("b", now=0.0)
        table.lease("a", now=0.0)
        dropped = table.expire_agent("a", now=1.0)
        assert sorted(c.index for c in dropped) == [0, 2]
        assert table.queue_depth("a") == 0
        assert table.queue_depth("b") == 1


class TestHeartbeat:
    def test_heartbeat_extends_every_lease_of_the_agent(self):
        table = _table(2, lease_ttl=10.0)
        table.lease("a", now=0.0)
        table.lease("a", now=2.0)
        assert table.heartbeat("a", now=9.0) == 2
        assert not table.expire(now=12.0)  # both deadlines moved to 19.0
        assert table.expire(now=19.5)

    def test_jittered_heartbeats_keep_a_long_cell_alive(self):
        """Irregular-but-in-ttl heartbeats (scheduling jitter) never let
        a healthy agent's lease lapse."""
        table = _table(1, lease_ttl=10.0)
        cell = table.lease("a", now=0.0)
        for now in (4.0, 13.0, 17.5, 27.0, 33.0):  # gaps up to 9.5 < ttl
            assert not table.expire(now=now)
            table.heartbeat("a", now=now)
        accepted, _ = table.complete("a", 0, cell.epoch, "out", now=34.0)
        assert accepted

    def test_heartbeat_for_idle_agent_is_a_noop(self):
        table = _table(1)
        assert table.heartbeat("idle", now=0.0) == 0


class TestStealing:
    def test_steal_targets_the_slowest_queue(self):
        """b holds 1 lease, a holds 2: the thief must steal from a (the
        deepest queue) and take its oldest lease."""
        table = _table(3, steal_after=5.0, lease_ttl=60.0)
        table.lease("a", now=0.0)   # cell 0, oldest
        table.lease("b", now=1.0)   # cell 1
        table.lease("a", now=2.0)   # cell 2
        stolen = table.lease("thief", now=10.0)
        assert stolen.index == 0
        assert table.queue_depth("a") == 1
        assert table.queue_depth("b") == 1

    def test_young_leases_are_not_stolen(self):
        table = _table(1, steal_after=5.0, lease_ttl=60.0)
        table.lease("a", now=0.0)
        assert table.lease("thief", now=4.9) is None
        assert table.lease("thief", now=5.0) is not None

    def test_agent_never_steals_from_itself(self):
        table = _table(1, steal_after=1.0, lease_ttl=60.0)
        table.lease("a", now=0.0)
        assert table.lease("a", now=50.0) is None

    def test_tie_breaks_are_deterministic(self):
        """Equal queue depths: the lexicographically-smallest agent id
        loses its oldest lease, every time."""
        for _ in range(3):
            table = _table(2, steal_after=1.0, lease_ttl=60.0)
            table.lease("zeta", now=0.0)
            table.lease("alpha", now=0.0)
            stolen = table.lease("thief", now=10.0)
            assert stolen.index == 1  # alpha's cell


class TestResults:
    def test_duplicate_report_rejected_first_wins(self):
        table = _table(1)
        cell = table.lease("a", now=0.0)
        assert table.complete("a", 0, cell.epoch, "first", now=1.0)[0]
        accepted, reason = table.complete("a", 0, cell.epoch, "second",
                                          now=2.0)
        assert not accepted and "duplicate" in reason
        assert table.cells[0].outcome_blob == "first"

    def test_wrong_agent_report_rejected(self):
        table = _table(1)
        cell = table.lease("a", now=0.0)
        accepted, _ = table.complete("imposter", 0, cell.epoch, "out", now=1.0)
        assert not accepted

    def test_release_refunds_the_attempt_and_fences(self):
        table = _table(1, retries=0)
        cell = table.lease("a", now=0.0)
        assert table.release("a", 0, cell.epoch, now=1.0)
        assert table.cells[0].state == CELL_PENDING
        assert table.cells[0].attempts == 0
        assert not table.release("a", 0, cell.epoch, now=2.0)  # stale now
        # The refund means the next attempt still fits a retries=0 budget.
        again = table.lease("b", now=3.0)
        assert again.attempts == 1

    def test_reported_failures_consume_the_budget_then_fail(self):
        table = _table(1, retries=1)
        first = table.lease("a", now=0.0)
        ok, _ = table.fail("a", 0, first.epoch, {"kind": "exception"}, now=1.0)
        assert ok and table.cells[0].state == CELL_PENDING
        second = table.lease("a", now=2.0)
        assert second.attempts == 2
        ok, _ = table.fail("a", 0, second.epoch,
                           {"kind": "exception", "message": "boom"}, now=3.0)
        assert ok
        assert table.cells[0].state == CELL_FAILED
        assert table.cells[0].failure["message"] == "boom"
        assert table.done and table.failed

    def test_zombie_failure_report_discarded(self):
        table = _table(1, lease_ttl=10.0, retries=0)
        doomed_epoch = table.lease("a", now=0.0).epoch
        table.expire(now=11.0)
        ok, _ = table.fail("a", 0, doomed_epoch, {"kind": "exception"},
                           now=12.0)
        assert not ok
        assert table.cells[0].state == CELL_PENDING  # budget untouched


class TestEvents:
    def test_every_transition_is_journaled_in_order(self):
        table = _table(1, lease_ttl=10.0)
        cell = table.lease("a", now=1.0)
        table.expire(now=12.0)
        cell = table.lease("b", now=13.0)
        table.complete("b", 0, cell.epoch, "out", now=14.0)
        states = [e.state for e in table.events]
        assert states == [CELL_LEASED, CELL_PENDING, CELL_LEASED, CELL_DONE]
        assert [e.seq for e in table.events] == [0, 1, 2, 3]
        epochs = [e.epoch for e in table.events]
        assert epochs == sorted(epochs)
