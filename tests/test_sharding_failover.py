"""Shard failover: detection, fencing, promotion, self-healing routing."""

from __future__ import annotations

import os

import pytest

from repro.db.schema import Schema
from repro.engine import Database
from repro.errors import (
    Fenced,
    InDoubt,
    ResourceError,
    ShardError,
    ShardUnavailable,
)
from repro.logic import builder as b
from repro.sharding import (
    FailureDetector,
    Replica,
    ShardedDatabase,
    ShardHealth,
    TwoPhaseFaults,
)
from repro.storage.store import Store, read_fence, write_fence
from repro.transactions.program import query, transaction

x, y = b.atom_var("x"), b.atom_var("y")
put = transaction("put", (x, y), b.insert(b.mktuple(x, y), "KV"))
n_rows = query("n-rows", (), b.size_of(b.rel("KV", 2)))


def kv_schema() -> Schema:
    schema = Schema()
    schema.add_relation("KV", ("k", "v"))
    return schema


def ab_schema() -> Schema:
    schema = Schema()
    schema.add_relation("A", ("k", "v"))
    schema.add_relation("B", ("k", "v"))
    return schema


put_a = transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "A"))
put_b = transaction("put-b", (x, y), b.insert(b.mktuple(x, y), "B"))
both = transaction(
    "both",
    (x, y),
    b.seq(b.insert(b.mktuple(x, y), "A"), b.insert(b.mktuple(x, y), "B")),
)
n_a = query("n-a", (), b.size_of(b.rel("A", 2)))
n_b = query("n-b", (), b.size_of(b.rel("B", 2)))


def make_clock(step: float = 1.0):
    """A deterministic monotonic clock advancing ``step`` per read."""
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


class TestFailureDetector:
    def test_walks_up_suspect_down_at_thresholds(self):
        det = FailureDetector(1, suspect_after=2, down_after=4)
        assert det.observe(0, ok=False) is ShardHealth.UP
        assert det.observe(0, ok=False) is ShardHealth.SUSPECT
        assert det.observe(0, ok=False) is ShardHealth.SUSPECT
        assert det.observe(0, ok=False) is ShardHealth.DOWN

    def test_success_resets_the_consecutive_count(self):
        det = FailureDetector(1, suspect_after=1, down_after=2)
        det.observe(0, ok=False)
        assert det.state(0) is ShardHealth.SUSPECT
        assert det.observe(0, ok=True) is ShardHealth.UP
        # The streak restarts from zero: one failure is SUSPECT again,
        # not DOWN.
        assert det.observe(0, ok=False) is ShardHealth.SUSPECT

    def test_mark_recovered_measures_the_down_window(self):
        clock = make_clock(step=1.0)
        det = FailureDetector(1, down_after=1, clock=clock)
        det.observe(0, ok=False)  # DOWN at some clock reading t
        assert det.down_since(0) is not None
        duration = det.mark_recovered(0)
        assert duration == pytest.approx(1.0)
        assert det.state(0) is ShardHealth.UP
        assert det.down_since(0) is None

    def test_mark_recovered_without_down_returns_none(self):
        det = FailureDetector(1)
        assert det.mark_recovered(0) is None

    def test_invalid_configuration_is_refused_typed(self):
        with pytest.raises(ShardError):
            FailureDetector(0)
        with pytest.raises(ShardError):
            FailureDetector(1, suspect_after=3, down_after=2)
        with pytest.raises(ShardError):
            FailureDetector(1, suspect_after=0, down_after=2)

    def test_states_map_and_isolation_between_shards(self):
        det = FailureDetector(3, suspect_after=1, down_after=1)
        det.observe(1, ok=False)
        states = det.states()
        assert states[0] is ShardHealth.UP
        assert states[1] is ShardHealth.DOWN
        assert states[2] is ShardHealth.UP

    def test_transitions_are_mirrored_into_metrics(self):
        det = FailureDetector(1, suspect_after=1, down_after=2)
        det.observe(0, ok=False)
        det.observe(0, ok=False)
        gauge = det.metrics.get("repro_failover_state", shard="0")
        assert gauge is not None and gauge.value == 2.0
        down = det.metrics.get(
            "repro_failover_transitions_total", shard="0", to="down"
        )
        assert down is not None and down.value == 1.0

    def test_transitions_recorded_as_tracer_spans(self):
        spans = []

        class FakeTracer:
            def record(self, kind, label, version, *, start, duration,
                       touched=()):
                spans.append((kind, label))

        det = FailureDetector(
            1, suspect_after=1, down_after=2, tracer=FakeTracer()
        )
        det.observe(0, ok=False)
        det.observe(0, ok=False)
        assert ("failover", "shard-0:up->suspect") in spans
        assert ("failover", "shard-0:suspect->down") in spans


class TestFencing:
    def test_fence_file_roundtrip_and_default_epoch(self, tmp_path):
        assert read_fence(str(tmp_path)) == 1
        write_fence(str(tmp_path), 7)
        assert read_fence(str(tmp_path)) == 7

    def test_fenced_store_refuses_appends_typed(self, tmp_path):
        db = Database(kv_schema())
        db.durable(str(tmp_path))
        db.execute(put, 1, 1)
        write_fence(str(tmp_path), 2)
        with pytest.raises(Fenced) as excinfo:
            db.execute(put, 2, 2)
        err = excinfo.value
        assert err.writer_epoch == 1
        assert err.fence_epoch == 2
        assert "epoch" in str(err)

    def test_advance_fence_adopts_the_new_epoch(self, tmp_path):
        db = Database(kv_schema())
        db.durable(str(tmp_path))
        db.execute(put, 1, 1)
        store = db.store
        assert store.epoch == 1
        assert store.advance_fence() == 2
        # The store fenced *itself* forward, so its own appends still land
        # — and now carry the epoch stamp in every frame.
        db.execute(put, 2, 2)
        from repro.storage.journal import read_journal

        records = read_journal(store.journal_path).records
        assert records[-1].epoch == 2

    def test_epoch_one_frames_stay_byte_compatible(self, tmp_path):
        """Pre-failover journals never mention epochs: the stamp is omitted
        at epoch 1 so old readers see identical frames."""
        db = Database(kv_schema())
        db.durable(str(tmp_path))
        db.execute(put, 1, 1)
        from repro.storage.journal import read_journal

        records = read_journal(db.store.journal_path).records
        assert all(r.epoch is None for r in records)
        assert all("epoch" not in r.to_doc() for r in records)

    def test_recovery_refuses_zombie_frames_from_a_deposed_epoch(
        self, tmp_path
    ):
        """A frame carrying a *smaller* epoch than one already replayed is
        a zombie append that slipped past the fence check: replay must
        stop at the safe prefix, not apply it."""
        db = Database(kv_schema())
        db.durable(str(tmp_path))
        db.execute(put, 1, 1)
        store = db.store
        store.advance_fence()  # epoch 2
        db.execute(put, 2, 2)
        # Forge the zombie: an epoch-1 frame appended after epoch-2 ones.
        from repro.storage.journal import Journal, JournalRecord
        from repro.storage.serialize import state_digest

        zombie = JournalRecord(
            seq=3,
            label="zombie",
            program=None,
            args=(),
            snapshot_version=None,
            delta={},
            post_digest=state_digest(db.current),
            kind="commit",
            txid=None,
            epoch=1,
        )
        db.close()
        writer = Journal(store.journal_path)
        writer.append(zombie)
        writer.close()

        recovery = Store(str(tmp_path)).recover()
        assert not recovery.clean
        assert "deposed epoch" in (recovery.reason or "")
        assert recovery.epoch == 2
        assert len(recovery.state.relations["KV"].tuples) == 2

    def test_recover_reports_the_journal_epoch(self, tmp_path):
        db = Database(kv_schema())
        db.durable(str(tmp_path))
        db.execute(put, 1, 1)
        db.close()
        assert Store(str(tmp_path)).recover().epoch == 1


class TestPromotion:
    def _sharded(self, tmp_path):
        return ShardedDatabase(
            ab_schema(), shards=2, path=str(tmp_path),
            placement={"A": 0, "B": 1},
        )

    def test_promote_resolves_pending_prepare_by_decision_record(
        self, tmp_path
    ):
        sdb = self._sharded(tmp_path)
        shard = sdb.plan.shard_of("A")
        sdb.faults = TwoPhaseFaults(crash_at="after-decision")
        with pytest.raises(InDoubt) as excinfo:
            sdb.execute(both, 1, 1)
        assert excinfo.value.decided
        sdb.close()

        replica = Replica(str(tmp_path / f"shard-{shard}"))
        promotion = replica.promote(
            decisions={excinfo.value.txid: "commit"}
        )
        assert promotion.epoch == 2
        assert [r[1] for r in promotion.resolutions] == ["commit"]
        assert "coordinator decision record" in promotion.resolutions[0][2]
        assert len(promotion.state.relations["A"].tuples) == 1
        promotion.store.close()

    def test_promote_presumes_abort_without_evidence(self, tmp_path):
        sdb = self._sharded(tmp_path)
        shard = sdb.plan.shard_of("A")
        sdb.faults = TwoPhaseFaults(crash_at="before-decision")
        with pytest.raises(InDoubt):
            sdb.execute(both, 1, 1)
        sdb.close()

        replica = Replica(str(tmp_path / f"shard-{shard}"))
        promotion = replica.promote(decisions={}, applied={})
        assert [r[1] for r in promotion.resolutions] == ["abort"]
        assert "presumed abort" in promotion.resolutions[0][2]
        assert len(promotion.state.relations["A"].tuples) == 0
        promotion.store.close()

    def test_promote_honors_sibling_applied_outcome(self, tmp_path):
        sdb = self._sharded(tmp_path)
        shard = sdb.plan.shard_of("A")
        sdb.faults = TwoPhaseFaults(crash_at="after-decision")
        with pytest.raises(InDoubt) as excinfo:
            sdb.execute(both, 1, 1)
        sdb.close()

        replica = Replica(str(tmp_path / f"shard-{shard}"))
        promotion = replica.promote(
            decisions={}, applied={excinfo.value.txid: "commit"}
        )
        assert [r[1] for r in promotion.resolutions] == ["commit"]
        assert "sibling" in promotion.resolutions[0][2]
        promotion.store.close()

    def test_zombie_primary_is_fenced_after_promotion(self, tmp_path):
        db = Database(kv_schema())
        db.durable(str(tmp_path))
        db.execute(put, 1, 1)

        replica = Replica(str(tmp_path))
        promotion = replica.promote()
        assert promotion.epoch == 2
        # The old primary still holds its open store handle — every append
        # and PREPARE vote it attempts is refused, typed.
        with pytest.raises(Fenced):
            db.execute(put, 2, 2)
        with pytest.raises(Fenced):
            db.store.log_prepare(
                db.current, db.current, txid="t-zombie",
                label="zombie",
            )
        # The new primary's store accepts writes at the new epoch.
        promotion.store.log_commit(
            promotion.state, promotion.state, label="new-primary",
        )
        promotion.store.close()
        db.close()

    def test_promotion_checkpoint_reseeds_fresh_replicas(self, tmp_path):
        db = Database(kv_schema())
        db.durable(str(tmp_path))
        for i in range(5):
            db.execute(put, i, i)
        promotion = Replica(str(tmp_path)).promote()
        # One commit in the new epoch, so followers replay a stamped frame.
        promotion.store.log_commit(
            promotion.state, promotion.state, label="post-promotion",
        )
        promotion.store.close()
        fresh = Replica(str(tmp_path))
        assert fresh.query(n_rows) == 5
        assert fresh.journal_epoch == promotion.epoch


class TestShardedFailover:
    def _sharded(self, tmp_path, **kwargs):
        sdb = ShardedDatabase(
            ab_schema(), shards=2, path=str(tmp_path),
            placement={"A": 0, "B": 1},
        )
        sdb.enable_failover(
            suspect_after=1, down_after=2, retry_after=0.01, **kwargs
        )
        return sdb

    def test_dead_shard_is_refused_fast_with_retry_hint(self, tmp_path):
        sdb = self._sharded(tmp_path, auto_promote=False)
        shard = sdb.plan.shard_of("A")
        sdb.execute(put_a, 1, 1)
        sdb.kill_shard(shard)
        with pytest.raises(ShardUnavailable) as excinfo:
            sdb.execute(put_a, 2, 2)
        err = excinfo.value
        assert isinstance(err, ResourceError)  # admission/backoff apply
        assert err.shard == shard
        assert err.retry_after == pytest.approx(0.01)
        assert err.state == "suspect"
        # The healthy shard keeps serving.
        sdb.execute(put_b, 1, 1)
        assert sdb.query(n_b) == 1
        sdb.close()

    def test_self_healing_inline_promotion_on_routed_traffic(
        self, tmp_path
    ):
        sdb = self._sharded(tmp_path)
        shard = sdb.plan.shard_of("A")
        sdb.execute(put_a, 1, 1)
        zombie = sdb.kill_shard(shard)
        # Touch 1: SUSPECT, refused.  Touch 2: DOWN -> inline promotion,
        # the very same call succeeds against the new primary.
        with pytest.raises(ShardUnavailable):
            sdb.execute(put_a, 2, 2)
        sdb.execute(put_a, 2, 2)
        assert sdb.query(n_a) == 2
        # The deposed primary's handle is fenced out.
        with pytest.raises(Fenced):
            zombie.db.store.log_commit(
                zombie.db.current, zombie.db.current, label="zombie",
            )
        zombie.db.store.close()
        sdb.close()

    def test_failover_tick_heals_an_idle_shard(self, tmp_path):
        """A shard serving no traffic is still detected and promoted by
        the probe path."""
        sdb = self._sharded(tmp_path)
        shard = sdb.plan.shard_of("A")
        sdb.execute(put_a, 1, 1)
        sdb.kill_shard(shard)
        healths = [sdb.failover_tick()[shard] for _ in range(3)]
        assert healths[0] is ShardHealth.SUSPECT
        assert healths[-1] is ShardHealth.UP  # promoted mid-ticks
        assert sdb.query(n_a) == 1
        sdb.close()

    def test_promote_shard_returns_none_when_already_healthy(
        self, tmp_path
    ):
        sdb = self._sharded(tmp_path)
        assert sdb.promote_shard(0) is None
        sdb.close()

    @pytest.mark.parametrize("point", [
        "prepare:0", "prepare:1", "before-decision",
    ])
    @pytest.mark.parametrize("kill_writer", [0, 1])
    def test_kill_before_decision_presumes_abort_atomically(
        self, tmp_path, point, kill_writer
    ):
        """Losing a writer before the decision point durably presumes
        abort: the caller is refused (safe to retry) and neither stripe
        shows the write — even after the dead shard heals."""
        sdb = self._sharded(tmp_path)
        sdb.execute(both, 1, 1)
        sdb.faults = TwoPhaseFaults(
            kill_primary_at=point, kill_writer=kill_writer
        )
        with pytest.raises(ShardUnavailable):
            sdb.execute(both, 2, 2)
        zombies = sdb.faults.killed
        assert len(zombies) == 1
        sdb.faults = None
        assert sdb.promote_shard(zombies[0].index) is not None
        assert sdb.query(n_a) == 1
        assert sdb.query(n_b) == 1
        zombies[0].db.store.close()
        sdb.close()

    @pytest.mark.parametrize("point", [
        "after-decision", "outcome:0", "outcome:1",
    ])
    @pytest.mark.parametrize("kill_writer", [0, 1])
    def test_kill_after_decision_still_commits_everywhere(
        self, tmp_path, point, kill_writer
    ):
        """Once the decision record is durable the transaction commits on
        every stripe: live writers apply immediately, the dead writer's
        apply is deferred to promotion (which resolves the stashed
        prepare from the decision record)."""
        sdb = self._sharded(tmp_path)
        sdb.execute(both, 1, 1)
        sdb.faults = TwoPhaseFaults(
            kill_primary_at=point, kill_writer=kill_writer
        )
        sdb.execute(both, 2, 2)  # succeeds: the decision was durable
        zombies = sdb.faults.killed
        sdb.faults = None
        if zombies:  # outcome:1 after both applied may not need healing
            sdb.promote_shard(zombies[0].index)
            zombies[0].db.store.close()
        assert sdb.query(n_a) == 2
        assert sdb.query(n_b) == 2
        sdb.close()

    def test_recover_fences_out_pre_crash_zombies(self, tmp_path):
        """Whole-process recovery advances every shard's fence, so a
        zombie holding pre-crash store handles cannot append to journals
        the recovered process now owns."""
        sdb = ShardedDatabase(
            ab_schema(), shards=2, path=str(tmp_path),
            placement={"A": 0, "B": 1},
        )
        sdb.execute(put_a, 1, 1)
        shard = sdb.plan.shard_of("A")
        zombie = sdb.kill_shard(shard)

        sdb2, _ = ShardedDatabase.recover(
            ab_schema(), str(tmp_path), placement={"A": 0, "B": 1}
        )
        with pytest.raises(Fenced):
            zombie.db.store.log_commit(
                zombie.db.current, zombie.db.current, label="zombie",
            )
        assert sdb2.query(n_a) == 1
        zombie.db.store.close()
        sdb.close()
        sdb2.close()

    def test_promotion_reseeds_a_standby_for_the_next_failure(
        self, tmp_path
    ):
        """Failover twice in a row: the standby re-seeded from the first
        promotion's checkpoint carries the second one."""
        sdb = self._sharded(tmp_path)
        shard = sdb.plan.shard_of("A")
        sdb.execute(put_a, 1, 1)
        z1 = sdb.kill_shard(shard)
        assert sdb.promote_shard(shard) is not None
        sdb.execute(put_a, 2, 2)
        z2 = sdb.kill_shard(shard)
        assert sdb.promote_shard(shard) is not None
        sdb.execute(put_a, 3, 3)
        assert sdb.query(n_a) == 3
        for z in (z1, z2):
            with pytest.raises(Fenced):
                z.db.store.log_commit(
                    z.db.current, z.db.current, label="zombie",
                )
            z.db.store.close()
        sdb.close()

    def test_failover_requires_a_durable_database(self):
        sdb = ShardedDatabase(ab_schema(), shards=2)
        with pytest.raises(ShardError):
            sdb.enable_failover()
        sdb.close()

    def test_unavailability_window_metric_is_observed(self, tmp_path):
        sdb = self._sharded(tmp_path)
        shard = sdb.plan.shard_of("A")
        sdb.execute(put_a, 1, 1)
        sdb.kill_shard(shard)
        for _ in range(3):
            sdb.failover_tick()
        rows = sdb.metrics.families().get(
            "repro_failover_unavailable_seconds", ()
        )
        assert rows and rows[0][1].count == 1
        kills = sdb.metrics.get(
            "repro_failover_kills_total", shard=str(shard)
        )
        assert kills is not None and kills.value == 1.0
        sdb.close()
