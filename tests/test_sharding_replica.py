"""WAL-shipped read replicas: staleness bounds, re-basing, atomicity."""

from __future__ import annotations

import pytest

from repro.db.schema import Schema
from repro.engine import Database
from repro.errors import ReplicaLagExceeded
from repro.logic import builder as b
from repro.sharding import Replica, ShardedDatabase, TwoPhaseFaults
from repro.transactions.program import query, transaction

x, y = b.atom_var("x"), b.atom_var("y")
put = transaction("put", (x, y), b.insert(b.mktuple(x, y), "KV"))
n_rows = query("n-rows", (), b.size_of(b.rel("KV", 2)))


def kv_schema() -> Schema:
    schema = Schema()
    schema.add_relation("KV", ("k", "v"))
    return schema


def primary(path, **kwargs) -> Database:
    db = Database(kv_schema())
    db.durable(str(path), **kwargs)
    return db


class TestTailing:
    def test_replica_catches_up_on_poll(self, tmp_path):
        db = primary(tmp_path)
        for i in range(3):
            db.execute(put, i, i)
        replica = Replica(str(tmp_path))
        assert replica.lag() == 0
        assert replica.query(n_rows) == 3
        # New primary commits appear after the next poll, not before.
        db.execute(put, 9, 9)
        assert replica.lag() == 1
        assert replica.query(n_rows) == 4  # query() polls first

    def test_stale_reads_within_bound_are_served(self, tmp_path):
        db = primary(tmp_path)
        db.execute(put, 1, 1)
        replica = Replica(str(tmp_path), max_lag=1024)
        assert replica.query(n_rows) == 1

    def test_lag_bound_refusal_is_typed_and_carries_watermarks(
        self, tmp_path
    ):
        """A record the replica cannot yet apply (a sequence gap, as left
        by in-flight shipping) is durable lag a poll cannot clear: queries
        with a tight bound must refuse, typed, with both watermarks."""
        from repro.storage.journal import Journal, JournalRecord
        from repro.storage.store import JOURNAL_NAME

        db = primary(tmp_path)
        db.execute(put, 0, 0)
        replica = Replica(str(tmp_path))
        assert replica.query(n_rows) == 1

        gap = JournalRecord(
            seq=replica.applied_seq + 5,
            label="shipped-ahead",
            program=None,
            args=(),
            snapshot_version=None,
            delta={},
            post_digest="",
            kind="commit",
            txid=None,
        )
        writer = Journal(tmp_path / JOURNAL_NAME)
        writer.append(gap)
        writer.close()

        with pytest.raises(ReplicaLagExceeded) as excinfo:
            replica.query(n_rows, max_lag=0)
        err = excinfo.value
        assert err.max_lag == 0
        assert err.primary - err.applied >= 1
        assert str(err.primary - err.applied) in str(err)
        # A looser bound still serves the consistent prefix.
        assert replica.query(n_rows, max_lag=8) == 1

    def test_max_lag_zero_serves_when_fully_caught_up(self, tmp_path):
        db = primary(tmp_path)
        db.execute(put, 1, 1)
        replica = Replica(str(tmp_path), max_lag=0)
        assert replica.query(n_rows) == 1


class TestRebase:
    def test_replica_rebase_after_checkpoint_truncation(self, tmp_path):
        """A replica that falls behind a checkpoint-truncated journal must
        re-base from the newest snapshot instead of serving a gap."""
        db = primary(tmp_path, checkpoint_every=4)
        db.execute(put, 0, 0)
        replica = Replica(str(tmp_path))
        assert replica.query(n_rows) == 1
        # Drive far past several checkpoints so old journal prefixes the
        # replica never saw are truncated away.
        for i in range(1, 20):
            db.execute(put, i, i)
        assert replica.query(n_rows) == 20

    def test_fresh_replica_starts_from_snapshot(self, tmp_path):
        db = primary(tmp_path, checkpoint_every=4)
        for i in range(10):
            db.execute(put, i, i)
        replica = Replica(str(tmp_path))
        assert replica.query(n_rows) == 10


class TestShardReplica:
    def test_replica_tails_one_shard_of_a_sharded_database(self, tmp_path):
        schema = Schema()
        schema.add_relation("A", ("k", "v"))
        schema.add_relation("B", ("k", "v"))
        sdb = ShardedDatabase(
            schema, shards=2, path=str(tmp_path),
            placement={"A": 0, "B": 1},
        )
        put_a = transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "A"))
        n_a = query("n-a", (), b.size_of(b.rel("A", 2)))
        for i in range(4):
            sdb.execute(put_a, i, i)
        shard = sdb.plan.shard_of("A")
        replica = Replica(str(tmp_path / f"shard-{shard}"))
        assert replica.query(n_a) == 4
        sdb.close()

    def test_replica_never_serves_an_unresolved_prepare(self, tmp_path):
        """A pending PREPARE is not a commit: the replica must keep serving
        the pre-transaction state until the outcome record arrives."""
        schema = Schema()
        schema.add_relation("A", ("k", "v"))
        schema.add_relation("B", ("k", "v"))
        sdb = ShardedDatabase(
            schema, shards=2, path=str(tmp_path),
            placement={"A": 0, "B": 1},
        )
        both = transaction(
            "both",
            (x, y),
            b.seq(
                b.insert(b.mktuple(x, y), "A"),
                b.insert(b.mktuple(x, y), "B"),
            ),
        )
        n_a = query("n-a", (), b.size_of(b.rel("A", 2)))
        shard = sdb.plan.shard_of("A")

        from repro.errors import InDoubt

        sdb.faults = TwoPhaseFaults(crash_at="before-decision")
        with pytest.raises(InDoubt):
            sdb.execute(both, 1, 1)
        sdb.close()

        # The shard journal now ends in a PREPARE with no outcome.
        replica = Replica(str(tmp_path / f"shard-{shard}"))
        assert replica.query(n_a) == 0

        sdb2, _ = ShardedDatabase.recover(
            schema, str(tmp_path), placement={"A": 0, "B": 1}
        )
        # Recovery aborted it (presumed abort); the outcome record tells
        # the replica to drop the stashed prepare.
        assert replica.query(n_a) == 0
        sdb2.execute(both, 2, 2)
        assert replica.query(n_a) == 1
        sdb2.close()

    def test_second_replica_rebases_across_promotion_truncation(
        self, tmp_path
    ):
        """A follower that polls while a sibling's promotion checkpoints
        (truncating the journal into the *new* epoch) must re-base cleanly
        from the promotion snapshot — and must never serve the
        pre-promotion PREPARE it had stashed."""
        schema = Schema()
        schema.add_relation("A", ("k", "v"))
        schema.add_relation("B", ("k", "v"))
        sdb = ShardedDatabase(
            schema, shards=2, path=str(tmp_path),
            placement={"A": 0, "B": 1},
        )
        both = transaction(
            "both",
            (x, y),
            b.seq(
                b.insert(b.mktuple(x, y), "A"),
                b.insert(b.mktuple(x, y), "B"),
            ),
        )
        n_a = query("n-a", (), b.size_of(b.rel("A", 2)))
        shard = sdb.plan.shard_of("A")
        sdb.execute(both, 1, 1)

        follower = Replica(str(tmp_path / f"shard-{shard}"))
        assert follower.query(n_a) == 1

        from repro.errors import InDoubt

        sdb.faults = TwoPhaseFaults(crash_at="before-decision")
        with pytest.raises(InDoubt):
            sdb.execute(both, 2, 2)
        sdb.close()

        follower.poll()  # the follower stashes the dangling PREPARE
        assert follower.pending()

        # A sibling replica promotes: fence, drain, presumed abort,
        # checkpoint — the journal is truncated into the new epoch.
        promotion = Replica(str(tmp_path / f"shard-{shard}")).promote()
        assert promotion.epoch == 2
        promotion.store.log_commit(
            promotion.state, promotion.state, label="post-promotion",
        )

        # The racing follower's next poll re-bases from the promotion
        # snapshot; the stashed pre-promotion prepare is gone, never
        # served, and the aborted write never appears.
        assert follower.query(n_a) == 1
        assert not follower.pending()
        assert follower.journal_epoch == promotion.epoch
        promotion.store.close()

    def test_replica_applies_committed_two_phase_outcome(self, tmp_path):
        schema = Schema()
        schema.add_relation("A", ("k", "v"))
        schema.add_relation("B", ("k", "v"))
        sdb = ShardedDatabase(
            schema, shards=2, path=str(tmp_path),
            placement={"A": 0, "B": 1},
        )
        both = transaction(
            "both",
            (x, y),
            b.seq(
                b.insert(b.mktuple(x, y), "A"),
                b.insert(b.mktuple(x, y), "B"),
            ),
        )
        n_a = query("n-a", (), b.size_of(b.rel("A", 2)))
        shard = sdb.plan.shard_of("A")
        replica = Replica(str(tmp_path / f"shard-{shard}"))
        sdb.execute(both, 1, 1)
        sdb.execute(both, 2, 2)
        assert replica.query(n_a) == 2
        sdb.close()
