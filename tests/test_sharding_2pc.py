"""Two-phase commit under exhaustive fault injection.

Every crash point inside the 2PC window is exercised: the client sees a
typed :class:`~repro.errors.InDoubt`, and recovery resolves the in-doubt
transaction on every shard consistently with the coordinator's durable
decision record — commit after the decision fsync, presumed abort before.
"""

from __future__ import annotations

import os

import pytest

from repro.db.schema import Schema
from repro.errors import InDoubt, ShardError
from repro.logic import builder as b
from repro.sharding import (
    Coordinator,
    ShardedDatabase,
    TwoPhaseFaults,
    resolve_in_doubt,
)
from repro.storage.journal import read_journal
from repro.transactions.program import query, transaction

x, y = b.atom_var("x"), b.atom_var("y")

# CI's crash-recovery matrix runs this suite under both sync policies: the
# PREPARE and OUTCOME records must recover whether appends are fsynced or
# OS-buffered.
SYNC = os.environ.get("REPRO_SYNC_POLICY", "commit")


def two_stripe_schema() -> Schema:
    schema = Schema()
    schema.add_relation("USERS", ("uid", "name"))
    schema.add_relation("EVENTS", ("uid", "what"))
    return schema


signup = transaction(
    "signup",
    (x, y),
    b.seq(
        b.insert(b.mktuple(x, y), "USERS"),
        b.insert(b.mktuple(x, b.atom("created")), "EVENTS"),
    ),
)
put_user = transaction(
    "put-user", (x, y), b.insert(b.mktuple(x, y), "USERS")
)
# Writes USERS (shard 0) after reading EVENTS (shard 1): a 2PC commit with
# one writer and one participant that only reads.
guarded_put = transaction(
    "guarded-put",
    (x, y),
    b.ifthen(
        b.lt(b.size_of(b.rel("EVENTS", 2)), b.atom(100)),
        b.insert(b.mktuple(x, y), "USERS"),
    ),
)
n_users = query("n-users", (), b.size_of(b.rel("USERS", 2)))
n_events = query("n-events", (), b.size_of(b.rel("EVENTS", 2)))

#: Crash points and the fate recovery must assign: before the decision
#: record hits disk the transaction is presumed aborted; after, committed.
CRASH_MATRIX = [
    ("prepare:0", "abort"),
    ("prepare:1", "abort"),
    ("before-decision", "abort"),
    ("after-decision", "commit"),
    ("outcome:0", "commit"),
    ("outcome:1", "commit"),
]


def fresh_db(path, **kwargs):
    kwargs.setdefault("sync", SYNC)
    sdb = ShardedDatabase(
        two_stripe_schema(),
        shards=2,
        path=str(path),
        placement={"USERS": 0, "EVENTS": 1},
        **kwargs,
    )
    assert sdb.plan.shard_of("USERS") != sdb.plan.shard_of("EVENTS")
    return sdb


def journal(sdb, index):
    """Shard ``index``'s journal records, read through its engine's store."""
    return read_journal(sdb.shards[index].db.store.journal_path).records


class TestCrashMatrix:
    @pytest.mark.parametrize("point,fate", CRASH_MATRIX)
    def test_crash_then_recover_resolves_consistently(
        self, tmp_path, point, fate
    ):
        sdb = fresh_db(tmp_path)
        sdb.execute(put_user, 0, 0)  # a baseline committed row
        sdb.faults = TwoPhaseFaults(crash_at=point)
        with pytest.raises(InDoubt) as excinfo:
            sdb.execute(signup, 1, 1)
        err = excinfo.value
        assert err.point == point
        assert err.decided == (fate == "commit")
        sdb.close()

        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        if point.startswith("outcome:1") or not report.resolutions:
            # Both outcomes may already be durable — nothing in doubt.
            pass
        else:
            assert all(r.decision == fate for r in report.resolutions)
        if fate == "commit":
            assert sdb2.query(n_users) == 2
            assert sdb2.query(n_events) == 1
        else:
            assert sdb2.query(n_users) == 1
            assert sdb2.query(n_events) == 0
        sdb2.close()

    @pytest.mark.parametrize("point,fate", CRASH_MATRIX)
    def test_recovered_database_accepts_new_work(self, tmp_path, point, fate):
        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at=point)
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        sdb.close()
        sdb2, _ = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        base = 1 if fate == "commit" else 0
        sdb2.execute(signup, 2, 2)
        assert sdb2.query(n_users) == base + 1
        assert sdb2.query(n_events) == base + 1
        sdb2.close()

    def test_crash_after_crash_refuses_further_work(self, tmp_path):
        """A crashed instance is poisoned: it must refuse new transactions
        rather than run on top of an unresolved 2PC window."""
        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at="before-decision")
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        with pytest.raises(ShardError):
            sdb.execute(put_user, 2, 2)
        sdb.close()


class TestRecoveryDetails:
    def test_recovery_survives_double_restart(self, tmp_path):
        """Resolving an in-doubt txn must itself be durable: a second
        recovery finds nothing pending and the same state."""
        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at="after-decision")
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        sdb.close()
        sdb2, rep1 = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        users = sdb2.query(n_users)
        sdb2.close()
        sdb3, rep2 = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        assert rep2.resolutions == ()
        assert rep2.clean
        assert sdb3.query(n_users) == users == 1
        sdb3.close()

    def test_forced_abort_is_typed_and_leaves_no_trace(self, tmp_path):
        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(abort_txn=True)
        with pytest.raises(ShardError):
            sdb.execute(signup, 1, 1)
        sdb.faults = None
        assert sdb.query(n_users) == 0
        assert sdb.query(n_events) == 0
        # The instance is still healthy — the abort was clean, not a crash.
        sdb.execute(signup, 2, 2)
        assert sdb.query(n_users) == 1
        sdb.close()

    def test_torn_decision_record_presumes_abort(self, tmp_path):
        """If the decision journal is torn mid-frame, the decision record
        is gone; with no applied outcome as witness, recovery must presume
        abort on every shard (never a half-commit)."""
        from repro.testing.chaos_sharding import _tear_decision_journal

        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at="after-decision")
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        sdb.close()
        assert _tear_decision_journal(str(tmp_path))
        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        assert report.resolutions
        assert all(r.decision == "abort" for r in report.resolutions)
        # The first shard resolved presumes abort and re-records the
        # decision durably; later shards then legitimately cite it.
        assert any("presumed abort" in r.why for r in report.resolutions)
        assert sdb2.query(n_users) == 0
        assert sdb2.query(n_events) == 0
        sdb2.close()

    def test_sibling_outcome_outvotes_torn_decision(self, tmp_path):
        """Crash between the two outcome applies: shard 0's applied outcome
        survives in its journal.  Even with the decision record torn away,
        recovery must commit shard 1 too — the sibling outcome is the
        witness that the decision was durable."""
        from repro.testing.chaos_sharding import _tear_decision_journal

        sdb = fresh_db(tmp_path)
        sdb.faults = TwoPhaseFaults(crash_at="outcome:1")
        with pytest.raises(InDoubt):
            sdb.execute(signup, 1, 1)
        sdb.close()
        _tear_decision_journal(str(tmp_path))
        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        assert sdb2.query(n_users) == 1
        assert sdb2.query(n_events) == 1
        for res in report.resolutions:
            assert res.decision == "commit"
        sdb2.close()


class TestCoordinator:
    def test_decisions_survive_reopen_with_new_epoch(self, tmp_path):
        c1 = Coordinator(str(tmp_path))
        t = c1.next_txid("transfer")
        c1.decide(t, "commit", shards=(0, 1))
        c1.close()
        c2 = Coordinator(str(tmp_path))
        assert c2.decision_for(t) == "commit"
        assert c2.epoch > c1.epoch
        # Fresh txids never collide with the old epoch's.
        assert c2.next_txid("transfer") != t
        c2.close()

    def test_contradictory_redecision_refused(self, tmp_path):
        c = Coordinator(str(tmp_path))
        t = c.next_txid("t")
        c.decide(t, "commit")
        c.decide(t, "commit")  # idempotent re-decide is fine
        with pytest.raises(ShardError):
            c.decide(t, "abort")
        c.close()

    def test_resolution_priority(self):
        assert resolve_in_doubt("t", {"t": "commit"}, {})[0] == "commit"
        assert resolve_in_doubt("t", {"t": "abort"}, {"t": "commit"})[0] == (
            "abort"
        )
        assert resolve_in_doubt("t", {}, {"t": "commit"})[0] == "commit"
        decision, why = resolve_in_doubt("t", {}, {})
        assert decision == "abort"
        assert "presumed" in why


class TestDurableSingleShard:
    def test_single_shard_commits_are_journaled_per_shard(self, tmp_path):
        sdb = fresh_db(tmp_path)
        sdb.execute(put_user, 1, 1)
        sdb.execute(put_user, 2, 2)
        sdb.close()
        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1},
        )
        assert report.clean
        assert sdb2.query(n_users) == 2
        sdb2.close()

    def test_no_decision_journal_traffic_for_single_shard(self, tmp_path):
        from repro.sharding.twopc import DECISIONS_NAME

        sdb = fresh_db(tmp_path)
        for i in range(5):
            sdb.execute(put_user, i, i)
        sdb.close()
        journal = os.path.join(str(tmp_path), "coordinator", DECISIONS_NAME)
        from repro.storage.journal import read_journal

        scan = read_journal(journal)
        kinds = {r.kind for r in scan.records}
        # Only the epoch marker — zero decisions, zero coordination.
        assert "decision" not in kinds


class TestShardJournal:
    """A durable shard's journal is its engine's store: the store numbers
    every record, the engine journals each commit, and the router writes
    only PREPAREs (and abort OUTCOMEs) to the same store."""

    def test_store_is_the_shard_directory_after_recover_and_promote(
        self, tmp_path
    ):
        expected = [str(tmp_path / f"shard-{i}") for i in range(2)]
        sdb = fresh_db(tmp_path)
        assert [s.db.store.path for s in sdb.shards] == expected
        sdb.execute(signup, 1, 1)
        sdb.close()
        sdb2, _ = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1}, sync=SYNC,
        )
        assert [s.db.store.path for s in sdb2.shards] == expected
        zombie = sdb2.kill_shard(0)
        promotion = sdb2.promote_shard(0)
        assert sdb2.shards[0].db.store is promotion.store
        assert [s.db.store.path for s in sdb2.shards] == expected
        assert promotion.store.seq == promotion.seq
        sdb2.execute(put_user, 2, 2)
        assert journal(sdb2, 0)[-1].seq == promotion.seq + 1
        zombie.db.store.close()
        sdb2.close()

    def test_recover_cuts_a_torn_shard_tail_before_appending(self, tmp_path):
        """A shard whose journal tail is torn is cut back to its recovered
        prefix before recovery or new work appends to it."""
        sdb = fresh_db(tmp_path)
        for i in range(4):
            sdb.execute(put_user, i, i)
        path = sdb.shards[0].db.store.journal_path
        sdb.close()
        os.truncate(path, os.path.getsize(path) - 7)
        sdb2, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1}, sync=SYNC,
        )
        assert not report.shards[0].clean
        for i in range(3):
            sdb2.execute(put_user, 10 + i, i)
        assert sdb2.query(n_users) == 6
        sdb2.close()
        sdb3, report = ShardedDatabase.recover(
            two_stripe_schema(), str(tmp_path),
            placement={"USERS": 0, "EVENTS": 1}, sync=SYNC,
        )
        assert report.shards[0].clean and sdb3.query(n_users) == 6
        sdb3.close()

    def test_single_shard_commit_appends_one_commit_record(self, tmp_path):
        sdb = fresh_db(tmp_path)
        sdb.execute(signup, 1, 1)
        before = journal(sdb, 0)
        events = journal(sdb, 1)
        sdb.execute(put_user, 2, 2)
        appended = journal(sdb, 0)[len(before):]
        assert [r.kind for r in appended] == ["commit"]
        assert appended[0].seq == before[-1].seq + 1
        assert appended[0].seq == sdb.shards[0].db.store.seq
        assert journal(sdb, 1) == events
        sdb.close()

    def test_cross_shard_commit_appends_prepare_then_outcome(self, tmp_path):
        sdb = fresh_db(tmp_path)
        sdb.execute(put_user, 0, 0)
        heads = [sdb.shards[i].db.store.seq for i in range(2)]
        sdb.execute(signup, 1, 1)
        for i in range(2):
            appended = journal(sdb, i)[-2:]
            assert [r.kind for r in appended] == ["prepare", "outcome"]
            assert [r.seq for r in appended] == [heads[i] + 1, heads[i] + 2]
            assert appended[0].txid == appended[1].txid
            assert appended[1].delta["decision"] == "commit"
            assert sdb.shards[i].db.store.seq == heads[i] + 2
        sdb.close()

    def test_cross_shard_commit_journals_nothing_on_a_non_writer(
        self, tmp_path
    ):
        sdb = fresh_db(tmp_path)
        sdb.execute(signup, 0, 0)
        users, events = journal(sdb, 0), journal(sdb, 1)
        cross = sdb.stats()["cross_shard_commits"]
        sdb.execute(guarded_put, 1, 1)
        assert sdb.stats()["cross_shard_commits"] == cross + 1
        assert [r.kind for r in journal(sdb, 0)[len(users):]] == [
            "prepare", "outcome",
        ]
        assert journal(sdb, 1) == events
        assert sdb.query(n_users) == 2
        sdb.close()
