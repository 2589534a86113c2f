"""Crash recovery: the prefix property under exhaustive fault injection.

The acceptance property for the durability subsystem: for a journaled
workload, killing the process at **every** journal byte prefix (which covers
every record boundary and every torn-write offset) and flipping bits inside
written frames, ``Store.recover()`` always returns a state equal to some
prefix of the committed run — and a clean shutdown recovers the exact final
state, allocator included.
"""

from __future__ import annotations

import os

import pytest

from repro import Database, Schema, transaction
from repro.concurrent.log import replay_states, states_equivalent
from repro.errors import ConstraintViolation, ReproError
from repro.logic import builder as b
from repro.storage import Store, state_digest
from repro.storage import faults
from repro.storage.store import JOURNAL_NAME


# CI's crash-recovery matrix runs this suite under both sync policies: the
# prefix property must hold whether appends are fsynced or OS-buffered.
SYNC = os.environ.get("REPRO_SYNC_POLICY", "commit")


def put_schema(relations: int = 2) -> Schema:
    schema = Schema()
    for i in range(relations):
        schema.add_relation(f"R{i}", ("k", "v"))
    return schema


def put_programs(relations: int = 2):
    x, y = b.atom_var("x"), b.atom_var("y")
    return [
        transaction(f"put{i}", (x, y), b.insert(b.mktuple(x, y), f"R{i}"))
        for i in range(relations)
    ]


def exact(a, b) -> bool:
    """Content equality including the allocator (stronger than ==)."""
    return a == b and a.next_tid == b.next_tid


@pytest.fixture()
def serial_run(tmp_path):
    """A serial durable workload; returns (store path, committed states)."""
    schema = put_schema()
    programs = put_programs()
    db = Database(schema, window=2)
    db.durable(tmp_path / "store", checkpoint_every=100, sync=SYNC)
    states = [db.current]
    for i in range(8):
        states.append(db.execute(programs[i % 2], f"k{i}", i))
    db.close()
    return tmp_path / "store", states


class TestCrashInjection:
    def test_every_byte_prefix_recovers_a_committed_prefix(
        self, serial_run, tmp_path
    ):
        """Exhaustive: one simulated kill per journal byte offset."""
        store_path, states = serial_run
        digests = [state_digest(s) for s in states]
        boundaries = set(faults.record_boundaries(store_path))
        seen_seqs = set()
        for fault in faults.iter_crashes(
            store_path, tmp_path / "crashes", stride=1
        ):
            recovery = fault.store().recover()
            assert 0 <= recovery.seq < len(states)
            assert exact(recovery.state, states[recovery.seq]), fault.offset
            assert state_digest(recovery.state) == digests[recovery.seq]
            # A kill exactly on a record boundary is a clean journal; a torn
            # offset is detected and reported.  Offset 0 is the zero-length
            # file the writer leaves before the header reaches disk — an
            # *empty* journal, not a torn one.
            assert recovery.clean == (
                fault.offset in boundaries or fault.offset == 0
            )
            seen_seqs.add(recovery.seq)
        # Every prefix length was actually exercised.
        assert seen_seqs == set(range(len(states)))

    def test_torn_offsets_lose_at_most_the_torn_record(
        self, serial_run, tmp_path
    ):
        store_path, states = serial_run
        boundaries = faults.record_boundaries(store_path)
        for offset in faults.torn_points(store_path, stride=7):
            fault = faults.crashed_copy(store_path, offset, tmp_path / "torn")
            recovery = fault.store().recover()
            # boundaries[0] is the end of the file header; a kill before it
            # leaves zero replayable frames.
            complete_frames = max(0, sum(1 for p in boundaries if p <= offset) - 1)
            assert recovery.seq == complete_frames
            assert exact(recovery.state, states[recovery.seq])

    def test_bit_flips_never_escape_the_prefix_chain(
        self, serial_run, tmp_path
    ):
        store_path, states = serial_run
        size = faults.journal_size(store_path)
        for fault in faults.iter_bit_flips(
            store_path, tmp_path / "flips", range(3, size * 8, 251)
        ):
            recovery = fault.store().recover()
            assert exact(recovery.state, states[recovery.seq]), fault.offset

    def test_clean_shutdown_recovers_exact_final_state(self, serial_run):
        store_path, states = serial_run
        recovery = Store(store_path).recover()
        assert recovery.clean
        assert recovery.seq == len(states) - 1
        assert exact(recovery.state, states[-1])


class TestDegenerateStores:
    """The two edge shapes a crash can leave behind: a zero-length journal
    (the writer created the file but the header never hit disk) and a
    snapshot-only store (checkpoint truncation finished but the fresh
    journal never appeared)."""

    def test_zero_length_journal_recovers_clean(self, tmp_path, tiny_state):
        store = Store(tmp_path / "store")
        store.initialize(tiny_state)
        store.close()
        open(os.path.join(tmp_path / "store", JOURNAL_NAME), "wb").close()
        recovery = Store(tmp_path / "store").recover()
        assert recovery.clean
        assert recovery.seq == 0 and recovery.replayed == ()
        assert exact(recovery.state, tiny_state)

    def test_zero_length_journal_after_commits(self, serial_run, tmp_path):
        # A crash-truncated-to-zero journal after a checkpoint: recovery is
        # the checkpoint itself, reported clean (the journal is empty, not
        # torn).
        store_path, states = serial_run
        fault = faults.crashed_copy(store_path, 0, tmp_path / "zeroed")
        assert os.path.getsize(
            os.path.join(fault.path, JOURNAL_NAME)
        ) == 0
        recovery = fault.store().recover()
        assert recovery.clean and recovery.reason == "empty journal file"
        assert exact(recovery.state, states[recovery.seq])

    def test_snapshot_only_store_recovers_clean(self, serial_run):
        # Delete the journal entirely: exactly what checkpoint truncation's
        # rename window can leave. The newest snapshot is the whole truth.
        store_path, states = serial_run
        newest_seq, _ = Store(store_path).snapshot_files()[0]
        os.remove(os.path.join(store_path, JOURNAL_NAME))
        recovery = Store(store_path).recover()
        assert recovery.clean
        assert recovery.seq == newest_seq and recovery.replayed == ()
        assert exact(recovery.state, states[newest_seq])

    def test_fresh_initialized_store_recovers_clean(self, tmp_path, tiny_state):
        store = Store(tmp_path / "store")
        store.initialize(tiny_state)
        recovery = Store(tmp_path / "store").recover()
        assert recovery.clean and recovery.seq == 0
        assert exact(recovery.state, tiny_state)


class TestCheckpointRecovery:
    def test_checkpoints_truncate_and_recover(self, tmp_path):
        schema = put_schema()
        programs = put_programs()
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", checkpoint_every=3, sync=SYNC)
        states = [db.current]
        for i in range(10):
            states.append(db.execute(programs[i % 2], f"k{i}", i))
        db.close()
        store = Store(tmp_path / "store", checkpoint_every=3)
        # Journal only holds the records after the last checkpoint (seq 9).
        from repro.storage.journal import read_journal

        tail = read_journal(store.journal_path).records
        assert [r.seq for r in tail] == [10]
        recovery = store.recover()
        assert recovery.snapshot_seq == 9 and recovery.seq == 10
        assert exact(recovery.state, states[-1])

    def test_corrupt_latest_snapshot_falls_back(self, tmp_path):
        schema = put_schema()
        programs = put_programs()
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", checkpoint_every=4, sync=SYNC)
        states = [db.current]
        for i in range(9):
            states.append(db.execute(programs[i % 2], f"k{i}", i))
        db.close()
        store = Store(tmp_path / "store")
        (newest_seq, newest_path), *_ = store.snapshot_files()
        fault = faults.flip_bit(
            tmp_path / "store",
            200 * 8,
            tmp_path / "snapfault",
            filename=f"snap-{newest_seq:012d}.ckpt",
        )
        recovery = fault.store().recover()
        # Fallback to the older snapshot; the truncated journal cannot bridge
        # the gap, so recovery reports the shortened prefix honestly.
        assert not recovery.clean
        assert recovery.seq < newest_seq or exact(
            recovery.state, states[recovery.seq]
        )
        assert exact(recovery.state, states[recovery.seq])

    def test_all_snapshots_corrupt_raises(self, tmp_path):
        schema = put_schema()
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", sync=SYNC)
        db.close()
        store_path = tmp_path / "store"
        fault = faults.flip_bit(
            store_path, 150 * 8, tmp_path / "dead",
            filename="snap-000000000000.ckpt",
        )
        with pytest.raises(ReproError):
            fault.store().recover()


class TestConcurrentDurability:
    def test_concurrent_workload_journal_matches_commit_log(self, tmp_path):
        """Journaled through TransactionManager: every crash point recovers
        a state equivalent to a prefix of the committed records' serial
        replay."""
        schema = put_schema(4)
        programs = put_programs(4)
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", checkpoint_every=100, sync=SYNC)
        with db.concurrent(workers=4, seed=11) as mgr:
            outcomes = mgr.run_all(
                [(programs[i % 4], i, i) for i in range(16)],
                think_time=0.001,
            )
            assert all(o.ok for o in outcomes)
            committed = sorted((o.record for o in outcomes), key=lambda r: r.seq)
            replayed = replay_states(
                mgr.initial,
                committed,
                interpreter=db.interpreter,
                encodings=db.encodings,
            )
        db.close()
        # The journal's logical layer mirrors the serial commit order.
        from repro.storage.journal import read_journal

        records = read_journal(
            Store(tmp_path / "store").journal_path
        ).records
        assert [r.label for r in records] == [rec.label for rec in committed]
        assert [r.seq for r in records] == [rec.seq for rec in committed]
        # Crash at record boundaries plus sampled torn offsets.
        offsets = set(faults.record_boundaries(tmp_path / "store"))
        offsets.update(faults.torn_points(tmp_path / "store", stride=31))
        for offset in sorted(offsets):
            fault = faults.crashed_copy(
                tmp_path / "store", offset, tmp_path / "crashes"
            )
            recovery = fault.store().recover()
            assert states_equivalent(
                mgr.initial, recovery.state, replayed[recovery.seq]
            ), offset
        final = Store(tmp_path / "store").recover()
        assert exact(final.state, db.current)

    def test_constraint_violation_never_reaches_disk(self, tmp_path, domain):
        domain.install_constraints()
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        db.durable(tmp_path / "store", sync=SYNC)
        before = db.current
        with pytest.raises(ConstraintViolation):
            db.execute(domain.hire, "zed", "cs", 100, 30, "S")
        db.close()
        recovery = Store(tmp_path / "store").recover()
        assert recovery.seq == 0 and recovery.state == before


class TestAttachResume:
    def test_from_store_resumes_sequence(self, tmp_path):
        schema = put_schema()
        programs = put_programs()
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", checkpoint_every=3, sync=SYNC)
        for i in range(5):
            db.execute(programs[i % 2], f"k{i}", i)
        db.close()
        db2, recovery = Database.from_store(
            schema, tmp_path / "store", window=2, checkpoint_every=3
        )
        assert recovery.seq == 5 and exact(db2.current, db.current)
        db2.execute(programs[0], "late", 99)
        db2.close()
        resumed = Store(tmp_path / "store").recover()
        assert resumed.seq == 6
        assert exact(resumed.state, db2.current)

    def test_a_resumed_writer_cuts_a_torn_tail_before_appending(self, tmp_path):
        """A writer resumed over a torn journal tail cuts it first: every
        commit acknowledged after the resume survives the next recovery.
        A plain ``recover`` reads only."""
        schema = put_schema()
        programs = put_programs()
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", checkpoint_every=100, sync=SYNC)
        for i in range(5):
            db.execute(programs[i % 2], f"k{i}", i)
        db.close()
        journal = tmp_path / "store" / JOURNAL_NAME
        os.truncate(journal, os.path.getsize(journal) - 7)
        torn = os.path.getsize(journal)
        assert not Store(tmp_path / "store").recover().clean
        assert os.path.getsize(journal) == torn
        db2, recovery = Database.from_store(
            schema, tmp_path / "store", window=2, checkpoint_every=100, sync=SYNC
        )
        assert recovery.seq == 4 and not recovery.clean
        for i in range(3):
            db2.execute(programs[0], f"late{i}", i)
        db2.close()
        resumed = Store(tmp_path / "store").recover()
        assert resumed.clean and resumed.seq == 7
        assert exact(resumed.state, db2.current)

    def test_durable_rejects_mismatched_store(self, tmp_path):
        schema = put_schema()
        programs = put_programs()
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", sync=SYNC)
        db.execute(programs[0], "k", 1)
        db.close()
        fresh = Database(schema, window=2)
        with pytest.raises(ReproError):
            fresh.durable(tmp_path / "store")

    def test_initialize_twice_rejected(self, tmp_path, tiny_state):
        store = Store(tmp_path / "store")
        store.initialize(tiny_state)
        with pytest.raises(ReproError):
            store.initialize(tiny_state)
        store.close()


class TestStoreNumbersRecords:
    """The store is the run's one numberer: its writers take no sequence
    number, and ``Store.seq`` is always the newest journaled record's."""

    def test_seq_follows_initialize_appends_and_recover(self, tmp_path):
        schema = put_schema()
        put = put_programs()[0]
        store = Store(tmp_path / "store", checkpoint_every=100, sync=SYNC)
        state = Database(schema).current
        store.initialize(state)
        assert store.seq == 0
        after = put.run(state, "a", 1)
        record = store.log_commit(state, after, label="put")
        assert record.seq == store.seq == 1
        staged = put.run(after, "b", 2)
        prepare = store.log_prepare(after, staged, txid="t1", label="put")
        assert prepare.seq == store.seq == 2
        outcome = store.log_outcome(staged, prepare, "commit")
        assert outcome.seq == store.seq == 3
        store.close()

        reopened = Store(tmp_path / "store", sync=SYNC)
        recovery = reopened.recover()
        assert recovery.seq == reopened.seq == 3
        assert exact(recovery.state, staged)
        nxt = reopened.log_commit(staged, put.run(staged, "c", 3), label="put")
        assert nxt.seq == 4
        reopened.close()
        assert Store(tmp_path / "store").recover().seq == 4

    def test_cadence_never_checkpoints_over_a_pending_prepare(self, tmp_path):
        """Due on every record, the cadence still waits until no PREPARE
        is pending: a snapshot would truncate the other one's record."""
        schema = put_schema()
        put = put_programs()[0]
        store = Store(tmp_path / "store", checkpoint_every=1, sync=SYNC)
        state = Database(schema).current
        store.initialize(state)
        p1 = store.log_prepare(state, put.run(state, "a", 1), txid="t1",
                               label="put")
        p2 = store.log_prepare(state, put.run(state, "b", 2), txid="t2",
                               label="put")
        store.log_outcome(state, p1, "abort")
        assert [seq for seq, _ in store.snapshot_files()] == [0]
        store.log_outcome(state, p2, "abort")
        assert [seq for seq, _ in store.snapshot_files()][0] == 4
        store.close()
        recovery = Store(tmp_path / "store").recover()
        assert recovery.clean and recovery.seq == 4 and not recovery.pending

    def test_promoted_store_numbers_on_from_the_applied_prefix(
        self, tmp_path
    ):
        from repro.sharding.replica import Replica

        schema = put_schema()
        put = put_programs()[0]
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", sync=SYNC)
        for i in range(3):
            db.execute(put, f"k{i}", i)
        promotion = Replica(str(tmp_path / "store")).promote(sync=SYNC)
        assert promotion.seq == promotion.store.seq == 3
        after = put.run(promotion.state, "new", 9)
        record = promotion.store.log_commit(
            promotion.state, after, label="post-promotion"
        )
        assert record.seq == promotion.seq + 1
        promotion.store.close()
        db.close()
        fresh = Replica(str(tmp_path / "store"))
        assert fresh.applied_seq == promotion.seq + 1
        assert exact(fresh.state, after)
