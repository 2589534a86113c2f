"""Recovery and a replica read the journal the same way.

``Store.recover()`` and ``Replica`` both fold the journal through one
``ReplayFold``: for every journal a crash, a flipped bit or a forged tail
can leave behind, the replica must hold exactly the prefix recovery
re-derives — the same sequence number, the same state, the same in-doubt
prepares.  Also here: the fence rule (a writer's epoch is never below one
its journal carries).
"""

from __future__ import annotations

import os

import pytest

from repro import Database, Schema, transaction
from repro.logic import builder as b
from repro.sharding import Replica
from repro.storage import Store, faults
from repro.storage.journal import Journal, JournalRecord, read_journal
from repro.storage.serialize import (
    apply_delta,
    delta_touched,
    state_delta,
    touched_digest,
)
from repro.storage.store import (
    FENCE_NAME,
    JOURNAL_NAME,
    prepare_digest,
    write_fence,
)

SYNC = os.environ.get("REPRO_SYNC_POLICY", "commit")

x, y = b.atom_var("x"), b.atom_var("y")
put = transaction("put", (x, y), b.insert(b.mktuple(x, y), "KV"))


def kv_schema() -> Schema:
    schema = Schema()
    schema.add_relation("KV", ("k", "v"))
    return schema


def exact(a, b) -> bool:
    """Content equality including the allocator (stronger than ==)."""
    return a == b and a.next_tid == b.next_tid


def assert_agree(path) -> None:
    recovery = Store(path).recover()
    replica = Replica(str(path))
    assert replica.applied_seq == recovery.seq
    assert exact(replica.state, recovery.state)
    assert replica.pending() == tuple(p.txid for p in recovery.pending)
    assert replica.journal_epoch == recovery.epoch


class Run:
    """A store written through the ``Store`` API: commits, a committed and
    an aborted two-phase transaction, an epoch change, and one prepare
    left in doubt at the end of the journal."""

    def __init__(self, path) -> None:
        self.path = path
        self.store = Store(path, checkpoint_every=1000, sync=SYNC)
        self.state = Database(kv_schema()).current
        self.seq = 0
        self.store.initialize(self.state)

    def commit(self, k, v) -> None:
        after = put.run(self.state, k, v)
        self.seq += 1
        self.store.log_commit(self.state, after, label="put")
        self.state = after

    def prepare(self, txid, k, v) -> JournalRecord:
        self.seq += 1
        return self.store.log_prepare(
            self.state, put.run(self.state, k, v),
            txid=txid, label="put",
        )

    def outcome(self, prep, decision) -> None:
        if decision == "commit":
            self.state = apply_delta(self.state, prep.delta)
        self.seq += 1
        self.store.log_outcome(self.state, prep, decision)

    def record(self, **fields) -> JournalRecord:
        """A well-formed record for the next sequence number (a commit
        unless ``fields`` say otherwise)."""
        after = put.run(self.state, "forged", 0)
        delta = state_delta(self.state, after)
        doc = dict(
            seq=self.seq + 1, label="forged", program=None, args=(),
            snapshot_version=None, delta=delta,
            post_digest=touched_digest(after, delta_touched(delta)),
            epoch=self.store.epoch,
        )
        doc.update(fields)
        if doc.get("kind") == "prepare":
            doc["post_digest"] = prepare_digest(doc["delta"])
        return JournalRecord(**doc)


@pytest.fixture()
def run(tmp_path):
    run = Run(tmp_path / "store")
    run.commit("a", 1)
    run.commit("b", 2)
    run.outcome(run.prepare("t1", "c", 3), "commit")
    run.commit("d", 4)
    run.store.advance_fence()  # epoch 2 from here on
    run.outcome(run.prepare("t2", "e", 5), "abort")
    run.commit("f", 6)
    run.prepare("t3", "g", 7)  # in doubt
    run.store.close()
    return run


def forged(run, tmp_path, *records):
    """A copy of the run's store with ``records`` appended to its journal."""
    copy = faults.crashed_copy(
        run.path, faults.journal_size(run.path), tmp_path / "forged"
    ).path
    writer = Journal(os.path.join(copy, JOURNAL_NAME))
    for record in records:
        writer.append(record)
    writer.close()
    return copy


class TestAgreement:
    def test_clean_journal(self, run):
        recovery = Store(run.path).recover()
        assert recovery.clean and recovery.seq == run.seq
        assert [p.txid for p in recovery.pending] == ["t3"]
        assert recovery.epoch == 2
        assert_agree(run.path)

    def test_every_crash_point(self, run, tmp_path):
        for fault in faults.iter_crashes(run.path, tmp_path / "crash"):
            assert_agree(fault.path)

    def test_bit_flips(self, run, tmp_path):
        bits = range(5, faults.journal_size(run.path) * 8, 97)
        flips = faults.iter_bit_flips(run.path, tmp_path / "flip", bits)
        for fault in flips:
            assert_agree(fault.path)


TAILS = {
    "duplicate-txid prepare": (
        lambda run: run.record(kind="prepare", txid="t3"),
        "prepare with duplicate txid",
    ),
    "malformed delta": (
        lambda run: run.record(delta={"changes": {"KV": {"ins": 7}}}),
        "delta unreplayable",
    ),
    "orphan outcome": (
        lambda run: run.record(
            kind="outcome", txid="ghost", delta={"decision": "commit"}
        ),
        "outcome without a pending prepare",
    ),
    "unknown decision": (
        lambda run: run.record(
            kind="outcome", txid="t3", delta={"decision": "maybe"}
        ),
        "unknown decision",
    ),
    "unknown kind": (
        lambda run: run.record(kind="checkpoint"),
        "unknown kind",
    ),
    "zombie epoch": (
        lambda run: run.record(epoch=None),
        "deposed epoch 1 after epoch 2",
    ),
    "sequence gap": (
        lambda run: run.record(seq=run.seq + 2),
        "sequence gap",
    ),
}


@pytest.mark.parametrize("tail", sorted(TAILS))
def test_forged_tail_stops_both_at_the_same_prefix(run, tmp_path, tail):
    make, reason = TAILS[tail]
    copy = forged(run, tmp_path, make(run))
    recovery = Store(copy).recover()
    assert not recovery.clean
    assert reason in recovery.reason
    assert recovery.seq == run.seq
    assert_agree(copy)


def test_replica_holds_at_a_forged_tail_across_polls(run, tmp_path):
    """A record the fold refuses stays refused: later polls do not skip
    past it, exactly as every later recovery stops before it."""
    copy = forged(run, tmp_path, run.record(kind="checkpoint"))
    replica = Replica(copy)
    assert replica.poll() == 0
    assert replica.applied_seq == run.seq
    assert replica.lag() == 1


def test_advance_fence_never_goes_below_the_journal_epoch(tmp_path):
    """A store committed at fence 3 whose fence file is then lost (a
    shipped copy): the next writer must not stamp an epoch below 3, or
    recovery would refuse its commit as a deposed primary's."""
    path = tmp_path / "store"
    os.makedirs(path)
    write_fence(path, 3)
    db = Database(kv_schema())
    db.durable(path, sync=SYNC)
    db.execute(put, "a", 1)
    db.close()
    assert read_journal(path / JOURNAL_NAME).records[-1].epoch == 3

    os.remove(path / FENCE_NAME)
    assert Store(path).advance_fence() == 4

    db, _ = Database.from_store(kv_schema(), path, sync=SYNC)
    final = db.execute(put, "b", 2)
    db.close()
    recovery = Store(path).recover()
    assert recovery.clean, recovery.reason
    assert recovery.seq == 2 and recovery.epoch == 4
    assert exact(recovery.state, final)
