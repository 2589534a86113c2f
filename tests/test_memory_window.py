"""Memory is O(window): a running database keeps the history window and its
newest commit record, never the whole run.

Each test makes 50 commits, holds only weak references to what they
produced, drops the outcomes and collects garbage.  What is still alive is
what the database (or the scheduler, or a shard) keeps:

* no :class:`~repro.concurrent.log.CommitRecord` — the scheduler keeps
  none; each record rides on its outcome;
* at most ``window`` of the committed states — the history window;
* one :class:`~repro.engine.ExecutionRecord` — ``Database.last_record``.

Records are tracked by swapping the record classes, where the engine, the
scheduler and the sharding layer look them up, for subclasses that register
a weak reference to every instance.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.concurrent.scheduler as scheduler_module
import repro.engine as engine_module
import repro.sharding.sharded as sharded_module
from repro import Database, Schema, transaction
from repro.concurrent.log import CommitRecord
from repro.engine import ExecutionRecord
from repro.logic import builder as b
from repro.sharding import ShardedDatabase

WINDOW = 2
COMMITS = 50


@pytest.fixture()
def schema():
    s = Schema()
    s.add_relation("A", ("k", "v"))
    s.add_relation("B", ("k", "v"))
    return s


@pytest.fixture()
def programs():
    x, y = b.atom_var("x"), b.atom_var("y")
    return {
        "put_a": transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "A")),
        "put_b": transaction("put-b", (x, y), b.insert(b.mktuple(x, y), "B")),
        # Two relations: a cross-shard (2PC) commit when A and B are apart.
        "put_ab": transaction(
            "put-ab",
            (x, y),
            b.seq(
                b.insert(b.mktuple(x, y), "A"),
                b.insert(b.mktuple(y, x), "B"),
            ),
        ),
    }


@pytest.fixture()
def tracked(monkeypatch):
    """Weak references to every CommitRecord / ExecutionRecord made."""
    made: dict[str, list[weakref.ref]] = {"commit": [], "execution": []}

    class TrackedCommitRecord(CommitRecord):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["commit"].append(weakref.ref(self))

    class TrackedExecutionRecord(ExecutionRecord):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["execution"].append(weakref.ref(self))

    monkeypatch.setattr(scheduler_module, "CommitRecord", TrackedCommitRecord)
    monkeypatch.setattr(sharded_module, "CommitRecord", TrackedCommitRecord)
    monkeypatch.setattr(engine_module, "ExecutionRecord", TrackedExecutionRecord)
    return made


def alive(refs) -> list:
    gc.collect()
    return [obj for ref in refs if (obj := ref()) is not None]


class TestSingleNode:
    def test_the_scheduler_keeps_no_commit_record_and_only_the_window(
        self, schema, programs, tracked
    ):
        db = Database(schema, window=WINDOW)
        states = []
        with db.concurrent(workers=1) as mgr:
            for i in range(COMMITS):
                outcome = mgr.execute(programs["put_a"], i, i)
                assert outcome.ok and outcome.record.seq == i + 1
                states.append(weakref.ref(outcome.state))
            del outcome
            assert len(tracked["commit"]) == COMMITS
            assert alive(tracked["commit"]) == []
            kept = alive(states)
            assert len(kept) <= WINDOW
            assert kept[-1] is db.current
            del kept
            (newest,) = alive(tracked["execution"])
            assert newest is db.last_record

    def test_execute_keeps_only_the_newest_execution_record(
        self, schema, programs, tracked
    ):
        db = Database(schema, window=WINDOW)
        states = []
        for i in range(COMMITS):
            states.append(weakref.ref(db.execute(programs["put_a"], i, i)))
        assert len(tracked["execution"]) == COMMITS
        newest = alive(tracked["execution"])
        assert len(newest) == 1 and newest[0] is db.last_record
        assert newest[0].label == "put-a"
        del newest
        assert len(alive(states)) <= WINDOW


    def test_a_proved_constraint_keeps_no_state_past_the_window(
        self, schema, programs
    ):
        """A constraint proved preserved by the only program run is checked
        at the first commit and skipped at every later one; the window plan
        that checked it holds its last window weakly, so no state outlives
        the history window."""
        from repro.constraints.model import Constraint

        s, t, x = b.state_var("s"), b.trans_var("t"), b.ftup_var("x", 2)
        b_rows_stay = Constraint(
            "b-rows-stay",
            b.forall([s, t, x], b.implies(
                b.holds(s, b.member(x, b.rel("B", 2))),
                b.holds(b.after(s, t), b.member(x, b.rel("B", 2))),
            )),
            declared_window=2,
        )
        schema.add_constraint(b_rows_stay)
        db = Database(schema, window=WINDOW)
        states = []
        for i in range(COMMITS):
            states.append(weakref.ref(db.execute(programs["put_a"], i, i)))
        assert db.interpreter.planner.exec_count > 0  # the first commit planned
        (skip,) = db.last_record.skipped
        assert skip.constraint is b_rows_stay and not db.last_record.results
        assert len(alive(states)) <= WINDOW


class TestShards:
    def test_each_shard_keeps_only_its_window_and_newest_record(
        self, schema, programs, tracked
    ):
        sdb = ShardedDatabase(
            schema, shards=2, window=WINDOW, placement={"A": 0, "B": 1}
        )
        per_shard: dict[int, list[weakref.ref]] = {0: [], 1: []}
        for i in range(COMMITS):
            program = programs[("put_a", "put_b", "put_ab")[i % 3]]
            outcome = sdb.execute_outcome(program, i, i)
            assert outcome.ok
            for shard in sdb.shards:
                refs = per_shard[shard.index]
                if not refs or refs[-1]() is not shard.db.current:
                    refs.append(weakref.ref(shard.db.current))
        del outcome
        assert tracked["commit"] and alive(tracked["commit"]) == []
        newest = alive(tracked["execution"])
        assert len(newest) == len(sdb.shards)
        assert sorted(map(id, newest)) == sorted(
            id(shard.db.last_record) for shard in sdb.shards
        )
        del newest
        for refs in per_shard.values():
            assert len(alive(refs)) <= WINDOW

    @pytest.mark.parametrize("single_first", [0, 1])
    def test_cross_shard_traffic_keeps_every_writer_journal_bounded(
        self, schema, programs, tmp_path, single_first
    ):
        """A cross-shard commit writes two records per writer (PREPARE,
        OUTCOME); the checkpoint cadence still fires, whether the writer's
        outcome seqs land even or odd."""
        from repro.storage.journal import read_journal
        from repro.storage.snapshot import snapshot_files

        placement = {"A": 0, "B": 1}
        sdb = ShardedDatabase(
            schema, shards=2, path=str(tmp_path), placement=placement,
            checkpoint_every=4,
        )
        for i in range(single_first):
            sdb.execute(programs["put_a"], 1000 + i, i)
        for i in range(40):
            sdb.execute(programs["put_ab"], i, i)
        for shard in sdb.shards:
            store = shard.db.store
            assert snapshot_files(store.path)[0][0] > 0
            assert len(read_journal(store.journal_path).records) < 8
        sdb.close()
        sdb2, report = ShardedDatabase.recover(
            schema, str(tmp_path), placement=placement, checkpoint_every=4
        )
        assert report.clean
        assert report.resolutions == ()
        assert all(not r.pending for r in report.shards)
        sdb2.close()
