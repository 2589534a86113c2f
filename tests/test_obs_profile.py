"""``Database.profile()``: per-transaction breakdowns and the exports."""

from __future__ import annotations

import json

import pytest

from repro import Database, Schema, query, transaction
from repro.logic import builder as b
from repro.obs import MetricsRegistry, Span, profile_from_json


@pytest.fixture()
def schema():
    s = Schema()
    s.add_relation("A", ("k", "v"))
    s.add_relation("B", ("k", "v"))
    return s


@pytest.fixture()
def programs():
    x, y = b.atom_var("x"), b.atom_var("y")
    t = b.ftup_var("t", 2)
    return {
        "put_a": transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "A")),
        "copy": transaction(
            "copy-a-to-b",
            (),
            b.foreach(t, b.member(t, b.rel("A", 2)), b.insert(t, "B")),
        ),
    }


class TestProfileBlock:
    def test_traces_every_executed_transaction(self, schema, programs):
        db = Database(schema, window=2)
        with db.profile() as prof:
            db.execute(programs["put_a"], 1, 10)
            db.execute(programs["put_a"], 2, 20)
            db.execute(programs["copy"])
        txns = prof.transactions()
        assert [t.label for t in txns] == ["put-a", "put-a", "copy-a-to-b"]
        assert all(t.root.kind == "transaction" for t in txns)
        # The copy touched both relations; foreach iterated per A-tuple.
        copy = txns[2]
        assert copy.touched() == ("A", "B")
        iters = [s for s in copy.root.walk() if s.kind == "foreach-iter"]
        assert len(iters) == 2
        assert copy.step_count() >= 4  # txn + foreach + iters + actions

    def test_profiling_never_changes_results(self, schema, programs):
        """Observation is never input: a profiled run of queries and
        commits answers and commits exactly what an unprofiled one does."""
        size_a = query("size-a", (), b.size_of(b.rel("A", 2)))

        def workload(db):
            answers = [db.query(size_a)]
            db.execute(programs["put_a"], 1, 10)
            answers.append(db.query(size_a))
            db.execute(programs["copy"])
            return answers + [db.query(size_a)]

        plain, traced = Database(schema, window=2), Database(schema, window=2)
        for db in (plain, traced):
            db.enable_planner()
        expected = workload(plain)
        with traced.profile():
            assert workload(traced) == expected == [0, 1, 1]
        assert traced.current.digest() == plain.current.digest()

    def test_tracer_detached_after_block(self, schema, programs):
        db = Database(schema, window=2)
        with db.profile() as prof:
            db.execute(programs["put_a"], 1, 10)
        assert db.interpreter.tracer is None
        db.execute(programs["put_a"], 2, 20)  # untraced
        assert len(prof.transactions()) == 1

    def test_nested_profile_restores_previous_tracer(self, schema, programs):
        db = Database(schema, window=2)
        with db.profile() as outer:
            db.execute(programs["put_a"], 1, 10)
            outer_tracer = db.interpreter.tracer
            with db.profile() as inner:
                db.execute(programs["put_a"], 2, 20)
            assert db.interpreter.tracer is outer_tracer
            db.execute(programs["put_a"], 3, 30)
        assert len(outer.transactions()) == 2
        assert len(inner.transactions()) == 1

    def test_breakdown_aggregates_self_time(self, schema, programs):
        db = Database(schema, window=2)
        with db.profile() as prof:
            db.execute(programs["put_a"], 1, 10)
            db.execute(programs["put_a"], 2, 20)
        rows = dict(
            (key, (total, hits))
            for key, total, hits in prof.breakdown()
        )
        assert rows["action:insert2"][1] == 2
        assert rows["transaction:put-a"][1] == 2
        assert all(total >= 0.0 for total, _ in rows.values())

    def test_render_mentions_transactions_and_hotspots(self, schema, programs):
        db = Database(schema, window=2)
        with db.profile() as prof:
            db.execute(programs["put_a"], 1, 10)
        text = prof.render()
        assert "profile breakdown" in text
        assert "put-a" in text and "action:insert2" in text

    def test_flame_rendering_indents_children(self, schema, programs):
        db = Database(schema, window=2)
        with db.profile() as prof:
            db.execute(programs["copy"])
        (txn,) = prof.transactions()
        flame = txn.flame()
        lines = flame.splitlines()
        assert lines[0].startswith("transaction copy-a-to-b")
        assert any(line.startswith("  foreach ") for line in lines)

    def test_max_spans_flows_through(self, schema, programs):
        db = Database(schema, window=2)
        db.execute(programs["put_a"], 1, 10)
        db.execute(programs["put_a"], 2, 20)
        with db.profile(max_spans=2) as prof:
            db.execute(programs["copy"])
        assert prof.tracer.span_count == 2
        assert prof.tracer.dropped > 0
        assert "dropped" in prof.render()


class TestProfileExport:
    def test_json_round_trip(self, schema, programs):
        db = Database(schema, window=2)
        with db.profile() as prof:
            db.execute(programs["put_a"], 1, 10)
            db.execute(programs["copy"])
        doc = profile_from_json(prof.to_json())
        roots = doc["trace"]["roots"]
        assert [r.label for r in roots] == ["put-a", "copy-a-to-b"]
        assert all(isinstance(r, Span) for r in roots)
        # The rebuilt spans carry the same structure the live tracer saw.
        live = [s.label for root in prof.tracer.roots() for s in root.walk()]
        rebuilt = [s.label for root in roots for s in root.walk()]
        assert rebuilt == live
        assert doc["breakdown"] == json.loads(prof.to_json())["breakdown"]

    def test_exposition_includes_scheduler_metrics(self, schema, programs):
        db = Database(schema, window=2)
        with db.profile() as prof:
            with db.concurrent(workers=2, seed=7) as mgr:
                outcomes = mgr.run_all(
                    [(programs["put_a"], i, i) for i in range(6)]
                )
            assert all(o.ok for o in outcomes)
        text = prof.exposition()
        assert "repro_commits_total 6" in text
        assert 'repro_txn_latency_seconds{quantile="0.5"}' in text
        # Worker threads traced into the same profile.
        assert len(prof.transactions()) == 6

    def test_profile_without_metrics_exports_empty(self):
        from repro.obs import Profile, Tracer

        prof = Profile(Tracer())
        assert prof.exposition() == ""
        assert json.loads(prof.to_json())["metrics"] == {}

    def test_durable_database_reports_journal_metrics(
        self, schema, programs, tmp_path
    ):
        db = Database(schema, window=2)
        db.durable(tmp_path / "store", checkpoint_every=2)
        db.execute(programs["put_a"], 1, 10)
        db.execute(programs["put_a"], 2, 20)
        db.execute(programs["put_a"], 3, 30)
        db.close()
        assert db.metrics.counter("repro_journal_appends_total").value == 3
        assert db.metrics.histogram("repro_journal_append_seconds").count == 3
        assert db.metrics.counter("repro_checkpoints_total").value == 1
        assert db.metrics.histogram("repro_checkpoint_seconds").count == 1
        text = db.metrics.exposition()
        assert "repro_journal_appends_total 3" in text

    def test_from_store_attaches_registry(self, schema, programs, tmp_path):
        db = Database(schema, window=2)
        db.durable(tmp_path / "store")
        db.execute(programs["put_a"], 1, 10)
        db.close()
        db2, recovery = Database.from_store(schema, tmp_path / "store", window=2)
        assert recovery.seq == 1
        db2.execute(programs["put_a"], 2, 20)
        db2.close()
        assert db2.metrics.counter("repro_journal_appends_total").value == 1

    def test_database_owns_a_registry_by_default(self, schema):
        db = Database(schema, window=2)
        assert isinstance(db.metrics, MetricsRegistry)
        custom = MetricsRegistry()
        db2 = Database(schema, window=2, metrics=custom)
        assert db2.metrics is custom
