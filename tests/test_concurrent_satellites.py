"""Satellite coverage: quantile edges, states_equivalent bookkeeping,
and per-relation conflict stats."""

from __future__ import annotations

import threading

import pytest

from repro import Database, Schema, transaction
from repro.concurrent import ConcurrencyStats, quantile, states_equivalent
from repro.db.state import State, state_from_rows
from repro.logic import builder as b


@pytest.fixture()
def schema():
    s = Schema()
    s.add_relation("A", ("k", "v"))
    s.add_relation("B", ("k", "v"))
    return s


# ---------------------------------------------------------------------------
# quantile edge cases
# ---------------------------------------------------------------------------


class TestQuantileEdges:
    def test_single_element_every_q(self):
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert quantile([7.0], q) == 7.0

    def test_q_zero_is_minimum(self):
        assert quantile([5.0, 1.0, 3.0], 0.0) == 1.0

    def test_q_one_is_maximum(self):
        assert quantile([5.0, 1.0, 3.0], 1.0) == 5.0

    def test_ties_collapse_to_the_tied_value(self):
        values = [2.0, 2.0, 2.0, 9.0]
        assert quantile(values, 0.5) == 2.0
        assert quantile(values, 0.75) == 2.0
        assert quantile(values, 1.0) == 9.0

    def test_unsorted_input_and_two_elements(self):
        assert quantile([9.0, 1.0], 0.5) == 1.0
        assert quantile([9.0, 1.0], 0.51) == 9.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], -0.01)
        with pytest.raises(ValueError):
            quantile([1.0], 1.01)

    def test_empty_without_default_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_empty_with_default_returns_default(self):
        assert quantile([], 0.5, default=0.0) == 0.0
        assert quantile([], 0.99, default=-1.0) == -1.0

    def test_q_validated_before_emptiness(self):
        # A bad q is a caller bug even on an empty window: it must raise,
        # never be masked by the default.
        with pytest.raises(ValueError, match="q must be"):
            quantile([], -0.5, default=0.0)

    def test_zero_one_two_samples_at_every_quantile(self):
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert quantile([], q, default=0.0) == 0.0
            assert quantile([4.0], q) == 4.0
        assert quantile([4.0, 8.0], 0.5) == 4.0
        assert quantile([4.0, 8.0], 0.95) == 8.0
        assert quantile([4.0, 8.0], 0.99) == 8.0


# ---------------------------------------------------------------------------
# stats: p99, backoff, and the metrics mirror
# ---------------------------------------------------------------------------


class TestStatsObservability:
    def test_snapshot_reports_p99(self):
        stats = ConcurrencyStats()
        for i in range(1, 101):
            stats.record_commit(i / 1000.0)
        snap = stats.snapshot()
        assert snap.p50_latency == 0.050
        assert snap.p99_latency == 0.099
        assert "p99" in snap.summary() or "/" in snap.summary()

    def test_empty_snapshot_quantiles_are_zero(self):
        snap = ConcurrencyStats().snapshot()
        assert snap.p50_latency == snap.p95_latency == snap.p99_latency == 0.0

    def test_backoff_accumulates(self):
        stats = ConcurrencyStats()
        assert stats.backoffs == (0, 0.0)
        stats.record_backoff(0.01)
        stats.record_backoff(0.02)
        count, total = stats.backoffs
        assert count == 2 and total == pytest.approx(0.03)

    def test_events_mirror_into_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        stats = ConcurrencyStats(metrics=registry)
        stats.record_commit(0.004)
        stats.record_conflict(["A", "B"])
        stats.record_retry()
        stats.record_backoff(0.001)
        stats.record_abort()
        stats.record_failure()
        assert registry.counter("repro_commits_total").value == 1
        assert registry.counter("repro_conflicts_total").value == 1
        assert (
            registry.counter("repro_relation_conflicts_total", relation="A").value
            == 1
        )
        assert registry.counter("repro_retries_total").value == 1
        assert registry.counter("repro_aborts_total").value == 1
        assert registry.counter("repro_failures_total").value == 1
        assert registry.histogram("repro_txn_latency_seconds").count == 1
        assert registry.histogram("repro_backoff_seconds").count == 1

    def test_scheduler_reports_into_database_registry(self, schema):
        x, y = b.atom_var("x"), b.atom_var("y")
        put = transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "A"))
        db = Database(schema, window=2)
        with db.concurrent(workers=2, seed=3) as mgr:
            outcomes = mgr.run_all([(put, i, i) for i in range(5)])
        assert all(o.ok for o in outcomes)
        assert db.metrics.counter("repro_commits_total").value == 5
        assert db.metrics.histogram("repro_txn_latency_seconds").count == 5


# ---------------------------------------------------------------------------
# states_equivalent bookkeeping-only differences
# ---------------------------------------------------------------------------


class TestStatesEquivalentBookkeeping:
    def test_next_tid_only_difference_is_equivalent(self, schema):
        initial = state_from_rows(schema, {"A": [(1, 2)]})
        bumped = State(initial.relations, initial.owner, initial.next_tid + 7)
        assert states_equivalent(initial, initial, bumped)

    def test_owner_only_difference_is_equivalent(self, schema):
        initial = state_from_rows(schema, {"A": [(1, 2)]})
        # Stale owner entry for a tuple no relation holds: pure bookkeeping.
        dirty_owner = dict(initial.owner)
        dirty_owner[999] = "B"
        dirty = State(initial.relations, dirty_owner, initial.next_tid)
        assert states_equivalent(initial, initial, dirty)

    def test_fresh_identifier_renaming_is_equivalent(self, schema):
        initial = state_from_rows(schema, {"A": [(1, 2)]})
        from repro.db.values import DBTuple

        a, _ = initial.insert_tuple("A", DBTuple(None, (8, 8)))
        a, _ = a.insert_tuple("A", DBTuple(None, (9, 9)))
        b2, _ = initial.insert_tuple("A", DBTuple(None, (9, 9)))
        b2, _ = b2.insert_tuple("A", DBTuple(None, (8, 8)))
        assert states_equivalent(initial, a, b2)

    def test_pre_existing_identifier_must_match(self, schema):
        initial = state_from_rows(schema, {"A": [(1, 2), (3, 4)]})
        first, second = sorted(
            initial.relation("A"), key=lambda t: t.tid
        )
        # Swap the two pre-existing identifiers: same values, different ids.
        swapped = initial.delete_tuple("A", first).delete_tuple("A", second)
        from repro.db.values import DBTuple

        swapped, _ = swapped.insert_tuple(
            "A", DBTuple(first.tid, second.values)
        )
        swapped, _ = swapped.insert_tuple(
            "A", DBTuple(second.tid, first.values)
        )
        assert not states_equivalent(initial, initial, swapped)

    def test_value_difference_is_not_equivalent(self, schema):
        initial = state_from_rows(schema, {"A": [(1, 2)]})
        other = state_from_rows(schema, {"A": [(1, 3)]})
        assert not states_equivalent(initial, initial, other)


# ---------------------------------------------------------------------------
# per-relation conflict stats
# ---------------------------------------------------------------------------


class TestConflictRelationStats:
    def test_counts_accumulate_per_relation(self):
        stats = ConcurrencyStats()
        stats.record_conflict({"A", "B"})
        stats.record_conflict({"A"})
        stats.record_conflict()
        assert stats.conflicts == 3
        assert stats.conflicts_by_relation() == {"A": 2, "B": 1}

    def test_snapshot_orders_hottest_first_with_name_tiebreak(self):
        stats = ConcurrencyStats()
        for _ in range(3):
            stats.record_conflict({"Z"})
        for _ in range(3):
            stats.record_conflict({"A"})
        stats.record_conflict({"M"})
        snap = stats.snapshot()
        assert snap.top_conflicts == (("A", 3), ("Z", 3), ("M", 1))
        assert "hot_relations=[A:3, Z:3, M:1]" in snap.summary()

    def test_top_k_truncates(self):
        stats = ConcurrencyStats(top_k=2)
        for name in ("R1", "R2", "R3"):
            stats.record_conflict({name})
        assert len(stats.snapshot().top_conflicts) == 2

    def test_no_conflicts_means_no_hot_section(self):
        snap = ConcurrencyStats().snapshot()
        assert snap.top_conflicts == ()
        assert "hot_relations" not in snap.summary()

    def test_thread_safety_under_concurrent_recording(self):
        stats = ConcurrencyStats()

        def hammer():
            for _ in range(200):
                stats.record_conflict({"HOT"})

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.conflicts_by_relation() == {"HOT": 800}

    def test_scheduler_populates_relation_counts(self, schema):
        """A forced conflict on relation A shows up by name."""
        x, y = b.atom_var("x"), b.atom_var("y")
        put_a = transaction("put-a", (x, y), b.insert(b.mktuple(x, y), "A"))
        db = Database(schema, window=2)
        with db.concurrent(workers=2, seed=3) as mgr:
            first_evaluated = threading.Event()
            release_second = threading.Event()

            def gate_first(attempt):
                first_evaluated.set()
                release_second.wait(timeout=5)

            def gate_second(attempt):
                if attempt == 1:
                    first_evaluated.wait(timeout=5)

            f1 = mgr.submit(put_a, 1, 1, on_evaluated=gate_second)
            f2 = mgr.submit(put_a, 2, 2, on_evaluated=gate_first)
            release_second.set()
            assert f1.result().ok and f2.result().ok
        by_relation = mgr.stats.conflicts_by_relation()
        if mgr.stats.conflicts:  # the interleaving fired: A is the culprit
            assert set(by_relation) == {"A"}
            assert mgr.stats.snapshot().top_conflicts[0][0] == "A"
