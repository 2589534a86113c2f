"""The optimistic scheduler: tracking, validation, retry, log, and stats.

Deterministic suite — interleavings are forced with events through the
``on_evaluated`` instrumentation seam, never with sleeps.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    Database,
    RetryExhausted,
    RetryPolicy,
    Schema,
    TransactionStatus,
    transaction,
)
from repro.concurrent import (
    Deadline,
    TrackingInterpreter,
    quantile,
    replay_states,
    written_relations,
)
from repro.db.evolution import chain_graph
from repro.db.state import state_from_rows
from repro.logic import builder as b
from repro.transactions.program import query


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
        "move": transaction(
            "move",
            (x, y),
            b.seq(b.delete(b.mktuple(x, y), "A"), b.insert(b.mktuple(x, y), "B")),
        ),
    }


@pytest.fixture()
def db(schema):
    return Database(schema, window=2)


# ---------------------------------------------------------------------------
# Tracking
# ---------------------------------------------------------------------------


class TestTracking:
    def test_insert_records_write(self, db, programs):
        tracker = TrackingInterpreter()
        programs["put_a"].run(db.current, 1, 2, interpreter=tracker)
        rw = tracker.read_write_set()
        assert rw.writes == {"A"}
        assert "B" not in rw.footprint

    def test_query_records_read_not_write(self, schema):
        state = state_from_rows(schema, {"A": [(1, 2)]})
        tracker = TrackingInterpreter()
        size_a = query("size-a", (), b.size_of(b.rel("A", 2)))
        assert size_a.query(state, interpreter=tracker) == 1
        rw = tracker.read_write_set()
        assert rw.reads == {"A"} and rw.writes == frozenset()

    def test_formula_evaluation_records_read(self, schema):
        state = state_from_rows(schema, {"A": [(1, 2)]})
        tracker = TrackingInterpreter()
        t = b.ftup_var("t", 2)
        tracker.eval_formula(state, b.exists(t, b.member(t, b.rel("A", 2))))
        assert "A" in tracker.read_write_set().reads

    def test_move_records_both_relations(self, schema, programs):
        state = state_from_rows(schema, {"A": [(1, 1)]})
        tracker = TrackingInterpreter()
        programs["move"].run(state, 1, 1, interpreter=tracker)
        assert tracker.read_write_set().writes == {"A", "B"}

    def test_written_relations_is_identity_diff(self, schema):
        state = state_from_rows(schema, {"A": [(1, 2)], "B": [(3, 4)]})
        from repro.db.values import DBTuple

        after, _ = state.insert_tuple("A", DBTuple(None, (5, 6)))
        assert written_relations(state, after) == {"A"}
        assert written_relations(state, state) == frozenset()

    def test_reset_clears_footprint(self, db, programs):
        tracker = TrackingInterpreter()
        programs["put_a"].run(db.current, 1, 2, interpreter=tracker)
        tracker.reset()
        assert tracker.read_write_set().footprint == frozenset()

    def test_mentioned_relations_static_hint(self, programs):
        assert programs["move"].mentioned_relations() == {"A", "B"}
        assert programs["put_a"].mentioned_relations() == {"A"}


# ---------------------------------------------------------------------------
# Retry policy / deadline
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.001, multiplier=2.0, max_delay=0.004, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.001)
        assert policy.delay(2) == pytest.approx(0.002)
        assert policy.delay(3) == pytest.approx(0.004)
        assert policy.delay(10) == pytest.approx(0.004)  # capped

    def test_jitter_bounds(self):
        import random

        policy = RetryPolicy(base_delay=0.01, jitter=0.5)
        rng = random.Random(42)
        for attempt in range(1, 6):
            d = policy.delay(attempt, rng)
            assert 0 < d <= policy.max_delay

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_deadline_expiry(self):
        assert not Deadline.after(60).expired()
        assert Deadline.after(-1).expired()


# ---------------------------------------------------------------------------
# Forced conflicts (deterministic, event-gated)
# ---------------------------------------------------------------------------


class TestConflictRetry:
    def test_forced_conflict_is_detected_retried_and_committed(self, db, programs):
        """The acceptance scenario: a read/write conflict is detected, the
        victim retries under backoff, commits, and the conflict is recorded
        in its commit record."""
        evaluated = threading.Event()
        release = threading.Event()

        def gate(attempt: int) -> None:
            if attempt == 1:
                evaluated.set()
                assert release.wait(10)

        with db.concurrent(
            workers=2, retry=RetryPolicy(base_delay=0.0001, jitter=0.0)
        ) as mgr:
            victim = mgr.submit(
                programs["put_a"], 1, 1, label="victim", on_evaluated=gate
            )
            assert evaluated.wait(10)
            # While the victim holds its snapshot, a winner commits to A.
            winner = mgr.submit(programs["put_a"], 2, 2, label="winner").result()
            assert winner.ok and winner.attempts == 1
            release.set()
            outcome = victim.result()

        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.conflicts == (frozenset({"A"}),)
        record = outcome.record
        assert record.label == "victim" and record.retried
        assert record.conflicts == (frozenset({"A"}),)
        assert (winner.record.seq, record.seq) == (1, 2)
        assert len(db.current.relation("A")) == 2

        snap = mgr.stats.snapshot()
        assert snap.commits == 2 and snap.conflicts == 1 and snap.retries == 1
        assert snap.conflict_rate == pytest.approx(1 / 3)

    def test_disjoint_footprints_do_not_conflict(self, db, programs):
        evaluated = threading.Event()
        release = threading.Event()

        def gate(attempt: int) -> None:
            if attempt == 1:
                evaluated.set()
                assert release.wait(10)

        with db.concurrent(workers=2) as mgr:
            held = mgr.submit(programs["put_a"], 1, 1, on_evaluated=gate)
            assert evaluated.wait(10)
            other = mgr.submit(programs["put_b"], 2, 2).result()
            assert other.ok
            release.set()
            outcome = held.result()
        # B's commit happened inside A-writer's window, but footprints are
        # disjoint: no conflict, single attempt.
        assert outcome.ok and outcome.attempts == 1 and not outcome.conflicts

    def test_retry_exhaustion_aborts(self, db, programs):
        counter = {"n": 0}

        def always_beaten(attempt: int) -> None:
            # Each attempt, a fresh winner commits to A before validation.
            counter["n"] += 1
            mgr.submit(
                programs["put_a"], 100 + counter["n"], 0, label="winner"
            ).result()

        mgr = db.concurrent(
            workers=2, retry=RetryPolicy(max_attempts=2, base_delay=0.0001)
        )
        with mgr:
            outcome = mgr.submit(
                programs["put_a"], 1, 1, label="victim", on_evaluated=always_beaten
            ).result()

        assert outcome.status is TransactionStatus.ABORTED
        assert outcome.attempts == 2
        assert isinstance(outcome.error, RetryExhausted)
        assert outcome.error.relations == {"A"}
        assert mgr.stats.snapshot().aborts == 1
        # The victim never committed: only the winners did.
        assert outcome.record is None
        assert mgr.version == counter["n"]

    def test_failed_transaction_is_not_retried(self, db):
        x = b.atom_var("x")
        t = b.ftup_var("t", 2)
        guarded = transaction(
            "guarded",
            (x,),
            b.insert(b.mktuple(x, x), "A"),
            precondition=b.exists(t, b.member(t, b.rel("B", 2))),
        )
        with db.concurrent(workers=2) as mgr:
            outcome = mgr.submit(guarded, 1).result()
        assert outcome.status is TransactionStatus.FAILED
        assert outcome.attempts == 1
        assert mgr.stats.snapshot().failures == 1

    def test_constraint_violation_fails_and_rolls_back(self, schema, programs):
        from repro.constraints.model import Constraint

        s = b.state_var("s")
        t = b.ftup_var("t", 2)
        empty_a = Constraint(
            "a-stays-empty",
            b.forall(s, b.holds(s, b.lnot(b.exists(t, b.member(t, b.rel("A", 2)))))),
            declared_window=1,
        )
        schema.add_constraint(empty_a)
        db = Database(schema, window=2)
        before = db.current
        with db.concurrent(workers=2) as mgr:
            bad = mgr.submit(programs["put_a"], 1, 1).result()
            good = mgr.submit(programs["put_b"], 1, 1).result()
        assert bad.status is TransactionStatus.FAILED
        assert good.ok
        assert len(db.current.relation("A")) == 0
        assert bad.record is None and mgr.version == 1
        assert good.record.constraint_results == (("a-stays-empty", True),)
        assert before != db.current  # B advanced

    def test_deadline_bounds_retries(self, db, programs):
        def always_beaten(attempt: int) -> None:
            mgr.submit(programs["put_a"], 100 + attempt, 0).result()

        mgr = db.concurrent(
            workers=2, retry=RetryPolicy(max_attempts=1000, base_delay=0.0001)
        )
        with mgr:
            outcome = mgr.submit(
                programs["put_a"], 1, 1,
                deadline=Deadline.after(-1.0),  # already expired
                on_evaluated=always_beaten,
            ).result()
        assert outcome.status is TransactionStatus.ABORTED
        assert outcome.attempts == 1


# ---------------------------------------------------------------------------
# Commit records and serial replay
# ---------------------------------------------------------------------------


class TestCommitLog:
    def test_replay_reconstructs_final_state(self, db, programs):
        with db.concurrent(workers=4, seed=3) as mgr:
            outcomes = mgr.run_all([(programs["put_a"], i, i) for i in range(6)])
            outcomes += mgr.run_all(
                [(programs["move"], 2, 2), (programs["put_b"], 9, 9)]
            )
            assert mgr.verify_serializable(outcomes)
        assert mgr.version == 8
        assert {o.record.seq for o in outcomes} == set(range(1, 9))

    def test_verify_serializable_needs_every_commit(self, db, programs):
        with db.concurrent(workers=2, seed=3) as mgr:
            outcomes = mgr.run_all([(programs["put_a"], i, i) for i in range(4)])
            assert mgr.verify_serializable(outcomes)
            with pytest.raises(ValueError, match="1..4"):
                mgr.verify_serializable(outcomes[:2] + outcomes[3:])
            with pytest.raises(ValueError):
                mgr.verify_serializable(outcomes + outcomes[:1])

    def test_log_graph_is_the_winning_path(self, db, programs):
        with db.concurrent(workers=2) as mgr:
            a = mgr.execute(programs["put_a"], 1, 1)
            b_ = mgr.execute(programs["put_b"], 2, 2)
        records = [a.record, b_.record]
        graph = chain_graph(
            replay_states(mgr.initial, records), [r.label for r in records]
        )
        assert len(graph) == 3  # initial + 2 commits
        assert graph.edge_count() == 2

    def test_records_carry_footprints_and_versions(self, db, programs):
        with db.concurrent(workers=1) as mgr:
            first = mgr.execute(programs["put_a"], 1, 1).record
            second = mgr.execute(programs["put_b"], 2, 2).record
        assert first.write_set == {"A"} and first.snapshot_version == 0
        assert second.write_set == {"B"} and second.snapshot_version == 1
        assert first.latency >= 0.0


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


class TestStats:
    def test_quantile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert quantile(values, 0.5) == 3.0
        assert quantile(values, 0.95) == 5.0
        assert quantile(values, 0.0) == 1.0
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_snapshot_of_idle_manager(self, db):
        with db.concurrent(workers=1) as mgr:
            snap = mgr.stats.snapshot()
        assert snap.commits == 0 and snap.conflict_rate == 0.0
        assert "commits=0" in snap.summary()

    def test_latency_quantiles_populated(self, db, programs):
        with db.concurrent(workers=2) as mgr:
            mgr.run_all([(programs["put_a"], i, i) for i in range(5)])
        snap = mgr.stats.snapshot()
        assert snap.commits == 5
        assert 0 < snap.p50_latency <= snap.p95_latency


# ---------------------------------------------------------------------------
# Integration with engine features
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_closed_manager_rejects_submissions(self, db, programs):
        from repro import ReproError, SchedulerClosed

        mgr = db.concurrent(workers=1)
        mgr.close()
        with pytest.raises(SchedulerClosed):
            mgr.submit(programs["put_a"], 1, 1)
        # The typed error is still catchable under the old contract.
        with pytest.raises(ReproError):
            mgr.submit(programs["put_a"], 1, 1)

    def test_history_window_maintained_under_concurrency(self, db, programs):
        with db.concurrent(workers=4, seed=5) as mgr:
            mgr.run_all([(programs["put_a"], i, i) for i in range(7)])
        assert len(db.history) == 2  # window=2
        assert mgr.version == 7 and db.last_record.ok

    def test_encoding_writes_join_committed_write_sets(self, programs):
        """A history encoding's log relation is written at commit time; the
        effective write set recorded for validation must include it."""
        from repro.constraints.history import HistoryEncoding
        from repro.db.schema import RelationSchema

        schema = Schema()
        schema.add_relation("A", ("k", "v"))
        schema.add_relation("B", ("k", "v"))
        db = Database(schema, window=2)
        db.register_encoding(
            HistoryEncoding(RelationSchema("A", ("k", "v")), "GONE", "k")
        )
        x, y = b.atom_var("x"), b.atom_var("y")
        rm = transaction("rm", (x, y), b.delete(b.mktuple(x, y), "A"))
        with db.concurrent(workers=1) as mgr:
            mgr.execute(programs["put_a"], 1, 1)
            out = mgr.execute(rm, 1, 1)
        assert out.ok
        assert "GONE" in out.record.write_set
        assert len(db.current.relation("GONE")) == 1


# ---------------------------------------------------------------------------
# Resource governance (budget threading, jitter, lifecycle)
# ---------------------------------------------------------------------------


class TestGovernance:
    def test_deadline_interrupts_evaluation_not_just_retries(self, schema):
        """Regression for the deadline-only-between-retries gap: a single
        long evaluation (a foreach over thousands of tuples) must be
        aborted *mid-attempt* by the submission deadline, with a typed
        error, well before the evaluation would finish on its own."""
        import time

        from repro import BudgetExceeded, ResourceError

        state = state_from_rows(
            schema, {"A": [(i, i) for i in range(30_000)]}
        )
        db = Database(schema, window=2, initial=state)
        t = b.ftup_var("t", 2)
        long_sweep = transaction(
            "long-sweep",
            (),
            b.foreach(t, b.member(t, b.rel("A", 2)), b.insert(t, "B")),
        )
        with db.concurrent(workers=1) as mgr:
            started = time.perf_counter()
            outcome = mgr.submit(long_sweep, deadline=0.2).result()
            elapsed = time.perf_counter() - started
        assert outcome.status is TransactionStatus.ABORTED
        assert isinstance(outcome.error, BudgetExceeded)
        assert isinstance(outcome.error, ResourceError)
        assert outcome.error.resource == "deadline"
        assert elapsed < 1.0, f"deadline abort took {elapsed:.2f}s"
        assert len(db.current.relation("B")) == 0  # nothing leaked

    def test_budget_template_governs_every_submission(self, db, programs):
        from repro import Budget, BudgetExceeded

        with db.concurrent(workers=1, budget=Budget(max_steps=1)) as mgr:
            outcome = mgr.submit(programs["put_a"], 1, 1).result()
        assert outcome.status is TransactionStatus.ABORTED
        assert isinstance(outcome.error, BudgetExceeded)

    def test_per_submission_budget_overrides_template(self, db, programs):
        from repro import Budget

        with db.concurrent(workers=1, budget=Budget(max_steps=1)) as mgr:
            outcome = mgr.submit(
                programs["put_a"], 1, 1, budget=Budget(max_steps=10_000)
            ).result()
        assert outcome.ok

    def test_full_jitter_spreads_delays(self):
        """Full jitter draws from [0, d); partial jitter keeps a floor.
        With a fixed-seed RNG the spread is deterministic and must cover
        most of the interval."""
        import random

        full = RetryPolicy(
            base_delay=0.01, multiplier=1.0, max_delay=0.01,
            jitter_mode="full",
        )
        rng = random.Random(42)
        draws = [full.delay(1, rng) for _ in range(200)]
        assert all(0.0 <= d < 0.01 for d in draws)
        assert min(draws) < 0.002, "full jitter must reach near zero"
        assert max(draws) > 0.008, "full jitter must reach near the cap"
        # Partial jitter with the same policy shape never goes below the
        # (1 - jitter) floor.
        partial = RetryPolicy(
            base_delay=0.01, multiplier=1.0, max_delay=0.01,
            jitter=0.5, jitter_mode="partial",
        )
        rng = random.Random(42)
        assert all(
            partial.delay(1, rng) >= 0.005 - 1e-12 for _ in range(200)
        )

    def test_jitter_mode_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter_mode="gaussian")

    def test_close_without_wait_with_in_flight_task(self, db, programs):
        """close(wait=False) returns immediately; the in-flight task still
        completes and commits (the pool drains, it is not killed)."""
        release = threading.Event()
        parked = threading.Event()

        def gate(attempt: int) -> None:
            parked.set()
            assert release.wait(10)

        mgr = db.concurrent(workers=1)
        fut = mgr.submit(programs["put_a"], 1, 1, on_evaluated=gate)
        assert parked.wait(10)
        mgr.close(wait=False)  # must not block on the parked worker
        release.set()
        outcome = fut.result(timeout=10)
        assert outcome.ok
        assert mgr.verify_serializable([outcome])

    def test_submit_after_close_without_wait_is_typed(self, db, programs):
        from repro import SchedulerClosed

        mgr = db.concurrent(workers=1)
        mgr.close(wait=False)
        with pytest.raises(SchedulerClosed):
            mgr.submit(programs["put_a"], 1, 1)
