"""Interpreter fuel and cooperative cancellation (repro.transactions.budget).

The contract: a runaway evaluation raises a *typed* error at a budget
checkpoint — mid-foreach, mid-enumeration, mid-set-former — and because
states are immutable values, an interrupted evaluation leaves no trace.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    Budget,
    BudgetExceeded,
    CancelToken,
    Cancelled,
    Database,
    EvaluationError,
    ReproError,
    ResourceError,
    Schema,
    transaction,
)
from repro.db.state import state_from_rows
from repro.logic import builder as b
from repro.transactions import Interpreter


def big_state(n: int = 200) -> tuple[Schema, object]:
    schema = Schema()
    schema.add_relation("R", ("k", "v"))
    schema.add_relation("OUT", ("k", "v"))
    return schema, state_from_rows(schema, {"R": [(i, i) for i in range(n)]})


def sweep():
    t = b.ftup_var("t", 2)
    return b.foreach(t, b.member(t, b.rel("R", 2)), b.insert(t, "OUT"))


class TestBudgetLimits:
    def test_max_steps_interrupts_mid_evaluation(self):
        _, state = big_state(200)
        interp = Interpreter(budget=Budget(max_steps=50))
        with pytest.raises(BudgetExceeded) as exc:
            interp.run(state, sweep())
        assert exc.value.resource == "steps"
        assert exc.value.used > exc.value.limit == 50

    def test_max_foreach_iterations(self):
        _, state = big_state(40)
        interp = Interpreter(budget=Budget(max_foreach_iterations=10))
        with pytest.raises(BudgetExceeded) as exc:
            interp.run(state, sweep())
        assert exc.value.resource == "foreach"

    def test_max_derived_set_aborts_while_collecting(self):
        _, state = big_state(40)
        t = b.ftup_var("t", 2)
        former = b.setformer(t, t, b.member(t, b.rel("R", 2)))
        interp = Interpreter(budget=Budget(max_derived_set=5))
        with pytest.raises(BudgetExceeded) as exc:
            interp.eval_object(state, former)
        assert exc.value.resource == "derived-set"
        # The limit bounds work done, not just result size: collection
        # stopped at the threshold instead of materializing all 40.
        assert exc.value.used == 6

    def test_deadline_interrupts_mid_evaluation(self):
        _, state = big_state(5000)
        interp = Interpreter(budget=Budget.within(0.001))
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            interp.run(state, sweep())
        assert exc.value.resource == "deadline"
        assert time.perf_counter() - started < 1.0

    def test_unlimited_budget_changes_nothing(self):
        _, state = big_state(30)
        plain = Interpreter().run(state, sweep())
        metered = Interpreter(budget=Budget()).run(state, sweep())
        assert plain == metered

    def test_enumeration_is_metered(self):
        """Active-domain enumeration (the exists fallback) burns steps."""
        schema, state = big_state(60)
        x = b.atom_var("x")
        probe = b.exists(x, b.eq(x, b.atom("absent")))
        interp = Interpreter(budget=Budget(max_steps=20))
        with pytest.raises(BudgetExceeded):
            interp.eval_formula(state, probe)


class TestCancelToken:
    def test_cancel_is_sticky_and_typed(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("operator abort")
        assert token.cancelled
        with pytest.raises(Cancelled) as exc:
            token.raise_if_cancelled()
        assert exc.value.reason == "operator abort"

    def test_cancel_from_another_thread_stops_evaluation(self):
        _, state = big_state(5000)
        token = CancelToken()
        interp = Interpreter(budget=Budget(cancel=token))
        result: dict = {}

        def run():
            try:
                interp.run(state, sweep())
                result["outcome"] = "completed"
            except Cancelled as err:
                result["outcome"] = err

        token.cancel("shutdown")  # set before the worker starts: the
        worker = threading.Thread(target=run)  # evaluation must observe the
        worker.start()  # cross-thread flag at its first checkpoint
        worker.join(timeout=10)
        assert isinstance(result["outcome"], Cancelled)
        assert result["outcome"].reason == "shutdown"

    def test_mid_flight_cancellation(self):
        """A genuinely concurrent cancel: the evaluation is already running
        when the token fires."""
        _, state = big_state(20_000)
        token = CancelToken()
        interp = Interpreter(budget=Budget(cancel=token))
        started = threading.Event()
        result: dict = {}

        class Tripwire:
            # A domain object whose first read signals the main thread.
            pass

        def run():
            started.set()
            try:
                interp.run(state, sweep())
                result["outcome"] = "completed"
            except Cancelled as err:
                result["outcome"] = err

        worker = threading.Thread(target=run)
        worker.start()
        assert started.wait(10)
        token.cancel()
        worker.join(timeout=10)
        # Either the cancel landed mid-evaluation (typed) or the evaluation
        # finished first (tiny machines) — never a hang or untyped error.
        assert result["outcome"] == "completed" or isinstance(
            result["outcome"], Cancelled
        )


class TestBudgetMeter:
    def test_fresh_zeroes_counters_keeps_limits(self):
        token = CancelToken()
        meter = Budget(max_steps=100, max_foreach_iterations=7, cancel=token)
        meter.tick()
        meter.count_foreach(3)
        clone = meter.fresh()
        assert clone.steps == 0 and clone.foreach_iterations == 0
        assert clone.max_steps == 100 and clone.max_foreach_iterations == 7
        assert clone.cancel is token

    def test_fresh_keeps_absolute_deadline(self):
        meter = Budget.within(60.0)
        assert meter.fresh().deadline_at == meter.deadline_at

    def test_remaining_and_expired(self):
        assert Budget().remaining_seconds() is None
        assert not Budget().expired()
        assert Budget.within(-1.0).expired()
        assert Budget.within(60.0).remaining_seconds() > 0


class TestEngineBudget:
    def test_execute_with_budget_raises_and_does_not_advance(self):
        schema, state = big_state(200)
        db = Database(schema, window=2, initial=state)
        runaway = transaction("runaway", (), sweep())
        before = db.current
        with pytest.raises(BudgetExceeded):
            db.execute(runaway, budget=Budget(max_steps=20))
        assert db.current is before
        assert db.last_record is None  # never reached constraint checking

    def test_budget_template_not_consumed_across_calls(self):
        schema, state = big_state(5)
        db = Database(schema, window=2, initial=state)
        ok = transaction("ok", (), sweep())
        budget = Budget(max_steps=10_000)
        db.execute(ok, budget=budget)
        first = db.last_record
        db.execute(ok, budget=budget)  # same template, fresh meter each time
        assert budget.steps == 0
        assert first is not None and db.last_record is not first


class TestTypedHierarchy:
    def test_budget_errors_are_resource_and_evaluation_errors(self):
        err = BudgetExceeded("steps", 5, 6)
        assert isinstance(err, ResourceError)
        assert isinstance(err, EvaluationError)
        assert isinstance(err, ReproError)
        assert isinstance(Cancelled(), ResourceError)
        assert isinstance(Cancelled(), EvaluationError)
