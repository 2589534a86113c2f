"""The chaos harness: deterministic fault plans and the soak acceptance.

The acceptance claim (ISSUE 5): >= 200 randomized faulted transactions
across >= 5 seeds end with a serializable commit order, a final state
equivalent to the unfaulted serial replay, and zero unhandled (untyped)
exceptions.
"""

from __future__ import annotations

import pytest

from repro.testing import ChaosConfig, ChaosInjector, run_soak
from repro import Database, Schema, TransactionStatus, transaction
from repro.errors import ReproError
from repro.logic import builder as b

SOAK_SEEDS = (1, 2, 3, 4, 5)
SOAK_TRANSACTIONS = 48  # 5 seeds x 48 = 240 faulted transactions (>= 200)


def tiny_db():
    schema = Schema()
    schema.add_relation("A", ("k", "v"))
    return Database(schema, window=2)


class TestDeterminism:
    def test_plans_are_a_function_of_seed_and_index(self):
        a = ChaosInjector(tiny_db(), seed=7)
        b_ = ChaosInjector(tiny_db(), seed=7)
        other = ChaosInjector(tiny_db(), seed=8)
        plans_a = [a.plan_for(i) for i in range(50)]
        plans_b = [b_.plan_for(i) for i in range(50)]
        plans_other = [other.plan_for(i) for i in range(50)]
        assert plans_a == plans_b
        assert plans_a != plans_other

    def test_plans_do_not_depend_on_draw_order(self):
        chaos = ChaosInjector(tiny_db(), seed=3)
        late_first = chaos.plan_for(40)
        assert chaos.plan_for(0) == ChaosInjector(
            tiny_db(), seed=3
        ).plan_for(0)
        assert chaos.plan_for(40) == late_first

    def test_soak_reports_are_reproducible(self):
        first = run_soak(11, transactions=16, workers=2)
        second = run_soak(11, transactions=16, workers=2)
        assert first.injected == second.injected
        assert first.ok and second.ok


class TestInjection:
    def test_spurious_conflicts_force_retries_but_converge(self):
        db = tiny_db()
        x, y = b.atom_var("x"), b.atom_var("y")
        put = transaction("put", (x, y), b.insert(b.mktuple(x, y), "A"))
        config = ChaosConfig(
            stall_rate=0.0, conflict_rate=1.0, max_spurious=2,
            squeeze_rate=0.0, deadline_rate=0.0,
        )
        chaos = ChaosInjector(db, seed=5, config=config)
        with chaos.concurrent(workers=2, seed=5) as mgr:
            futures = [chaos.submit(mgr, i, put, i, i) for i in range(8)]
            outcomes = [f.result() for f in futures]
        assert all(o.ok for o in outcomes)
        assert any(o.attempts > 1 for o in outcomes)  # faults really landed
        assert mgr.verify_serializable(outcomes)
        # Injected phantom conflicts are visible in the outcome evidence.
        assert any(
            "<chaos>" in clash
            for o in outcomes
            for clash in o.conflicts
        )

    def test_budget_squeezes_abort_typed(self):
        db = tiny_db()
        x, y = b.atom_var("x"), b.atom_var("y")
        put = transaction("put", (x, y), b.insert(b.mktuple(x, y), "A"))
        config = ChaosConfig(
            stall_rate=0.0, conflict_rate=0.0, deadline_rate=0.0,
            squeeze_rate=1.0, squeeze_steps=(1, 1),  # guaranteed near-miss
        )
        chaos = ChaosInjector(db, seed=6, config=config)
        with chaos.concurrent(workers=2) as mgr:
            outcomes = [
                chaos.submit(mgr, i, put, i, i).result() for i in range(4)
            ]
        assert all(
            o.status is TransactionStatus.ABORTED for o in outcomes
        )
        assert all(isinstance(o.error, ReproError) for o in outcomes)
        assert mgr.verify_serializable(outcomes)  # no commit replays trivially


class TestSoakAcceptance:
    @pytest.mark.parametrize("seed", SOAK_SEEDS)
    def test_soak_contract_holds_per_seed(self, seed):
        report = run_soak(seed, transactions=SOAK_TRANSACTIONS, workers=4)
        assert report.untyped_errors == []
        assert report.serializable, report.to_json()
        assert report.replay_equivalent, report.to_json()
        assert report.wrong_answers == 0
        assert report.transactions == SOAK_TRANSACTIONS
        assert report.committed + report.aborted + report.failed == (
            report.transactions
        )
        # The harness is not a placebo: faults were actually injected.
        assert sum(report.injected.values()) > 0
        assert report.ok

    def test_soak_totals_meet_the_acceptance_floor(self):
        assert len(SOAK_SEEDS) >= 5
        assert len(SOAK_SEEDS) * SOAK_TRANSACTIONS >= 200

    def test_report_serializes_to_json(self):
        report = run_soak(99, transactions=8, workers=2)
        doc = report.to_doc()
        assert doc["seed"] == 99 and "ok" in doc
        assert isinstance(report.to_json(), str)
