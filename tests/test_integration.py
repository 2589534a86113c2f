"""Cross-module integration: the full pipeline on realistic scenarios.

Each test exercises several subsystems together — surface language through
engine through verification/synthesis — the way a downstream user would.
"""

import pytest

from repro import (
    ConstraintViolation,
    Database,
    make_domain,
    parse,
)
from repro.db.generators import benign_history, employee_state, violating_history
from repro.verification import Scenario, Verdict, Verifier


class TestSurfaceToEngine:
    def test_parsed_domain_runs_under_enforcement(self):
        program = parse(
            """
            relation ACC(owner, balance);

            constraint non-negative [window 1] :=
              forall s: state. holds(s, forall a: ACC. a in ACC -> balance(a) >= 0);

            constraint balance-monotone-or-withdrawn [window 2] :=
              forall s: state, t: trans, a: ACC.
                holds(s, a in ACC) and holds(after(s, t), a in ACC)
                -> at(s, balance(a)) <= at(after(s, t), balance(a))
                   or at(after(s, t), balance(a)) < at(s, balance(a));

            transaction open(who) := insert row(who, 0) into ACC;
            transaction deposit(who, amt) :=
              foreach a: ACC | a in ACC and owner(a) = who
              do set a.balance := balance(a) + amt end;
            transaction withdraw(who, amt) :=
              foreach a: ACC | a in ACC and owner(a) = who
              do set a.balance := balance(a) - amt end;
            """
        )
        for c in program.constraints:
            program.schema.add_constraint(c)
        db = Database(program.schema, window=2)
        tx = program.transactions
        db.execute(tx["open"], "alice")
        db.execute(tx["deposit"], "alice", 50)
        db.execute(tx["withdraw"], "alice", 20)
        (account,) = db.current.relation("ACC")
        assert account.values == ("alice", 30)
        # naturals truncate at zero, so over-withdrawal cannot go negative;
        # the static constraint holds by the arithmetic of the logic
        db.execute(tx["withdraw"], "alice", 100)
        (account,) = db.current.relation("ACC")
        assert account.values == ("alice", 0)


class TestScaledEnforcement:
    def test_engine_over_generated_workload(self):
        domain = make_domain()
        domain.install_constraints(
            "every-employee-allocated",
            "alloc-references-project",
            "allocation-within-limit",
            "skill-retention",
        )
        db = Database(
            domain.schema, window=2, initial=employee_state(domain, 20)
        )
        for program, *args in (
            (domain.add_skill, "emp3", 5),
            (domain.set_salary, "emp3", 500),
            (domain.birthday, "emp7"),
        ):
            db.execute(program, *args)
            assert db.last_record.ok
        with pytest.raises(ConstraintViolation):
            db.execute(domain.hire, "stray", "cs", 50, 30, "S")

    def test_generated_histories_are_benign(self):
        domain = make_domain()
        states = benign_history(domain, 12, 6)
        from repro.constraints import check_state

        for state in states:
            for c in domain.static_constraints:
                assert check_state(c, state).ok

    def test_violating_history_is_violating(self):
        domain = make_domain()
        states = violating_history(domain, 8, 2)
        from repro.constraints import check_history
        from repro.db import History

        h = History(window=None)
        h.start(states[0])
        for s in states[1:]:
            h.advance(s)
        assert not check_history(domain.never_rehire(), h).ok


class TestVerifyThenRun:
    def test_proved_transaction_never_trips_the_engine(self):
        """A constraint PROVED preserved never causes a rollback at runtime."""
        domain = make_domain()
        verifier = Verifier()
        result = verifier.verify(domain.once_married(), domain.add_skill, [])
        assert result.verdict is Verdict.PROVED

        domain.schema.add_constraint(domain.once_married())
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        for i in range(5):
            db.execute(domain.add_skill, "alice", i + 1)
            assert db.last_record.ok

    def test_violated_verdict_predicts_runtime_rollback(self):
        domain = make_domain()
        s0 = domain.sample_state()
        verifier = Verifier()
        result = verifier.verify(
            domain.salary_decrease_needs_dept_change(),
            domain.cancel_project,
            [Scenario(s0, ("net", 10))],
        )
        assert result.verdict is Verdict.VIOLATED

        domain.schema.add_constraint(domain.salary_decrease_needs_dept_change())
        db = Database(domain.schema, window=3, initial=s0)
        with pytest.raises(ConstraintViolation):
            db.execute(domain.cancel_project, "net", 10)


class TestSynthesizeThenVerify:
    def test_synthesized_transaction_verifies_like_handwritten(self):
        from repro.logic import builder as b
        from repro.synthesis import ModifyGoal, RemoveGoal, Synthesizer

        domain = make_domain()
        s0 = domain.sample_state()
        pname, v = b.atom_var("pname"), b.atom_var("v")
        p = domain.proj.var("p")
        e = domain.emp.var("e")
        a = domain.alloc.var("a")
        allocated = b.exists(
            a,
            b.land(
                b.member(a, domain.alloc.rel()),
                b.eq(domain.alloc.attr("a-proj", a), pname),
                b.eq(domain.alloc.attr("a-emp", a), domain.emp.attr("e-name", e)),
            ),
        )
        goals = [
            RemoveGoal(domain.proj, p, b.eq(domain.proj.attr("p-name", p), pname)),
            ModifyGoal(domain.emp, e, allocated, "salary",
                       b.minus(domain.emp.attr("salary", e), v)),
        ]
        synth = Synthesizer(domain.static_constraints)
        result = synth.synthesize("cancel", (pname, v), goals, [(s0, ("net", 10))])

        verifier = Verifier()
        scenario = Scenario(s0, ("net", 10))
        for constraint in (domain.once_married(), domain.skill_retention()):
            handwritten = verifier.verify(constraint, domain.cancel_project, [scenario])
            synthesized = verifier.verify(constraint, result.program, [scenario])
            assert handwritten.preserved == synthesized.preserved
