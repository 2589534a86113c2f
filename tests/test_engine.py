"""The database engine: enforcement, rollback, windows, encodings."""

import warnings

import pytest

from repro import Schema, transaction
from repro.constraints.model import Constraint
from repro.errors import CheckabilityError, ConstraintViolation, EvaluationError
from repro.engine import Database, UnenforcedConstraintWarning
from repro.logic import builder as b

S = b.state_var("s")
A = b.rel("A", 2)
A_EMPTY = b.eq(b.size_of(A), b.atom(0))


@pytest.fixture()
def db(domain):
    domain.install_constraints(
        "every-employee-allocated",
        "alloc-references-project",
        "allocation-within-limit",
        "once-married",
        "skill-retention",
    )
    return Database(domain.schema, window=2, initial=domain.sample_state())


class TestEnforcement:
    def test_valid_transaction_advances(self, domain, db):
        before = db.current
        db.execute(domain.set_salary, "alice", 150)
        assert db.current != before
        assert db.last_record.label == "set-salary" and db.last_record.ok

    def test_violation_rolls_back(self, domain, db):
        before = db.current
        with pytest.raises(ConstraintViolation) as err:
            db.execute(domain.hire, "eve", "cs", 90, 25, "S")  # unallocated
        assert "every-employee-allocated" in str(err.value)
        assert db.current == before
        # The rejected commit's record is the newest one.
        assert db.last_record.label == "hire" and not db.last_record.ok

    def test_try_execute_reports(self, domain, db):
        ok, state = db.try_execute(domain.hire, "eve", "cs", 90, 25, "S")
        assert not ok and state == db.current
        ok2, _ = db.try_execute(domain.set_salary, "alice", 130)
        assert ok2

    def test_transaction_constraint_checked_across_window(self, domain, db):
        from repro.logic import builder as b
        from repro.transactions import transaction

        e = domain.emp.var("e")
        cond = b.land(
            b.member(e, domain.emp.rel()),
            b.eq(domain.emp.attr("e-name", e), b.atom("alice")),
        )
        age_and_single = transaction(
            "age-and-single",
            (),
            b.foreach(
                e,
                cond,
                b.seq(
                    b.modify(
                        e,
                        domain.emp.attr_index("age"),
                        b.plus(domain.emp.attr("age", e), b.atom(1)),
                    ),
                    b.modify(e, domain.emp.attr_index("m-status"), b.atom("S")),
                ),
            ),
        )
        # alice is married in the sample state; aging her while making her
        # single in one transition violates once-married
        with pytest.raises(ConstraintViolation):
            db.execute(age_and_single, label="bad")


class TestWindows:
    def test_constraint_needing_more_history_is_skipped(self, domain):
        domain.schema.add_constraint(domain.salary_decrease_needs_dept_change())
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        db.execute(domain.set_salary, "alice", 150)
        skipped = db.last_record.skipped
        assert any(s.constraint.name == "salary-decrease-needs-dept-change" for s in skipped)

    def test_strict_mode_raises_instead(self, domain):
        domain.schema.add_constraint(domain.salary_decrease_needs_dept_change())
        db = Database(
            domain.schema, window=2, initial=domain.sample_state(), strict=True
        )
        with pytest.raises(CheckabilityError):
            db.execute(domain.set_salary, "alice", 150)

    def test_wide_window_checks_it(self, domain):
        domain.schema.add_constraint(domain.salary_decrease_needs_dept_change())
        db = Database(domain.schema, window=3, initial=domain.sample_state())
        db.execute(domain.set_salary, "alice", 150)
        assert not db.last_record.skipped
        with pytest.raises(ConstraintViolation):
            db.execute(domain.set_salary, "alice", 100)

    def test_uncheckable_skipped_with_reason(self, domain):
        domain.schema.add_constraint(domain.invertibility())
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        db.execute(domain.set_salary, "alice", 150)
        (skip,) = db.last_record.skipped
        assert "not checkable" in skip.reason

    def unenforced(self, db):
        return db.metrics.get("repro_constraints_unenforced").value

    def test_an_unenforced_constraint_is_announced_at_construction(self, domain):
        """``skill-retention`` needs two states: with ``window=1`` it would be
        a ``SkippedCheck`` at every commit — decided here, so said here."""
        domain.install_constraints("every-employee-allocated", "skill-retention")
        with pytest.warns(UnenforcedConstraintWarning, match="needs 2 states") as caught:
            db = Database(domain.schema, window=1, initial=domain.sample_state())
        (warning,) = (w.message for w in caught)
        assert warning.constraint == "skill-retention" and "keeps 1" in warning.reason
        assert self.unenforced(db) == 1
        db.execute(domain.birthday, "alice")
        assert [s.constraint.name for s in db.last_record.skipped] == ["skill-retention"]

    def test_an_enforced_schema_is_silent(self, domain):
        domain.install_constraints("every-employee-allocated", "skill-retention")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnenforcedConstraintWarning)
            db = Database(domain.schema, window=2, initial=domain.sample_state())
            strict = Database(domain.schema, window=1, strict=True)  # raises at commit
        assert self.unenforced(db) == 0 and self.unenforced(strict) == 1

    def test_register_encoding_recounts(self, domain):
        """A constraint added since construction is counted when the next
        encoding is registered."""
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        assert self.unenforced(db) == 0
        domain.schema.add_constraint(domain.never_rehire())
        with pytest.warns(UnenforcedConstraintWarning, match="complete history"):
            db.register_encoding(domain.fire_encoding())
        assert self.unenforced(db) == 1

    def test_unbounded_window_checks_full_history_constraints(self, domain):
        domain.schema.add_constraint(domain.never_rehire())
        db = Database(domain.schema, window=None, initial=domain.sample_state())
        db.execute(domain.fire, "dan")
        with pytest.raises(ConstraintViolation):
            db.execute(domain.hire, "dan", "cs", 95, 31, "S")


class TestEncodings:
    def test_fire_encoding_via_engine(self, domain):
        enc = domain.fire_encoding()
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        db.register_encoding(enc)
        domain.schema.add_constraint(enc.static_constraint())
        db.execute(domain.fire, "dan")
        assert {t.values for t in db.current.relation("FIRE")} == {("dan",)}
        with pytest.raises(ConstraintViolation):
            db.execute(domain.hire, "dan", "ee", 90, 31, "S")

    def test_encoding_makes_two_window_sufficient(self, domain):
        """E4's crossover: with the encoding, a 2-state window catches what
        otherwise needs the complete history."""
        enc = domain.fire_encoding()
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        db.register_encoding(enc)
        domain.schema.add_constraint(enc.static_constraint())
        db.execute(domain.fire, "dan")
        db.execute(domain.birthday, "alice")
        db.execute(domain.birthday, "bob")  # firing long out of the window
        with pytest.raises(ConstraintViolation):
            db.execute(domain.hire, "dan", "ee", 90, 31, "S")


class TestQueries:
    def test_query_through_engine(self, domain, db):
        from repro.logic import builder as b
        from repro.transactions import query

        a = domain.alloc.var("a")
        q = query(
            "allocs-of",
            (b.atom_var("n"),),
            b.setformer(
                domain.alloc.attr("perc", a),
                a,
                b.land(
                    b.member(a, domain.alloc.rel()),
                    b.eq(domain.alloc.attr("a-emp", a), b.atom_var("n")),
                ),
            ),
        )
        result = db.query(q, "alice")
        assert sorted(result.first_column()) == [40, 60]


class TestEncodingGraphConsistency:
    def test_register_encoding_records_replacement_in_graph(self, domain):
        """Registering an encoding mid-run replaces history.states[-1]: the
        prepared state is the head, and the next commit's window (and so
        the window's graph) starts there."""
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        db.execute(domain.set_salary, "alice", 150)
        pre_registration = db.current
        db.register_encoding(domain.fire_encoding())
        prepared = db.current

        assert prepared != pre_registration  # the FIRE relation was added
        assert prepared.has_relation("FIRE")
        assert db.history.states[-1] is prepared

        # The next execution chains off the prepared state.
        db.execute(domain.fire, "dan")
        assert db.history.states[0] is prepared
        graph = db.history.to_graph()
        assert graph.reachable(prepared, db.current)
        assert [t.label for t in graph.direct_transitions_from(prepared)] == ["fire"]

    def test_register_encoding_on_fresh_db_stays_consistent(self, domain):
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        db.register_encoding(domain.fire_encoding())
        assert db.current.has_relation("FIRE")
        assert db.history.current is db.current
        assert len(db.history) == 1


class TestLazyCandidate:
    def test_no_candidate_copy_without_checkable_constraints(self, domain, monkeypatch):
        """A constraint-free execution must not fork the history window."""
        from repro.db.evolution import History

        db = Database(domain.schema, window=2, initial=domain.sample_state())

        def explode(self):
            raise AssertionError("history forked on a check-free execution")

        monkeypatch.setattr(History, "fork", explode)
        db.execute(domain.set_salary, "alice", 150)
        assert len(db.history) == 2

    def test_trusted_constraints_skip_candidate_copy(self, domain, monkeypatch):
        from repro.db.evolution import History

        domain.schema.add_constraint(domain.once_married())
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        db.trust("once-married", "set-salary")

        def explode(self):
            raise AssertionError("history forked despite full trust")

        monkeypatch.setattr(History, "fork", explode)
        db.execute(domain.set_salary, "alice", 150)
        (skip,) = db.last_record.skipped
        assert "verified preserved" in skip.reason

    def test_candidate_forked_once_when_checking(self, domain, monkeypatch):
        from repro.db.evolution import History

        domain.install_constraints(
            "every-employee-allocated", "alloc-references-project"
        )
        db = Database(domain.schema, window=2, initial=domain.sample_state())
        forks = []
        original = History.fork

        def counting(self):
            forks.append(1)
            return original(self)

        monkeypatch.setattr(History, "fork", counting)
        db.execute(domain.set_salary, "alice", 150)
        assert len(forks) == 1  # one fork serves every checked constraint
        assert db.last_record.ok and len(db.last_record.results) == 2


class TestRehearseMatchesApply:
    """``rehearse`` (the 2PC prepare) and ``apply`` run one constraint loop,
    so a post-state fails both with the same error — even when the first
    constraint is violated and a later one cannot be decided."""

    def build(self, second: Constraint, *, strict: bool = False):
        """A(k, v) under ``size(A) = 0`` then ``second``, and the post-state
        of inserting ("x", 1) — which violates the first constraint."""
        schema = Schema()
        schema.add_relation("A", ("k", "v"))
        schema.add_constraint(
            Constraint("a-empty", b.forall(S, b.holds(S, A_EMPTY)))
        )
        schema.add_constraint(second)
        db = Database(schema, window=2, strict=strict)
        x, y = b.atom_var("x"), b.atom_var("y")
        put = transaction("put", (x, y), b.insert(b.mktuple(x, y), "A"))
        return db, put.run(db.current, "x", 1)

    def test_a_raising_check_after_a_violation(self):
        t = b.ftup_var("t", 2)
        below_5 = b.forall(
            t, b.implies(b.member(t, A), b.lt(b.select(t, 1), b.atom(5)))
        )
        db, after = self.build(
            Constraint("k-below-5", b.forall(S, b.holds(S, below_5)))
        )
        for call in (db.rehearse, db.apply):
            with pytest.raises(EvaluationError, match="expected a number"):
                call(after, label="put")

    def test_an_uncheckable_constraint_after_a_violation_under_strict(self):
        # An existential state needs the unbounded future: uncheckable.
        db, after = self.build(
            Constraint("a-once-empty", b.exists(S, b.holds(S, A_EMPTY))),
            strict=True,
        )
        for call in (db.rehearse, db.apply):
            with pytest.raises(CheckabilityError, match="a-once-empty"):
                call(after, label="put")
