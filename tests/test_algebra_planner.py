"""The query planner end to end: answers, plan caching, fallbacks,
statistics, explain rendering, the verify seam, and the engine/server
wiring.

The planner's contract is the accelerator contract from DESIGN.md §7:
identical observable behavior to the tree walk — same values, same
canonical ordering, same error classes — with ``verify=True`` turning
any lapse into :class:`PlannerMismatch`.  Every database plans by
default, so the walk references here are built with
``interpreter=Interpreter()``.
"""

from __future__ import annotations

import pytest

import repro
from repro import Database, Interpreter, PlannerMismatch, query
from repro.db.state import state_from_rows
from repro.domains import make_domain
from repro.logic import builder as b


@pytest.fixture()
def domain():
    return make_domain()


def fresh_db(domain):
    """A database over the sample state that walks: the reference arm, or
    a base for ``enable_planner``."""
    return Database(
        domain.schema, initial=domain.sample_state(), interpreter=Interpreter()
    )


def names_in_dept(d, dept):
    e = d.emp.var("e")
    return query(
        f"names-in-{dept}",
        (),
        b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.eq(d.emp.attr("e-dept", e), b.atom(dept)),
            ),
        ),
    )


def allocated_names(d):
    e, a = d.emp.var("e"), d.alloc.var("a")
    return query(
        "allocated-names",
        (),
        b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.exists(
                    a,
                    b.land(
                        b.member(a, d.alloc.rel()),
                        b.eq(
                            d.alloc.attr("a-emp", a), d.emp.attr("e-name", e)
                        ),
                    ),
                ),
            ),
        ),
    )


class TestAnswers:
    def test_planned_answers_equal_tree_walk(self, domain):
        queries = [
            names_in_dept(domain, "cs"),
            allocated_names(domain),
            query("headcount", (), b.size_of(b.rel("EMP", 5))),
            query(
                "total-perc",
                (),
                b.sum_of(
                    b.setformer(
                        domain.alloc.attr("perc", domain.alloc.var("a")),
                        domain.alloc.var("a"),
                        b.member(domain.alloc.var("a"), domain.alloc.rel()),
                    )
                ),
            ),
        ]
        plain = fresh_db(domain)
        planned = fresh_db(domain)
        planner = planned.enable_planner()
        for q in queries:
            expected = plain.query(q)
            got = planned.query(q)
            assert type(got) is type(expected)
            # TupleSet equality includes representative order: the
            # executor must reproduce the tree walk's canonical sort.
            assert got == expected, q.name
        assert planner.exec_count >= len(queries)
        assert planner.mismatch_count == 0

    def test_constraint_checking_verdicts_survive_planning(self, domain):
        domain.install_constraints()
        planned = Database(domain.schema, initial=domain.sample_state())
        planned.enable_planner(verify=True)
        # hire violates every-employee-allocated; transfer preserves it.
        with pytest.raises(repro.ConstraintViolation):
            planned.execute(domain.hire, "erin", "cs", 90, 25, "S")
        planned.execute(domain.create_project, "apollo", 10)

    def test_plan_cache_compiles_once(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner()
        q = names_in_dept(domain, "cs")
        db.query(q)
        db.query(q)
        db.query(q)
        assert planner.compiled_count == 1
        assert planner.exec_count == 3

    def test_inexpressible_query_falls_back_silently(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner(verify=True)
        e = domain.emp.var("e")
        # No membership conjunct: the tree walk enumerates the full arity
        # class, which the compiler has no plan level for.
        unnarrowed = query(
            "unnarrowed",
            (),
            b.setformer(
                domain.emp.attr("e-name", e),
                e,
                b.eq(domain.emp.attr("e-dept", e), b.atom("cs")),
            ),
        )
        plain = fresh_db(domain)
        assert db.query(unnarrowed) == plain.query(unnarrowed)
        assert planner.exec_count == 0

    def test_arithmetic_condition_now_plans(self, domain):
        """Arithmetic comparisons are inside the widened fragment: they
        compile to post-join filters instead of forcing a fallback."""
        db = fresh_db(domain)
        planner = db.enable_planner(verify=True)
        e = domain.emp.var("e")
        arithmetic = query(
            "arith",
            (),
            b.setformer(
                domain.emp.attr("e-name", e),
                e,
                b.land(
                    b.member(e, domain.emp.rel()),
                    b.le(
                        b.plus(domain.emp.attr("salary", e), b.atom(0)),
                        b.atom(1000),
                    ),
                ),
            ),
        )
        plain = fresh_db(domain)
        assert db.query(arithmetic) == plain.query(arithmetic)
        assert planner.exec_count == 1
        assert planner.mismatch_count == 0

    def test_budget_metering_still_bites_under_planning(self, domain):
        """The executor ticks the same budget seam, so a fuel limit that
        stops the tree walk stops the planned run too."""
        from repro.transactions.budget import Budget

        q = allocated_names(domain)
        db = fresh_db(domain)
        planner = db.enable_planner()
        with pytest.raises(repro.BudgetExceeded):
            db.query(q, budget=Budget(max_steps=2))
        assert db.query(q, budget=Budget(max_steps=10_000)) is not None
        assert planner.exec_count >= 1


def union_names(d):
    """Employees in cs, or with an allocation — a union plan."""
    e, a = d.emp.var("e"), d.alloc.var("a")
    return query(
        "cs-or-allocated",
        (),
        b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.lor(
                    b.eq(d.emp.attr("e-dept", e), b.atom("cs")),
                    b.exists(
                        a,
                        b.land(
                            b.member(a, d.alloc.rel()),
                            b.eq(
                                d.alloc.attr("a-emp", a),
                                d.emp.attr("e-name", e),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )


class TestWidenedFragment:
    def test_union_query_plans_and_verifies(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner(verify=True)
        plain = fresh_db(domain)
        q = union_names(domain)
        assert db.query(q) == plain.query(q)
        assert planner.exec_count == 1
        assert planner.mismatch_count == 0

    def test_multi_conjunct_exists_chain_plans(self, domain):
        e = domain.emp.var("e")
        a, s = domain.alloc.var("a"), domain.skill.var("s")
        q = query(
            "allocated-and-skilled",
            (),
            b.setformer(
                domain.emp.attr("e-name", e),
                e,
                b.land(
                    b.member(e, domain.emp.rel()),
                    b.exists(
                        a,
                        b.land(
                            b.member(a, domain.alloc.rel()),
                            b.eq(
                                domain.alloc.attr("a-emp", a),
                                domain.emp.attr("e-name", e),
                            ),
                        ),
                    ),
                    b.exists(
                        s,
                        b.land(
                            b.member(s, domain.skill.rel()),
                            b.eq(
                                domain.skill.attr("s-emp", s),
                                domain.emp.attr("e-name", e),
                            ),
                        ),
                    ),
                ),
            ),
        )
        db = fresh_db(domain)
        planner = db.enable_planner(verify=True)
        plain = fresh_db(domain)
        assert db.query(q) == plain.query(q)
        assert planner.exec_count == 1
        assert planner.mismatch_count == 0

    def test_foreach_transaction_runs_through_planner(self, domain):
        """``set-status`` iterates a foreach whose domain now plans; the
        committed state must match the tree walk's exactly."""
        db = fresh_db(domain)
        planner = db.enable_planner(verify=True)
        plain = fresh_db(domain)
        db.execute(domain.marry, "bob", "M")
        plain.execute(domain.marry, "bob", "M")
        assert db.current.relations["EMP"] == plain.current.relations["EMP"]
        assert planner.exec_count >= 1
        assert planner.mismatch_count == 0


class TestErrorParity:
    """A join evaluates predicates on other row combinations than the
    nested enumeration, so a predicate that can raise on the current
    column types goes back to the tree walk (``compiler._totality_checks``):
    planned evaluation raises exactly when the tree walk raises."""

    ILL_TYPED = b.plus(b.atom("x"), b.atom(1))  # raises when evaluated

    def both(self, domain, rows, node, *, is_formula=False):
        """(tree-walk outcome, planned outcome, planner).  The planned side
        runs bare and under ``verify`` (whose oracle would mask a planner
        that returns a value where the tree walk raises)."""
        state = state_from_rows(domain.schema, rows)
        outcomes = []
        for verify in (None, False, True):
            db = Database(domain.schema, initial=state, interpreter=Interpreter())
            planner = None if verify is None else db.enable_planner(verify=verify)
            interp = db.interpreter
            run = interp.eval_formula if is_formula else interp.eval_object
            try:
                outcomes.append(run(db.current, node, None))
            except repro.EvaluationError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[1] == outcomes[2]
        return outcomes[0], outcomes[1], planner

    def rows(self, domain, **override):
        rows = {
            "EMP": [("alice", "cs", 120, 35, "M"), ("bob", "cs", 100, 28, "S")],
            "DEPT": [("cs", "knuth", "b1")],
            "PROJ": [("db", 200)],
            "ALLOC": [("alice", "db", 60), ("bob", "db", 100)],
            "SKILL": [("alice", 1)],
        }
        rows.update(override)
        return rows

    def test_ill_typed_predicate_over_an_empty_domain_does_not_raise(self, domain):
        e = domain.emp.var("e")
        bad = b.eq(domain.emp.attr("salary", e), self.ILL_TYPED)
        former = b.setformer(
            domain.emp.attr("e-name", e), e, b.land(b.member(e, domain.emp.rel()), bad)
        )
        empty = self.rows(domain, EMP=[], ALLOC=[], SKILL=[])
        expected, got, _ = self.both(domain, empty, former)
        assert len(expected) == 0 and got == expected

    def test_ill_typed_forall_guard_over_an_empty_domain_holds(self, domain):
        e = domain.emp.var("e")
        formula = b.forall(
            e,
            b.implies(
                b.land(
                    b.member(e, domain.emp.rel()),
                    b.eq(domain.emp.attr("salary", e), self.ILL_TYPED),
                ),
                b.eq(domain.emp.attr("e-dept", e), b.atom("cs")),
            ),
        )
        empty = self.rows(domain, EMP=[], ALLOC=[], SKILL=[])
        assert self.both(domain, empty, formula, is_formula=True)[:2] == (True, True)

    def test_forall_body_behind_a_failed_conjunct_is_never_evaluated(self, domain):
        e, a = domain.emp.var("e"), domain.alloc.var("a")
        formula = b.forall(
            e,
            b.implies(
                b.member(e, domain.emp.rel()),
                b.land(
                    b.eq(domain.emp.attr("e-dept", e), b.atom("nope")),
                    b.exists(
                        a,
                        b.land(
                            b.member(a, domain.alloc.rel()),
                            b.eq(
                                domain.alloc.attr("a-emp", a),
                                domain.emp.attr("e-name", e),
                            ),
                            b.eq(domain.alloc.attr("perc", a), self.ILL_TYPED),
                        ),
                    ),
                ),
            ),
        )
        outcome = self.both(domain, self.rows(domain), formula, is_formula=True)
        assert outcome[:2] == (False, False)

    def test_error_behind_an_empty_join_is_still_raised(self, domain):
        """The tree walk tests ``salary < 'zz'`` on the first employee,
        before the ``exists`` that no allocation satisfies."""
        e, a = domain.emp.var("e"), domain.alloc.var("a")
        former = b.setformer(
            domain.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, domain.emp.rel()),
                b.lt(domain.emp.attr("salary", e), b.atom("zz")),
                b.exists(
                    a,
                    b.land(
                        b.member(a, domain.alloc.rel()),
                        b.eq(domain.alloc.attr("a-emp", a), b.atom("nobody")),
                    ),
                ),
            ),
        )
        expected, got, _ = self.both(domain, self.rows(domain), former)
        assert expected[0] == "raised" and got == expected

    def test_short_circuit_before_an_ill_typed_row_is_kept(self, domain):
        """``exists`` stops at alice; bob's non-numeric age is never
        compared.  A scan of the whole column would raise."""
        e = domain.emp.var("e")
        formula = b.exists(
            e,
            b.land(
                b.member(e, domain.emp.rel()),
                b.ge(domain.emp.attr("age", e), b.atom(1)),
            ),
        )
        mixed = self.rows(
            domain,
            EMP=[("alice", "cs", 120, 35, "M"), ("bob", "cs", 100, "old", "S")],
        )
        expected, got, planner = self.both(domain, mixed, formula, is_formula=True)
        assert (expected, got) == (True, True)
        assert planner.exec_count == 0 and planner.fallback_count == 1
        # The same query over integer ages is planned.
        assert self.both(domain, self.rows(domain), formula, is_formula=True)[
            2
        ].exec_count == 1


class TestNegativeCache:
    def inexpressible(self, domain):
        e = domain.emp.var("e")
        return query(
            "unnarrowed-neg",
            (),
            b.setformer(
                domain.emp.attr("e-name", e),
                e,
                b.eq(domain.emp.attr("e-dept", e), b.atom("cs")),
            ),
        )

    def negative_entries(self, planner):
        return [v for v in planner._plans.values() if isinstance(v, str)]

    def test_register_encoding_invalidates_negative_cache(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner()
        db.query(self.inexpressible(domain))
        assert len(self.negative_entries(planner)) == 1
        db.register_encoding(domain.fire_encoding())
        assert self.negative_entries(planner) == []

    def test_structural_commit_invalidates_negative_cache(self, domain):
        from repro import transaction

        db = fresh_db(domain)
        planner = db.enable_planner()
        db.query(self.inexpressible(domain))
        fallbacks = planner.fallback_count
        assert len(self.negative_entries(planner)) == 1
        # A commit that creates a relation is structural; the refusal may
        # no longer hold, so the reason cache is dropped and the next
        # evaluation re-attempts compilation.
        db.execute(transaction("copy-emp", (), b.assign("EMP2", b.rel("EMP", 5))))
        assert self.negative_entries(planner) == []
        db.query(self.inexpressible(domain))
        assert planner.fallback_count == fallbacks + 1

    def test_non_structural_commit_keeps_negative_cache(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner()
        db.query(self.inexpressible(domain))
        db.execute(domain.create_project, "apollo", 25)
        assert len(self.negative_entries(planner)) == 1


class TestExplain:
    def test_explain_renders_the_physical_plan(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner()
        plan = planner.plan(allocated_names(domain).body, db.current)
        text = plan.explain()
        assert "Scan" in text
        assert "EMP" in text and "ALLOC" in text
        assert "rows" in text  # cardinality annotations

    def test_explain_renders_a_union_plan(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner()
        plan = planner.plan(union_names(domain).body, db.current)
        text = plan.explain()
        assert "Union" in text
        assert "SemiJoin" in text
        assert "ALLOC" in text

    def test_plan_error_on_inexpressible_node(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner()
        with pytest.raises(repro.PlanError) as exc:
            planner.plan(b.atom(3), db.current)
        assert exc.value.reason


class TestStats:
    def test_explain_reports_the_row_count_of_the_state_it_plans(self, domain):
        """The cost model reads the state being planned, not a counter of
        the current one: planning the pre-commit state reports its rows."""
        db = Database(domain.schema, initial=domain.sample_state())
        planner = db.enable_planner()
        projects = b.rel("PROJ", 2)
        before = db.current
        db.execute(domain.create_project, "apollo", 25)
        rows = len(before.relations["PROJ"])
        assert len(db.current.relations["PROJ"]) == rows + 1
        assert f"~{rows} rows" in planner.plan(projects, before).explain()
        assert f"~{rows + 1} rows" in planner.plan(projects, db.current).explain()

    def test_replaced_relation_gets_fresh_stats(self, domain):
        """A commit that drops and re-creates a relation must not leave
        the predecessor's NDV cache behind: the greedy join order would
        keep ranking a dead relation's statistics."""
        from repro import transaction

        db = fresh_db(domain)
        planner = db.enable_planner()
        # Populate the NDV cache for ALLOC, then replace it wholesale.
        planner.stats.distinct(db.current, "ALLOC", 1)
        assert "ALLOC" in planner.stats._ndv
        db.execute(
            transaction(
                "reset-alloc",
                (),
                b.assign("ALLOC", b.diff(b.rel("ALLOC", 3), b.rel("ALLOC", 3))),
            )
        )
        assert planner.stats.distinct(db.current, "ALLOC", 1) == 0
        # A lazily recomputed NDV reflects the new contents only.
        db.execute(domain.allocate, "alice", "db", 10)
        assert planner.stats.distinct(db.current, "ALLOC", 1) == 1
        assert planner.stats._ndv["ALLOC"][0] is db.current.relations["ALLOC"]

    def test_failed_commit_does_not_move_stats(self, domain):
        domain.install_constraints()
        db = Database(domain.schema, initial=domain.sample_state())
        planner = db.enable_planner()
        employees = b.rel("EMP", 5)
        before = planner.plan(employees, db.current).explain()
        ok, _ = db.try_execute(domain.hire, "erin", "cs", 90, 25, "S")
        assert not ok
        assert planner.plan(employees, db.current).explain() == before


class TestDerivedCache:
    def test_derived_data_dies_with_its_relation_version(self, domain):
        """Representatives, indexes, value sets and group tables are held
        per live relation object: after any number of commits every entry
        belongs to a relation some window state still holds."""
        domain.install_constraints(
            "allocation-within-limit", "skill-retention", "dept-deletion-precondition"
        )
        db = Database(domain.schema, window=3, initial=domain.sample_state())
        planner = db.enable_planner()
        for round_no in range(8):
            db.execute(domain.birthday, "alice")
            db.execute(domain.add_skill, "bob", 10 + round_no)
            db.execute(domain.allocate, "carol", "db", 1 + round_no)
        held = {id(r) for state in db.history.states for r in state.relations.values()}
        assert planner._derived and set(planner._derived) <= held
        for ref, tables in planner._derived.values():
            assert ref() is not None and tables


class TestVerifyAndQuarantine:
    def test_verify_raises_planner_mismatch_on_corruption(self, domain):
        db = fresh_db(domain)
        planner = db.enable_planner(verify=True)
        planner._chaos_corrupt = True
        with pytest.raises(PlannerMismatch):
            db.query(query("headcount", (), b.size_of(b.rel("EMP", 5))))


class TestWiring:
    def test_package_root_exports(self):
        for name in ("QueryPlanner", "Plan", "PlanError", "PlannerMismatch"):
            assert hasattr(repro, name)
            assert name in repro.__all__

    def test_enable_planner_survives_tracking_wrap(self, domain):
        from repro.concurrent.tracking import TrackingInterpreter

        db = fresh_db(domain)
        db.enable_planner()
        tracking = TrackingInterpreter.wrapping(db.interpreter)
        assert tracking.planner is db._planner

    def test_a_database_plans_unless_given_an_interpreter(self, domain):
        planned = Database(domain.schema)
        assert planned.interpreter.planner is not None
        assert planned.interpreter.planner is planned._planner
        assert planned._planner.metrics is planned.metrics
        walk = Database(domain.schema, interpreter=Interpreter())
        assert walk.interpreter.planner is None and walk._planner is None

    def test_a_served_query_on_a_default_database_is_planned(self, domain):
        from repro.server import Client, TransactionServer

        db = Database(domain.schema, initial=domain.sample_state())
        headcount = query("headcount", (), b.size_of(b.rel("EMP", 5)))
        server = TransactionServer(db, [headcount])
        server.start()
        try:
            with Client(*server.address) as client:
                assert client.query("headcount") == 4
        finally:
            server.close()
        planned = db.metrics.get("repro_planner_evals_total", outcome="planned")
        assert planned is not None and planned.value >= 1
