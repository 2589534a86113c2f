"""Window plans: the paper's transaction constraints as cross-version joins.

A closed situational ``forall`` prefix over states, transitions and tuples
compiles to a :class:`~repro.algebra.compiler.WindowQuery` whose row slots
are *(tuple variable, state term)* pairs.  The tree walk of
:class:`~repro.constraints.semantics.Evaluator` stays the definition; these
tests hold the plan to it — on shape, on verdict, and on the error raised.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Database, transaction
from repro.algebra.compiler import Incompilable, WindowQuery, compile_window
from repro.algebra.executor import window_stages
from repro.algebra.ir import Cmp, Col, Disj, Lit, Member, Residual
from repro.algebra.planner import QueryPlanner
from repro.constraints.checker import check_history, check_state, check_transition
from repro.constraints.model import Constraint
from repro.constraints.semantics import Evaluator, PartialModel
from repro.db.evolution import History
from repro.db.schema import Schema
from repro.db.state import state_from_rows
from repro.db.values import DBTuple
from repro.errors import ConstraintViolation, PlanError, PlannerMismatch
from repro.logic import builder as b
from repro.transactions.interpreter import Interpreter

import tests.test_paper_examples as paper
import tests.test_theory_axioms as axioms


def planned_interpreter(**options) -> Interpreter:
    return Interpreter(planner=QueryPlanner(**options))


# ---------------------------------------------------------------------------
# (a) compile shapes
# ---------------------------------------------------------------------------


def slot_names(q):
    return [[s.var.name for s in group] for group in q.groups]


class TestCompileShapes:
    def test_once_married_is_one_scan_of_two_slots(self, domain):
        q = compile_window(domain.once_married().formula)
        assert q.terms == ((None, "s"), (0, "s;t"))
        assert slot_names(q) == [["e@s", "e@s;t"]]
        assert q.preds[:2] == (Member(0, 0, "EMP", 5), Member(1, 1, "EMP", 5))
        # Both ages sit behind a membership: EMP types them, at every state.
        assert q.checks == (("column", ("EMP", 4)),)
        (local, keys, residual), = window_stages(q)
        assert (len(local), keys, residual) == (4, [], [])
        assert q.conclusion == (Cmp("ne", Col(1, 5), Lit("S")),)
        assert q.residuals == ()

    def test_skill_retention_hash_joins_skill_to_employee(self, domain):
        q = compile_window(domain.skill_retention().formula)
        # k is read at s (premise) and at s;t (conclusion).
        assert slot_names(q) == [["e@s", "e@s;t"], ["k@s", "k@s;t"]]
        emp, skill = window_stages(q)
        assert emp == ([Member(0, 0, "EMP", 5), Member(1, 1, "EMP", 5)], [], [])
        local, keys, residual = skill
        assert local == [Member(2, 0, "SKILL", 2)]
        assert keys == [(Col(0, 1), Col(2, 1))]  # s:e-name(e) probes s:s-emp(k)
        assert residual == []
        assert q.conclusion == (Member(3, 1, "SKILL", 2),)

    def test_salary_constraint_concludes_in_a_pure_disjunction(self, domain):
        q = compile_window(domain.salary_decrease_needs_dept_change().formula)
        (conclusion,) = q.conclusion
        assert isinstance(conclusion, Disj)
        assert conclusion.branches == (
            (Cmp("le", Col(0, 3), Col(1, 3)),),
            (Cmp("ne", Col(0, 2), Col(1, 2)),),
        )
        assert q.checks == (("column", ("EMP", 3)),)

    def test_project_cascade_keeps_its_inner_exists_as_a_residual(self, domain):
        q = compile_window(domain.project_deletion_cascades().formula)
        assert q.preds == (
            Member(0, 0, "PROJ", 2),
            Member(1, 1, "PROJ", 2, negated=True),
        )
        (residual,) = q.conclusion
        assert isinstance(residual, Residual) and residual.negated
        assert residual.term == 1
        assert [(v.name, slot) for v, slot in residual.binds] == [("p", 1)]

    def test_two_state_variables_are_two_root_terms(self, domain):
        q = compile_window(domain.once_married_wrong().formula)
        assert q.terms == ((None, "s1"), (None, "s2"))

    def test_a_concrete_delete_is_regressed_to_its_base_term(self, domain):
        """``(s;delete3(d, DEPT))::d ∈ DEPT`` becomes ``s::(d ∈ DEPT ∧ d ≠ d)``
        by the delete action axiom: one state term, the premise split into a
        pushed-down membership and the ``not exists`` residual."""
        q = compile_window(domain.dept_deletion_precondition().formula)
        assert q.terms == ((None, "s"),) and slot_names(q) == [["d@s"]]
        assert q.preds == (Member(0, 0, "DEPT", 3),)
        (premise,), (conclusion,) = q.residuals, q.conclusion
        assert "exists" in str(premise.formula) and not premise.negated
        assert conclusion.negated and str(conclusion.formula) == "d in DEPT & (~(d = d))"
        assert q.regressed == (("DEPT", 3, "s;delete3(d, DEPT)"),)

    def test_a_static_constraint_is_the_degenerate_window_plan(self, domain):
        q = compile_window(domain.allocation_within_limit().formula)
        assert q.terms == ((None, "s"),) and q.groups == () == q.preds
        (body,) = q.conclusion
        assert isinstance(body, Residual) and body.binds == () and body.term == 0
        assert body.formula == domain.allocation_within_limit().formula.body.formula

    @pytest.mark.parametrize(
        "constraint, reason",
        [
            ("never_rehire", "prefix variable n"),
            ("invertibility", "Forall inside a predicate"),
            ("no_eternal_project", "Exists inside a predicate"),
        ],
    )
    def test_refusals_outside_the_fragment_name_their_reason(
        self, domain, constraint, reason
    ):
        with pytest.raises(Incompilable, match=reason):
            compile_window(getattr(domain, constraint)().formula)

    def test_refusals_of_hand_built_shapes(self, domain):
        s, t, t2 = b.state_var("s"), b.trans_var("t"), b.trans_var("t2")
        e, k = domain.emp.var("e"), domain.skill.var("k")
        after = b.after(s, t)
        in_emp = b.holds(s, b.member(e, domain.emp.rel()))
        age = lambda w: b.at(w, domain.emp.attr("age", e))
        cases = {
            # δ-translated transition equality: t outside any ``w;t``.
            "variable t outside a state term": b.forall(
                [s, t, t2, e],
                b.implies(in_emp, b.eq(t, b.seq(t, t2))),
            ),
            "transition variable t applied twice": b.forall(
                [s, t, e],
                b.implies(in_emp, b.holds(b.after(after, t), b.member(e, domain.emp.rel()))),
            ),
            # Nothing types ``age`` before it is compared.
            "no earlier membership types": b.forall(
                [s, t, e], b.implies(b.lt(age(s), age(after)), in_emp)
            ),
            "residual w::p precedes a join predicate": b.forall(
                [s, e],
                b.implies(
                    b.land(
                        b.holds(s, b.exists(k, b.member(k, domain.skill.rel()))),
                        in_emp,
                    ),
                    b.neq(b.at(s, domain.emp.attr("m-status", e)), b.atom("S")),
                ),
            ),
            "prefix variable n": b.forall(
                [s, e, b.atom_var("n")], b.implies(in_emp, in_emp)
            ),
            "prefix variable x": b.forall(
                [s, e, domain.emp.svar("x")], b.implies(in_emp, in_emp)
            ),
            "unused": b.forall([s, e, k], b.implies(in_emp, in_emp)),
            "not closed": b.forall(e, in_emp),
            # Only ``delete(v, R)`` has a run-time guard for its axioms.
            "concrete transaction in state term s;insert5": b.forall(
                [s, e],
                b.implies(
                    in_emp,
                    b.holds(b.after(s, b.insert(e, domain.emp.rid())), b.member(e, domain.emp.rel())),
                ),
            ),
            "concrete transaction in state term s;delete5": b.forall(
                [s, t, e],
                b.implies(
                    in_emp,
                    b.holds(
                        b.after(b.after(s, b.delete(e, domain.emp.rid())), t),
                        b.member(e, domain.emp.rel()),
                    ),
                ),
            ),
        }
        for reason, formula in cases.items():
            with pytest.raises(Incompilable, match=reason):
                compile_window(formula)

    def test_plan_renders_the_window_or_raises_the_reason(self, domain, sample_state):
        planner = QueryPlanner()
        model = PartialModel.of_states([sample_state])
        text = planner.plan(domain.skill_retention().formula, model).explain()
        assert text.splitlines() == [
            "Select not (#3 in SKILL)",
            "  HashJoin on #0.1 = #2.1",
            "    Scan tup(5) as e@s(#0) e@s;t(#1) where #0 in EMP and #1 in EMP",
            "    Scan tup(2) as k@s(#2) k@s;t(#3) where #2 in SKILL",
        ]
        text = planner.plan(domain.dept_deletion_precondition().formula, model).explain()
        assert text.splitlines() == [
            "Regress s;delete3(d, DEPT) by the delete axioms",
            "  Select not (not [d in DEPT & (~(d = d))])",
            "    Select [~(exists[tup(5)] e. e in EMP & (e-dept(e) = d-name(d)))]",
            "      Scan tup(3) as d@s(#0) where #0 in DEPT",
        ]
        static = planner.plan(domain.every_employee_allocated().formula, model).explain()
        assert static.splitlines()[1:] == ["  Scan states as s(#0)"]
        with pytest.raises(PlanError, match="Forall inside a predicate"):
            planner.plan(domain.invertibility().formula, model)


# ---------------------------------------------------------------------------
# planner satellites: counters and the identity-keyed plan cache
# ---------------------------------------------------------------------------


WINDOW_PLANNED = (
    "once-married",
    "skill-retention",
    "salary-decrease-needs-dept-change",
    "project-deletion-cascades",
)


def evals(db, outcome):
    counter = db.metrics.get("repro_planner_evals_total", outcome=outcome)
    return 0 if counter is None else counter.value


class TestPlannerCounters:
    def stream(self, domain, db):
        db.execute(domain.set_salary, "alice", 130)
        db.execute(domain.birthday, "bob")
        db.execute(domain.add_skill, "carol", 9)
        db.execute(domain.transfer, "alice", "ee", 90)
        with pytest.raises(ConstraintViolation, match="salary-decrease"):
            db.execute(domain.set_salary, "bob", 1)

    def test_planned_constraints_never_fall_back(self, domain, sample_state):
        domain.install_constraints(*WINDOW_PLANNED)
        db = Database(domain.schema, window=3, initial=sample_state)
        planner = db.enable_planner()
        self.stream(domain, db)
        assert evals(db, "fallback") == 0 == planner.fallback_count
        # Five commits × four constraints, plus the cascade's inner exists
        # whenever a row reaches it.
        assert evals(db, "planned") == planner.exec_count >= 20

    def test_every_refused_evaluation_counts(self, domain, sample_state):
        domain.install_constraints("never-rehire")
        db = Database(domain.schema, window=None, initial=sample_state)
        planner = db.enable_planner()
        for age in range(3):
            db.execute(domain.birthday, "alice")
            # One top-level refusal per check, not one per plan-cache miss.
            assert planner.fallback_count == age + 1 == evals(db, "fallback")
        with pytest.raises(PlanError, match="prefix variable n of sort atom"):
            planner.plan(
                domain.never_rehire().formula, PartialModel.of_history(db.history)
            )

    def test_an_identity_hit_does_not_hash_the_node(self, domain, sample_state, monkeypatch):
        from repro.logic.formulas import Forall

        formula = domain.skill_retention().formula
        interp = planned_interpreter()
        model = PartialModel.of_states([sample_state], interp)
        assert Evaluator(model).holds(formula)
        hashed = []
        plain_hash = Forall.__hash__
        monkeypatch.setattr(
            Forall, "__hash__", lambda self: hashed.append(self) or plain_hash(self)
        )
        assert Evaluator(model).holds(formula)
        assert hashed == [] and interp.planner.exec_count == 2
        # An equal but distinct node misses by identity, pays the structural
        # hash once, and shares the plan.
        twin = domain.skill_retention().formula
        assert twin is not formula
        assert Evaluator(model).holds(twin)
        assert hashed and interp.planner.compiled_count == 1

    def test_invalidate_negative_clears_both_tables(self, domain, sample_state):
        interp = planned_interpreter()
        model = PartialModel.of_states([sample_state], interp)
        refused = domain.never_rehire().formula
        kept = domain.once_married().formula
        for formula in (refused, kept):
            Evaluator(model).holds(formula)
        planner = interp.planner
        planner.invalidate_negative()
        assert [v for v in planner._plans.values() if isinstance(v, str)] == []
        assert [n for n, v in planner._plans_by_id.values() if isinstance(v, str)] == []
        nodes = [n for n, _ in planner._plans_by_id.values()]
        assert kept in nodes and refused not in nodes


# ---------------------------------------------------------------------------
# (b) the seeded agreement harness
# ---------------------------------------------------------------------------

ATOMS = {"str": ["a", "b", "c"], "int": [1, 2, 3, 7]}


def gen_value(rng, typ, stray=0.03):
    if rng.random() < stray:
        typ = "int" if typ == "str" else "str"
    return rng.choice(ATOMS[typ])


def gen_schema(rng):
    """Two relations of one arity (sometimes typed differently) and maybe a
    third of any arity."""
    schema = Schema()
    arity = rng.randint(1, 3)
    arities = [arity, arity] + ([rng.randint(1, 3)] if rng.random() < 0.6 else [])
    rels = []
    for i, n in enumerate(arities):
        rel = schema.add_relation(f"R{i}", tuple(f"c{i}{j}" for j in range(n)))
        if i == 1 and rng.random() < 0.6:
            types = rels[0][1]
        else:
            types = tuple(rng.choice(["str", "int"]) for _ in range(n))
        rels.append((rel, types))
    return schema, rels


def gen_state(rng, schema, rels):
    rows = {
        rel.name: [tuple(gen_value(rng, t) for t in types) for _ in range(rng.randint(0, 4))]
        for rel, types in rels
    }
    return state_from_rows(schema, rows)


def gen_commit(rng, state, rels):
    """One commit of one or two ops: insert, delete, modify, nothing (a
    content-equal state: a self-loop), re-insert a deleted row's values
    under a fresh identifier, or move a tuple — identifier and all — into
    the other relation of its arity."""
    for _ in range(rng.randint(1, 2)):
        rel, types = rels[rng.randrange(len(rels))]
        live = list(state.relation(rel.name))
        op = rng.choice(["insert", "delete", "modify", "noop", "reinsert", "move"])
        if op == "insert" or (not live and op != "noop"):
            fresh = DBTuple(None, tuple(gen_value(rng, t) for t in types))
            state, _ = state.insert_tuple(rel.name, fresh)
        elif op == "delete":
            state = state.delete_tuple(rel.name, rng.choice(live))
        elif op == "modify":
            i = rng.randrange(len(types))
            state = state.modify_tuple(rng.choice(live), i + 1, gen_value(rng, types[i]))
        elif op == "reinsert":
            victim = rng.choice(live)
            state = state.delete_tuple(rel.name, victim)
            state, _ = state.insert_tuple(rel.name, DBTuple(None, victim.values))
        elif op == "move" and rel.name in ("R0", "R1"):
            victim = rng.choice(live)
            other = "R1" if rel.name == "R0" else "R0"
            state = state.delete_tuple(rel.name, victim)
            state, _ = state.insert_tuple(other, victim)
    return state


def gen_history(rng, schema, rels):
    """1–4 states, each commit a :func:`gen_commit`."""
    state = gen_state(rng, schema, rels)
    history = History(window=None)
    history.start(state)
    for step in range(rng.randint(0, 3)):
        state = gen_commit(rng, state, rels)
        history.advance(state, f"tx{step}")
    return history


def gen_compare(rng, lhs, rhs, typ):
    if typ == "int" and rng.random() < 0.6:
        return rng.choice([b.lt, b.le, b.gt, b.ge])(lhs, rhs)
    if rng.random() < 0.08:  # an ordered comparison nothing makes safe
        return b.lt(lhs, rhs)
    return rng.choice([b.eq, b.neq])(lhs, rhs)


def gen_window_formula(rng, rels, delete=False):
    """A random closed formula around the window fragment (and a little
    past it: unguarded comparisons, early residuals, stray literals).  With
    ``delete`` its second state term is ``s;delete(v0, R)``, ``R`` the
    relation of the first variable."""
    s, t, t2, s2 = b.state_var("s"), b.trans_var("t"), b.trans_var("t2"), b.state_var("s2")
    shape = 1.0 if delete else rng.random()
    if shape < 0.6:
        prefix, terms = [s, t], [s, b.after(s, t)]
    elif shape < 0.8:
        prefix, terms = [s, t, t2], [s, b.after(s, t), b.after(b.after(s, t), t2)]
    else:
        prefix, terms = [s, s2], [s, s2]
    handles = []
    for i in range(rng.choice([1, 1, 2])):
        rel, types = rels[rng.randrange(len(rels))]
        handles.append((rel, types, rel.var(f"v{i}")))
    if delete:
        rel, _, var = handles[0]
        prefix, terms = [s], [s, b.after(s, b.delete(var, rel.rid()))]

    def column(handle, term, index=None):
        rel, types, var = handle
        i = rng.randrange(len(types)) if index is None else index
        return b.at(term, rel.attr(rel.attributes[i], var)), types[i], i

    def membership(handle, term):
        rel, types, var = handle
        # Usually the variable's own relation; sometimes its equal-arity twin.
        twins = [r for r, _ in rels if r.arity == rel.arity]
        target = rel if rng.random() < 0.8 else rng.choice(twins)
        return b.holds(term, b.member(var, target.rel()))

    def comparison(handle):
        roll = rng.random()
        if roll < 0.4:  # the same tuple across two states
            w1, w2 = rng.sample(terms, 2) if len(terms) > 1 else (terms[0], terms[0])
            lhs, typ, i = column(handle, w1)
            rhs, _, _ = column(handle, w2, i)
            return gen_compare(rng, lhs, rhs, typ)
        if roll < 0.6 and len(handles) > 1:  # a join across variables, mostly equi
            other = handles[1] if handle is handles[0] else handles[0]
            term = rng.choice(terms)
            lhs, typ, _ = column(handle, term)
            matches = [j for j, u in enumerate(other[1]) if u == typ]
            if matches:
                rhs, _, _ = column(other, rng.choice(terms), rng.choice(matches))
                return b.eq(lhs, rhs) if rng.random() < 0.6 else gen_compare(rng, lhs, rhs, typ)
        term = rng.choice(terms)
        lhs, typ, i = column(handle, term)
        literal = b.atom(gen_value(rng, typ, stray=0.05))
        if rng.random() < 0.3:  # a pure f-predicate inside ``w::``
            rel, _, var = handle
            inner = gen_compare(rng, rel.attr(rel.attributes[i], var), literal, typ)
            return b.holds(term, inner)
        return gen_compare(rng, lhs, literal, typ)

    def residual(handle):
        rel, types, var = handle
        sub_rel, sub_types = rels[rng.randrange(len(rels))]
        u = sub_rel.var("u")
        inner = [b.member(u, sub_rel.rel())]
        pairs = [
            (i, j) for i, a in enumerate(sub_types) for j, c in enumerate(types) if a == c
        ]
        if pairs:
            i, j = rng.choice(pairs)
            inner.append(
                b.eq(sub_rel.attr(sub_rel.attributes[i], u), rel.attr(rel.attributes[j], var))
            )
        found = b.holds(rng.choice(terms), b.exists(u, b.land(*inner)))
        return found if rng.random() < 0.5 else b.lnot(found)

    premise = []
    for handle in handles:
        for term in terms:
            if rng.random() < 0.7:
                member = membership(handle, term)
                premise.append(member if rng.random() < 0.85 else b.lnot(member))
        for _ in range(rng.choice([0, 1, 1, 2])):
            premise.append(comparison(handle))
    if rng.random() < 0.1:
        rng.shuffle(premise)  # comparisons ahead of their memberships
    if rng.random() < 0.25:
        premise.insert(
            rng.randrange(len(premise) + 1) if rng.random() < 0.2 else len(premise),
            residual(rng.choice(handles)),
        )
    handle = rng.choice(handles)
    roll = rng.random()
    if roll < 0.35:
        conclusion = membership(handle, terms[-1])
    elif roll < 0.6:
        conclusion = comparison(handle)
    elif roll < 0.8:
        conclusion = b.lor(comparison(handle), comparison(rng.choice(handles)))
    else:
        conclusion = residual(handle)
    if not premise or rng.random() < 0.05:
        body = conclusion
    else:
        body = b.implies(b.land(*premise), conclusion)
    prefix += [h[2] for h in handles]
    if rng.random() < 0.3:
        rng.shuffle(prefix)  # the walk nests differently; the verdict may not
    return b.forall(prefix, body)


def verdict(formula, history, interpreter):
    """``(ok, error class)`` — what a caller of ``check_history`` observes."""
    try:
        return check_history(Constraint("c", formula), history, interpreter).ok, None
    except PlannerMismatch:
        raise
    except Exception as exc:
        return None, type(exc).__name__


@pytest.mark.parametrize("seed", range(24))
def test_window_plans_and_the_walk_agree_on_random_histories(seed):
    rng = random.Random(seed)
    planned_total = violated = raised = 0
    for round_no in range(5):
        schema, rels = gen_schema(rng)
        history = gen_history(rng, schema, rels)
        plain = Interpreter()
        planned = planned_interpreter(verify=seed % 2 == 0)
        for _ in range(8):
            formula = gen_window_formula(rng, rels)
            expected = verdict(formula, history, plain)
            got = verdict(formula, history, planned)
            assert got == expected, (seed, round_no, str(formula))
            violated += expected[0] is False
            raised += expected[1] is not None
        planned_total += planned.planner.exec_count
        assert planned.planner.mismatch_count == 0
    # The generator must exercise the planned path, both verdicts included.
    assert planned_total >= 12, planned_total
    assert violated >= 2, violated


def test_the_harness_reaches_errors_and_refusals():
    """Some generated formulas raise in the walk and some are refused: the
    agreement above is not vacuous on either."""
    raised = refused = 0
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(6):
            schema, rels = gen_schema(rng)
            history = gen_history(rng, schema, rels)
            for _ in range(10):
                formula = gen_window_formula(rng, rels)
                raised += verdict(formula, history, Interpreter())[1] is not None
                try:
                    compile_window(formula)
                except Incompilable:
                    refused += 1
    assert raised >= 5 and refused >= 20, (raised, refused)


# ---------------------------------------------------------------------------
# (b') the same harness for a regressed state term: ``s;delete3(d, DEPT)``
# ---------------------------------------------------------------------------


def gen_dept_history(rng, domain):
    """1–4 states of the employee schema around ``DEPT``: a row deleted and
    re-inserted under a fresh identifier (the window's domain keeps the dead
    twin; membership is by value, ``delete3`` by identifier), renamed in
    place (a stale copy — sometimes onto another row's values, two rows of
    one value), departments emptied and re-populated, an ``ALLOC`` row with
    a department's values, and now and then a state without ``DEPT``."""
    depts = [("cs", "knuth", "b1"), ("ee", "shannon", "b2"), ("ops", "taylor", "b3")]
    names = ["cs", "ee", "ops", "lab"]
    state = state_from_rows(
        domain.schema,
        {
            "DEPT": rng.sample(depts, rng.randint(1, 3)),
            "EMP": [
                (f"e{i}", rng.choice(names), 100, 30, "S") for i in range(rng.randint(0, 3))
            ],
            "ALLOC": [rng.choice(depts)] if rng.random() < 0.3 else [],
            "PROJ": [],
            "SKILL": [],
        },
    )
    history = History(window=None)
    history.start(state)
    for step in range(rng.randint(0, 3)):
        for _ in range(rng.randint(1, 2)):
            live = list(state.relation("DEPT"))
            staff = list(state.relation("EMP"))
            op = rng.choice(["reinsert", "reinsert", "delete", "insert", "rename", "move", "fire"])
            if op == "insert" or (not live and op in ("reinsert", "delete", "rename")):
                state, _ = state.insert_tuple("DEPT", DBTuple(None, rng.choice(depts)))
            elif op == "reinsert":
                victim = rng.choice(live)
                state = state.delete_tuple("DEPT", victim)
                state, _ = state.insert_tuple("DEPT", DBTuple(None, victim.values))
            elif op == "delete":
                state = state.delete_tuple("DEPT", rng.choice(live))
            elif op == "rename":
                victim, values = rng.choice(live), rng.choice(depts)
                for i, value in enumerate(values):
                    state = state.modify_tuple(victim, i + 1, value)
            elif op == "move" and staff:
                state = state.modify_tuple(rng.choice(staff), 2, rng.choice(names))
            elif op == "fire" and staff:
                state = state.delete_tuple("EMP", rng.choice(staff))
        history.advance(state, f"tx{step}")
    if rng.random() < 0.1:
        dropped = {n: r for n, r in state.relations.items() if n != "DEPT"}
        owners = {tid: n for tid, n in state.owner.items() if n != "DEPT"}
        history.advance(state.with_relations(dropped, owners), "drop")
    return history


@pytest.mark.parametrize("seed", range(24))
def test_a_regressed_delete_and_the_walk_agree_on_random_histories(seed, domain):
    """``dept-deletion-precondition``: the plan evaluates the delete axioms,
    the walk runs ``delete3`` — one verdict, one error class, every plan
    under ``verify``.  Where the axioms are not the interpreter (twins of one
    value, a stale copy of a ``DEPT`` row) the plan hands back."""
    rng = random.Random(2000 + seed)
    formula = domain.dept_deletion_precondition().formula
    planned = planned_interpreter(verify=True)
    handed_back = 0
    for round_no in range(10):
        history = gen_dept_history(rng, domain)
        expected = verdict(formula, history, Interpreter())
        assert verdict(formula, history, planned) == expected, (seed, round_no)
        if planned.planner.fallback_count == handed_back:  # answered by the plan
            assert expected == (True, None)  # the axioms say it cannot fail
        handed_back = planned.planner.fallback_count
    assert planned.planner.mismatch_count == 0 and handed_back < 10


@pytest.mark.parametrize("seed", range(12))
def test_regressed_formulas_and_the_walk_agree_on_random_histories(seed):
    """The generic generator with ``s;delete(v0, R)`` as its second state
    term: memberships, columns read across the delete (the frame axiom) and
    residual quantifiers over the shrunken relation, all under ``verify``."""
    rng = random.Random(3000 + seed)
    regressed = 0
    for round_no in range(5):
        schema, rels = gen_schema(rng)
        history = gen_history(rng, schema, rels)
        planned = planned_interpreter(verify=True)
        for _ in range(8):
            formula = gen_window_formula(rng, rels, delete=True)
            expected = verdict(formula, history, Interpreter())
            assert verdict(formula, history, planned) == expected, (seed, round_no, str(formula))
        regressed += planned.planner.exec_count
        assert planned.planner.mismatch_count == 0
    assert regressed >= 5, regressed


def test_the_delete_harness_reaches_every_corner(domain):
    """Plans that ran, plans handed back with either verdict (a violation
    needs two rows of one value), and the error of a missing ``DEPT``."""
    formula = domain.dept_deletion_precondition().formula
    seen = set()
    for seed in range(24):
        rng = random.Random(2000 + seed)
        for _ in range(10):
            fresh = planned_interpreter()
            outcome = verdict(formula, gen_dept_history(rng, domain), fresh)
            seen.add((outcome, fresh.planner.fallback_count == 0))
    assert seen == {
        ((True, None), True),
        ((True, None), False),
        ((False, None), False),
        ((None, "EvaluationError"), False),
    }


# ---------------------------------------------------------------------------
# directed window corners
# ---------------------------------------------------------------------------


def both(formula, states, **options):
    """``(walk verdict, planned verdict, planner)`` over a chain of states."""
    history = History(window=None)
    history.start(states[0])
    for i, state in enumerate(states[1:]):
        history.advance(state, f"tx{i}")
    planned = planned_interpreter(**options)
    return (
        verdict(formula, history, Interpreter()),
        verdict(formula, history, planned),
        planned.planner,
    )


class TestWindowCorners:
    def test_a_violation_two_hops_apart_is_found(self, domain, sample_state):
        """"Nobody ages two years inside the window" breaks only on the
        composed transition: the assignment ``(s0, s2)`` must be enumerated."""
        s, t, e = b.state_var("s"), b.trans_var("t"), domain.emp.var("e")
        after = b.after(s, t)
        age = lambda w: b.at(w, domain.emp.attr("age", e))
        formula = b.forall(
            [s, t, e],
            b.implies(
                b.land(
                    b.holds(s, b.member(e, domain.emp.rel())),
                    b.holds(after, b.member(e, domain.emp.rel())),
                ),
                b.lt(age(after), b.plus(age(s), b.atom(2))),
            ),
        )
        s1 = domain.birthday.run(sample_state, "alice")
        s2 = domain.birthday.run(s1, "alice")
        walk, planned, planner = both(formula, [sample_state, s1, s2], verify=True)
        assert walk == planned == (False, None) and planner.exec_count == 1
        assert both(formula, [sample_state, s1], verify=True)[1] == (True, None)

    def test_each_distinct_state_pair_is_joined_once(self, domain, sample_state):
        """A 3-state window has 6 applicable ``(s, s;t)`` pairs; a no-op
        commit adds a self-loop, not a state."""
        from repro.algebra.executor import _assignments

        s1 = domain.birthday.run(sample_state, "alice")
        s2 = domain.birthday.run(s1, "bob")
        q = compile_window(domain.once_married().formula)
        for states, pairs in (([sample_state, s1, s2], 6), ([sample_state, s1, s1], 3)):
            model = PartialModel.of_states(states)
            found = list(_assignments(model, model.states(), q.terms))
            assert len(found) == len(set(found)) == pairs

    def test_a_rehired_tuple_is_not_the_fired_one(self, domain, sample_state):
        """Delete-then-reinsert of equal values under a fresh identifier:
        the dead identifier dereferences to its snapshot, whose *value* is
        back in EMP — exactly what the walk sees."""
        fired = domain.fire.run(sample_state, "dan")
        rehired = domain.hire.run(fired, "dan", "ops", 80, 52, "S")
        for constraint in (domain.once_married(), domain.skill_retention()):
            walk, planned, planner = both(
                constraint.formula, [sample_state, fired, rehired], verify=True
            )
            assert walk == planned and planner.exec_count >= 1

    def test_an_identifier_moved_between_equal_arity_relations(self):
        schema = Schema()
        a = schema.add_relation("A", ("x", "y"))
        other = schema.add_relation("B", ("x", "y"))
        s0 = state_from_rows(schema, {"A": [(1, 5), (2, 6)], "B": [(3, 7)]})
        victim = next(iter(s0.relation("A")))
        s1, _ = s0.delete_tuple("A", victim).insert_tuple("B", victim)
        s, t, v = b.state_var("s"), b.trans_var("t"), a.var("v")
        after = b.after(s, t)
        stays = b.forall(
            [s, t, v],
            b.implies(
                b.holds(s, b.member(v, a.rel())), b.holds(after, b.member(v, a.rel()))
            ),
        )
        walk, planned, planner = both(stays, [s0, s1], verify=True)
        assert walk == planned == (False, None) and planner.exec_count == 1
        moves = b.forall(
            [s, t, v],
            b.implies(
                b.land(
                    b.holds(s, b.member(v, a.rel())),
                    b.lnot(b.holds(after, b.member(v, a.rel()))),
                ),
                b.holds(after, b.member(v, other.rel())),
            ),
        )
        assert both(moves, [s0, s1], verify=True)[:2] == ((True, None),) * 2

    def test_prefix_order_inside_the_fragment_does_not_matter(self, domain, sample_state):
        s, t, e = b.state_var("s"), b.trans_var("t"), domain.emp.var("e")
        body = domain.once_married().formula.body.body.body
        step = lambda w, status: domain.marry.run(
            domain.birthday.run(w, "alice"), "alice", status
        )
        # Single, married, single again: only the last arc violates.
        states = [step(sample_state, "S")]
        states += [step(states[0], "M")]
        states += [step(states[1], "S")]
        for prefix in ([s, t, e], [e, s, t], [s, e, t]):
            walk, planned, planner = both(b.forall(prefix, body), states, verify=True)
            assert walk == planned == (False, None) and planner.exec_count == 1
        # With ``t`` quantified outside ``s`` the walk drops a whole binding
        # of ``t`` at the first state it does not apply at — here before it
        # reaches the violating pair.  Outside the fragment: the walk's own.
        with pytest.raises(Incompilable, match="t is quantified outside its state term"):
            compile_window(b.forall([t, s, e], body))
        walk, planned, planner = both(b.forall([t, s, e], body), states)
        assert walk == planned == (True, None) and planner.exec_count == 0


# ---------------------------------------------------------------------------
# (c) error parity: the planned path raises exactly when the walk does
# ---------------------------------------------------------------------------


class TestWindowErrorParity:
    def rows(self, domain, **rows):
        base = {
            "EMP": [("alice", "cs", 120, 35, "M"), ("bob", "cs", 100, 41, "S")],
            "SKILL": [("alice", 1), ("bob", 2)],
            "PROJ": [("db", 40)],
        }
        base.update(rows)
        return state_from_rows(domain.schema, base)

    def test_ill_typed_operand_raises_on_both_sides(self, domain):
        s, e = b.state_var("s"), domain.emp.var("e")
        formula = b.forall(
            [s, e],
            b.implies(
                b.holds(s, b.member(e, domain.emp.rel())),
                b.lt(b.at(s, domain.emp.attr("age", e)), b.atom("x")),
            ),
        )
        walk, planned, planner = both(formula, [self.rows(domain)])
        assert walk == planned == (None, "ValueError")
        assert planner.exec_count == 0 and planner.fallback_count == 1

    def test_stray_cell_hands_the_formula_to_the_walk(self, domain):
        """An EMP row whose age is not a number: the plan's column check
        fails before anything runs, and the walk alone decides — it raises
        where it compares that age, and not where the row never gets there."""
        formula = domain.once_married().formula
        mixed = self.rows(
            domain, EMP=[("alice", "cs", 120, 35, "M"), ("bob", "cs", 100, "old", "M")]
        )
        walk, planned, planner = both(formula, [mixed])
        assert walk == planned == (None, "ValueError")
        assert planner.exec_count == 0 and planner.fallback_count == 1
        # Single at s: ``m-status ≠ S`` fails first only if it came first —
        # here the age comparison precedes it, so the walk still raises.
        # Behind a *failing* membership the stray cell is never compared:
        ok = self.rows(domain)
        hired = domain.hire.run(ok, "eve", "cs", 90, "old", "M")
        fired = domain.fire.run(hired, "eve")
        assert both(formula, [ok, ok])[1] == (True, None)
        walk, planned, planner = both(formula, [hired, fired])
        assert walk == planned == (None, "ValueError")

    def test_a_guard_types_only_its_own_relation(self, domain):
        """SKILL and PROJ share an arity, so ``k`` ranges over both; a
        non-numeric PROJ cell sits behind ``k ∈ SKILL`` in the walk and
        outside the checked column in the plan: planned, no error."""
        s, t, k = b.state_var("s"), b.trans_var("t"), domain.skill.var("k")
        after = b.after(s, t)
        number = lambda w: b.at(w, domain.skill.attr("s-no", k))
        formula = b.forall(
            [s, t, k],
            b.implies(
                b.land(
                    b.holds(s, b.member(k, domain.skill.rel())),
                    b.holds(after, b.member(k, domain.skill.rel())),
                ),
                b.le(number(s), number(after)),
            ),
        )
        state = self.rows(domain, PROJ=[("db", "lots")])
        walk, planned, planner = both(formula, [state, state], verify=True)
        assert walk == planned == (True, None)
        assert planner.exec_count == 1 and planner.fallback_count == 0

    def test_a_comparison_ahead_of_the_membership_that_would_type_it(self, domain):
        """``s::e ∈ EMP ∧ s:age(e) > s:s-no(k) ∧ s::k ∈ SKILL``: the walk
        compares *every* arity-2 candidate — PROJ's too — before it asks for
        ``k ∈ SKILL``; a join would filter first and miss the error."""
        s, e, k = b.state_var("s"), domain.emp.var("e"), domain.skill.var("k")
        formula = b.forall(
            [s, e, k],
            b.implies(
                b.land(
                    b.holds(s, b.member(e, domain.emp.rel())),
                    b.gt(
                        b.at(s, domain.emp.attr("age", e)),
                        b.at(s, domain.skill.attr("s-no", k)),
                    ),
                    b.holds(s, b.member(k, domain.skill.rel())),
                ),
                b.neq(b.at(s, domain.skill.attr("s-emp", k)), b.atom("nobody")),
            ),
        )
        with pytest.raises(Incompilable, match="no earlier membership types"):
            compile_window(formula)
        state = self.rows(domain, PROJ=[("db", "lots")])
        walk, planned, _ = both(formula, [state])
        assert walk == planned == (None, "ValueError")

    def raising_residual(self, domain, prefix):
        """``s::e ∈ EMP → s::∃k(k ∈ SKILL ∧ s-emp(k) = e-name(e) ∧ s-no(k) <
        age(e))``: false of an employee without a skill, an error on one
        whose age is not a number."""
        s, e, k = b.state_var("s"), domain.emp.var("e"), domain.skill.var("k")
        skilled = b.exists(
            k,
            b.land(
                b.member(k, domain.skill.rel()),
                b.eq(domain.skill.attr("s-emp", k), domain.emp.attr("e-name", e)),
                b.lt(domain.skill.attr("s-no", k), domain.emp.attr("age", e)),
            ),
        )
        variables = {"s": s, "e": e}
        return b.forall(
            [variables[name] for name in prefix],
            b.implies(b.holds(s, b.member(e, domain.emp.rel())), b.holds(s, skilled)),
        )

    def test_a_residual_error_past_the_walks_first_violation(self, domain):
        """A window plan with residuals never stops early: whether an error
        or a violation comes first is the walk's enumeration order."""
        unskilled_first = self.rows(
            domain,
            EMP=[("alice", "cs", 120, 35, "M"), ("bob", "cs", 100, "old", "S")],
            SKILL=[("bob", 2)],
        )
        error_first = self.rows(
            domain,
            EMP=[("alice", "cs", 120, "old", "M"), ("bob", "cs", 100, 41, "S")],
            SKILL=[("alice", 1)],
        )
        formula = self.raising_residual(domain, "se")
        assert both(formula, [unskilled_first])[:2] == ((False, None),) * 2
        assert both(formula, [error_first])[:2] == ((None, "EvaluationError"),) * 2
        # With the tuple variable outermost the walk crosses *states* inside
        # one employee: alice's error at the second state comes before bob's
        # violation at the first.
        clean = self.rows(domain, SKILL=[("alice", 1)])
        later = self.rows(
            domain,
            EMP=[("alice", "cs", 120, "old", "M"), ("bob", "cs", 100, 41, "S")],
            SKILL=[("alice", 1)],
        )
        formula = self.raising_residual(domain, "es")
        walk, planned, planner = both(formula, [clean, later])
        assert walk == planned == (None, "EvaluationError")
        assert planner.fallback_count >= 1

    def test_a_relation_missing_from_one_window_state(self, domain):
        """``register_encoding`` adds FIRE to the head state only: a plan
        naming it does not fit the older state and takes the walk."""
        fire = domain.fire_encoding()
        db = Database(domain.schema, window=2, initial=self.rows(domain))
        db.execute(domain.birthday, "alice")
        db.register_encoding(fire)
        s, t, e = b.state_var("s"), b.trans_var("t"), domain.emp.var("e")
        log = b.rel("FIRE", db.current.relation("FIRE").arity)
        x = b.ftup_var("x", log.arity)
        formula = b.forall(
            [s, t, x],
            b.implies(
                b.holds(s, b.member(x, log)), b.holds(b.after(s, t), b.member(x, log))
            ),
        )
        planned = planned_interpreter()
        results = [
            verdict(formula, db.history, interp) for interp in (Interpreter(), planned)
        ]
        assert results[0] == results[1]
        assert planned.planner.exec_count == 0 and planned.planner.fallback_count == 1
        db.execute(domain.birthday, "bob")  # FIRE is in both window states now
        assert verdict(formula, db.history, planned) == (True, None)
        assert planned.planner.exec_count == 1

    def test_states_of_unrelated_lineage(self, domain):
        """Two independently built states reuse identifiers across
        relations and arities; whatever the walk makes of that, the planned
        path makes the same."""
        a = self.rows(domain)
        z = state_from_rows(
            domain.schema,
            {"PROJ": [("db", 40), ("ai", 10)], "EMP": [("zed", "ee", 50, 30, "S")]},
        )
        for constraint in (domain.once_married(), domain.skill_retention()):
            walk, planned, _ = both(constraint.formula, [a, z])
            assert walk == planned


# ---------------------------------------------------------------------------
# (d) chaos corruption under verify
# ---------------------------------------------------------------------------


class TestWindowQuarantine:
    """A corrupted window plan cannot pass the ``verify`` seam."""

    def test_verify_raises_on_a_corrupted_window_plan(self, domain, sample_state):
        interp = planned_interpreter(verify=True)
        interp.planner._chaos_corrupt = True
        model = PartialModel.of_states([sample_state], interp)
        with pytest.raises(PlannerMismatch, match="window"):
            Evaluator(model).holds(domain.once_married().formula)


# ---------------------------------------------------------------------------
# (e) E10 and the paper's examples, through a planner-enabled interpreter
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def planned_everywhere():
    """Point the module-level evaluation helpers of the two reused test
    modules at one ``verify=True`` planner-enabled interpreter."""
    interp = planned_interpreter(verify=True)
    patch = pytest.MonkeyPatch()
    patch.setattr(axioms, "execute", lambda w, e, env=None: interp.run(w, e, env))
    patch.setattr(axioms, "evaluate", lambda w, e, env=None: interp.eval_object(w, e, env))
    patch.setattr(axioms, "satisfies", lambda w, p, env=None: interp.eval_formula(w, p, env))
    patch.setattr(paper, "check_state", lambda c, w: check_state(c, w, interp))
    patch.setattr(
        paper,
        "check_transition",
        lambda c, before, after: check_transition(c, before, after, interpreter=interp),
    )
    patch.setattr(paper, "PartialModel", lambda graph: PartialModel(graph, interp))
    yield interp.planner
    patch.undo()
    assert interp.planner.mismatch_count == 0


def replanned(prop, *strategies):
    """A fresh hypothesis test around the body of an E10 property and its
    settings (the original stays bound to its own class)."""
    return given(*strategies)(prop.hypothesis.inner_test)


_small, _tag = st.integers(0, 20), st.sampled_from("abcd")
_one_row = axioms.rows2.filter(lambda r: len(r) >= 1)
_two_rows = axioms.rows2.filter(lambda r: len(r) >= 2)


@pytest.mark.usefixtures("planned_everywhere")
class TestAxiomPropertiesPlanned:
    """E10's linkage, action and frame properties, evaluated by an
    interpreter with the planner attached."""

    linkage = axioms.TestFluentAlgebra
    test_composition_linkage = replanned(
        linkage.test_composition_linkage, axioms.rows2, _small, _small
    )
    modify = axioms.TestModifyAxioms
    test_modify_action = replanned(
        modify.test_modify_action, _one_row, st.integers(1, 2), st.integers(0, 99)
    )
    test_modify_frame_other_tuple = replanned(
        modify.test_modify_frame_other_tuple, _two_rows, st.integers(1, 2)
    )
    test_modify_frame_other_position = replanned(
        modify.test_modify_frame_other_position, _one_row
    )
    update = axioms.TestInsertDeleteAxioms
    test_insert_action = replanned(update.test_insert_action, axioms.rows2, _small, _tag)
    test_delete_action = replanned(update.test_delete_action, axioms.rows2, _small, _tag)
    test_delete_frame = replanned(update.test_delete_frame, _two_rows, _small)
    test_insert_frame_other_relation = replanned(
        update.test_insert_frame_other_relation, axioms.rows2, _small, _tag
    )
    test_assign_action = replanned(update.test_assign_action, axioms.rows2)


@pytest.fixture(scope="class")
def plans_must_run(planned_everywhere):
    yield
    assert planned_everywhere.exec_count > 0


@pytest.mark.usefixtures("plans_must_run")
class TestExample1Planned(paper.TestExample1):
    pass


@pytest.mark.usefixtures("plans_must_run")
class TestExample2Planned(paper.TestExample2):
    pass


@pytest.mark.usefixtures("plans_must_run")
class TestExample3Planned(paper.TestExample3):
    pass


# ---------------------------------------------------------------------------
# the ledger's employee op stream, every planned answer cross-checked
# ---------------------------------------------------------------------------


WALKED = {
    # Nested state quantifiers: non-checkable by the paper's own argument.
    "invertibility": "Forall inside a predicate",
    "no-eternal-project": "Exists inside a predicate",
    "never-rehire": "prefix variable n of sort atom",
}


@pytest.mark.parametrize(
    # ``emp_oltp``'s oracle walks 24 employees under 7 constraints, 0.2 s a
    # write: cross-checking its first 45 ops (one built-to-fail write among
    # them) keeps tier-1 inside three minutes; all 150 run and are judged.
    "name, verified", [("emp_oltp", 45), ("emp_paper", 150), ("emp_read", 150)]
)
def test_the_paper_workload_replays_under_verify(name, verified, ops=150):
    """The ledger's seeded ``emp_*`` streams — built-to-fail writes included
    — with ``verify=True``: every verdict is the generator's (a rejection
    names its constraint), every constraint check and every query is
    answered by a plan, and no answer differs from the walk's (a difference
    raises ``PlannerMismatch``)."""
    workloads = pytest.importorskip("benchmarks.ledger.workloads")
    workload = workloads.WORKLOADS[name]
    built = workload.build(1, None)
    db = built.database
    planner = db.enable_planner(verify=True)
    programs = {p.name: p for p in built.programs}
    rejected = 0
    for op, i in zip(workload.stream(1, 0, 1), range(ops)):
        planner.verify = i < verified
        try:
            if op.kind == "query":
                db.query(programs[op.program], *op.args)
                continue
            db.execute(programs[op.program], *op.args)
            got = workloads.COMMIT
        except ConstraintViolation as violation:
            got = workloads.reject(violation.constraint_name)
            rejected += 1
        assert got == op.expect, op
    assert rejected >= (0 if name == "emp_read" else 5), rejected
    assert evals(db, "fallback") == 0 == planner.fallback_count
    assert planner.mismatch_count == 0 and evals(db, "planned") > ops
    model = PartialModel.of_history(db.history)
    for constraint in db.schema.constraints:
        assert isinstance(planner.plan(constraint.formula, model).query, WindowQuery)


def test_what_still_walks_is_named(domain, sample_state):
    """The commit path above is fallback-free; the rest of the domain's
    constraints are the walk's, each for a stated reason."""
    planner = QueryPlanner()
    model = PartialModel.of_states([sample_state])
    refusals = {}
    for constraint in domain.all_constraints:
        try:
            planner.plan(constraint.formula, model)
        except PlanError as refusal:
            refusals[constraint.name] = str(refusal)
    assert refusals.keys() == WALKED.keys()
    for name, reason in WALKED.items():
        assert reason in refusals[name]
