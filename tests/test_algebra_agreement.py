"""The randomized planner-vs-tree-walk agreement harness.

Mirrors the incremental checker's acceptance harness (PR 4): generate
random schemas, random states, and random queries across the compilable
fragment's whole surface — joins, local predicates, arithmetic,
disjunctions (pure and union-compiled), trailing quantifier sequences,
projections, aggregates, atom parameters, and foreach domains — and
demand that the planner and the tree walk agree on *value*, *canonical
ordering* and *raised error* on every single query, and that the planned
read set obeys the contract of DESIGN.md §7.6: a superset of the tree
walk's, inside the bound computable from the plan alone.

Some operands are ill-typed (``'x' + 1``, a string against an integer
column) and some cells hold the other type, so predicates *can* raise:
the planner must then raise exactly when the tree walk does — neither on
rows the nested enumeration never reaches, nor silently skipping a row it
does reach.

Even seeds run the planned side under ``verify=True`` as a second,
independent referee (any divergence the outer assertions miss raises
:class:`PlannerMismatch` from inside the planner itself); odd seeds run it
bare, because the verify oracle would re-raise an error the planner
skipped.
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.concurrent.tracking import TrackingInterpreter
from repro.db.schema import Schema
from repro.db.state import state_from_rows
from repro.errors import EvaluationError, PlanError
from repro.logic import builder as b
from repro.logic.terms import RelConst
from repro.transactions.interpreter import Env, Interpreter

from tests.test_algebra_touch import read_bound

ATOMS = {"str": ["a", "b", "c", "d"], "int": [1, 2, 3, 7]}


def gen_schema(rng):
    """Three relations, arities 1-3, each column typed str or int."""
    schema = Schema()
    rels = []
    for i in range(3):
        arity = rng.randint(1, 3)
        rel = schema.add_relation(
            f"R{i}", tuple(f"c{i}{j}" for j in range(arity))
        )
        types = tuple(rng.choice(["str", "int"]) for _ in range(arity))
        rels.append((rel, types))
    return schema, rels


def gen_state(rng, schema, rels):
    rows = {}
    for rel, types in rels:
        n = rng.choice([0, 1, 3, 6])  # include empty-relation corners
        rows[rel.name] = [
            tuple(rng.choice(ATOMS[gen_type(rng, t, 0.04)]) for t in types)
            for _ in range(n)
        ]
    return state_from_rows(schema, rows)


def gen_type(rng, typ, stray):
    """``typ``, or with probability ``stray`` the other type."""
    if rng.random() >= stray:
        return typ
    return "int" if typ == "str" else "str"


def gen_literal(rng, typ):
    if rng.random() < 0.04:
        return b.plus(b.atom("x"), b.atom(1))  # raises when evaluated
    return b.atom(rng.choice(ATOMS[gen_type(rng, typ, 0.04)]))


def gen_chain(rng, rels, param=None, k=None):
    """Bound vars + condition conjuncts + (var, types) handles."""
    if k is None:
        k = rng.randint(1, min(3, len(rels)))
    picks = [rels[rng.randrange(len(rels))] for _ in range(k)]
    handles = []
    conjuncts = []
    for i, (rel, types) in enumerate(picks):
        var = rel.var(f"v{i}")
        handles.append((rel, types, var))
        conjuncts.append(b.member(var, rel.rel()))
    # Join predicates: connect each later var to an earlier one when a
    # type-compatible column pair exists.
    for i in range(1, len(handles)):
        rel_i, types_i, var_i = handles[i]
        j = rng.randrange(i)
        rel_j, types_j, var_j = handles[j]
        pairs = [
            (ci, cj)
            for ci, ti in enumerate(types_i)
            for cj, tj in enumerate(types_j)
            if ti == tj
        ]
        if pairs and rng.random() < 0.8:
            ci, cj = rng.choice(pairs)
            conjuncts.append(
                b.eq(
                    rel_i.attr(rel_i.attributes[ci], var_i),
                    rel_j.attr(rel_j.attributes[cj], var_j),
                )
            )
    # Local predicates against literals (or the atom parameter).
    for rel, types, var in handles:
        if rng.random() < 0.6:
            conjuncts.append(gen_local(rng, rel, types, var, param))
        if rng.random() < 0.25:
            # A pure disjunction of two local predicates (compiles to Disj).
            conjuncts.append(
                b.lor(
                    gen_local(rng, rel, types, var, None),
                    gen_local(rng, rel, types, var, None),
                )
            )
    return handles, conjuncts


def gen_local(rng, rel, types, var, param):
    """One local predicate; int columns sometimes go through arithmetic."""
    ci = rng.randrange(len(types))
    col = rel.attr(rel.attributes[ci], var)
    rhs = (
        param
        if param is not None and rng.random() < 0.4
        else gen_literal(rng, types[ci])
    )
    if types[ci] == "int" and rng.random() < 0.5 and rhs is not param:
        if rng.random() < 0.4:
            col = rng.choice([b.plus, b.minus, b.times])(
                col, b.atom(rng.choice([1, 2]))
            )
        return rng.choice([b.lt, b.le, b.gt, b.ge])(col, rhs)
    return rng.choice([b.eq, b.neq])(col, rhs)


def gen_sub(rng, rels, handles, name):
    """A fresh-variable single-level exists linked to a random handle."""
    rel, types, _ = handles[rng.randrange(len(handles))]
    sub_rel, sub_types = rels[rng.randrange(len(rels))]
    u = sub_rel.var(name)
    inner = [b.member(u, sub_rel.rel())]
    pairs = [
        (ci, cj)
        for ci, ti in enumerate(sub_types)
        for cj, tj in enumerate(types)
        if ti == tj
    ]
    if pairs:
        _, _, var = next(h for h in handles if h[0] is rel)
        ci, cj = rng.choice(pairs)
        inner.append(
            b.eq(
                sub_rel.attr(sub_rel.attributes[ci], u),
                rel.attr(rel.attributes[cj], var),
            )
        )
    return b.exists(u, b.land(*inner))


def gen_query(rng, rels, param=None):
    """A random set former / exists / aggregate over the fragment."""
    handles, conjuncts = gen_chain(rng, rels, param)
    tail = rng.random()
    if tail < 0.45:
        # Trailing quantifier sequence: 0-2 positive exists, optionally
        # ending in a not-exists (the multi-conjunct widening).
        for i in range(rng.choice([1, 1, 2])):
            conjuncts.append(gen_sub(rng, rels, handles, f"u{i}"))
        if rng.random() < 0.4:
            conjuncts.append(b.lnot(gen_sub(rng, rels, handles, "un")))
    elif tail < 0.7:
        # Trailing disjunction with quantified branches (union plans).
        branches = []
        for i in range(rng.randint(2, 3)):
            if rng.random() < 0.45:
                rel, types, var = handles[rng.randrange(len(handles))]
                branches.append(gen_local(rng, rel, types, var, None))
            else:
                sub = gen_sub(rng, rels, handles, f"w{i}")
                branches.append(sub if rng.random() < 0.7 else b.lnot(sub))
        conjuncts.append(b.lor(*branches))

    shape = rng.random()
    if shape < 0.2:  # boolean exists over the whole chain
        inner_vars = [h[2] for h in handles]
        body = b.land(*conjuncts)
        for v in reversed(inner_vars):
            body = b.exists(v, body)
        return body, True
    rel, types, var = handles[rng.randrange(len(handles))]
    ci = rng.randrange(len(types))
    result = rel.attr(rel.attributes[ci], var)
    former = b.setformer(result, [h[2] for h in handles], b.land(*conjuncts))
    if shape < 0.5:
        return former, False
    if types[ci] == "int":
        agg = rng.choice([b.sum_of, b.max_of, b.min_of, b.size_of])
    else:
        agg = b.size_of
    return agg(former), False


def evaluate(db, node, is_formula, env):
    tracking = TrackingInterpreter.wrapping(db.interpreter)
    try:
        if is_formula:
            value = tracking.eval_formula(db.current, node, env)
        else:
            value = tracking.eval_object(db.current, node, env)
        return value, None, frozenset(tracking.reads)
    except EvaluationError as exc:
        return None, str(exc), frozenset(tracking.reads)


def assert_read_contract(planned, node, env, slow_reads, fast_reads, where):
    """``slow ⊆ fast ⊆ static plan bound``.  A node the planner only
    answers in part (the top falls back, sub-nodes compile) is tree-walked
    on both sides, so its bound is the tree walk's own reads plus the
    relations the node names."""
    try:
        bound = read_bound(planned, node, env)
    except PlanError:
        bound = slow_reads | {
            sub.name for sub in node.iter_subnodes() if isinstance(sub, RelConst)
        }
    assert slow_reads <= fast_reads, where
    assert fast_reads <= bound, where


def gen_foreach(rng, rels):
    """A foreach over a single-variable chain, with an observable body
    (modify the first column to a literal)."""
    handles, conjuncts = gen_chain(rng, rels, k=1)
    if rng.random() < 0.5:
        sub = gen_sub(rng, rels, handles, "u0")
        conjuncts.append(sub if rng.random() < 0.7 else b.lnot(sub))
    rel, types, var = handles[0]
    body = b.modify(var, 1, gen_literal(rng, types[0]))
    return b.foreach(var, b.land(*conjuncts), body)


def run_foreach(db, fluent):
    tracking = TrackingInterpreter.wrapping(db.interpreter)
    try:
        after = tracking.run(db.current, fluent)
        return after.relations, None, frozenset(tracking.reads)
    except EvaluationError as exc:
        return None, str(exc), frozenset(tracking.reads)


@pytest.mark.parametrize("seed", range(24))
def test_planner_and_tree_walk_agree_on_random_queries(seed):
    rng = random.Random(seed)
    compiled_total = 0
    for round_no in range(8):
        schema, rels = gen_schema(rng)
        state = gen_state(rng, schema, rels)
        plain = Database(schema, initial=state, interpreter=Interpreter())
        planned = Database(schema, initial=state)
        planner = planned.enable_planner(verify=seed % 2 == 0)
        param = b.atom_var("p")
        for _ in range(6):
            use_param = rng.random() < 0.3
            typ = rng.choice(["str", "int"])
            node, is_formula = gen_query(
                rng, rels, param if use_param else None
            )
            env = (
                Env.empty().bind(param, rng.choice(ATOMS[typ]))
                if use_param
                else None
            )
            expected, expected_err, slow_reads = evaluate(
                plain, node, is_formula, env
            )
            got, got_err, fast_reads = evaluate(planned, node, is_formula, env)
            assert got_err == expected_err, (seed, round_no, node)
            if expected_err is None:
                assert type(got) is type(expected)
                assert got == expected, (seed, round_no, node)
            assert_read_contract(
                planned, node, env, slow_reads, fast_reads, (seed, round_no, node)
            )
        for _ in range(2):
            fluent = gen_foreach(rng, rels)
            expected, expected_err, slow_reads = run_foreach(plain, fluent)
            got, got_err, fast_reads = run_foreach(planned, fluent)
            assert got_err == expected_err, (seed, round_no, fluent)
            if expected_err is None:
                assert got == expected, (seed, round_no, fluent)
            assert_read_contract(
                planned, fluent, None, slow_reads, fast_reads,
                (seed, round_no, fluent),
            )
        compiled_total += planner.exec_count
        assert planner.mismatch_count == 0
    # The generator must actually exercise the planner, not fall back
    # everywhere.
    assert compiled_total >= 16, compiled_total


# ---------------------------------------------------------------------------
# the group-by node: an aggregate under a comparison (DESIGN.md §7.6)
# ---------------------------------------------------------------------------


def gen_aggregate(rng, rels, outer, param):
    """``op{result | a in R ∧ …}``, correlated by equality with a column of
    ``outer``, with the atom parameter, or with nothing; the result is a
    column (any type: ``sum`` of strings raises), the row, or a pair."""
    rel, types = rels[rng.randrange(len(rels))]
    a = rel.var("a")
    column = lambda i: rel.attr(rel.attributes[i], a)
    conjuncts = [b.member(a, rel.rel())]
    roll = rng.random()
    if roll < 0.6 and outer is not None:
        out_rel, out_types, out_var = outer
        pairs = [
            (i, j) for i, t in enumerate(types) for j, u in enumerate(out_types) if t == u
        ]
        if pairs:
            i, j = rng.choice(pairs)
            conjuncts.append(b.eq(column(i), out_rel.attr(out_rel.attributes[j], out_var)))
    elif roll < 0.8 and param is not None:
        conjuncts.append(b.eq(param, column(rng.randrange(len(types)))))
    if rng.random() < 0.3:
        conjuncts.append(gen_local(rng, rel, types, a, None))
    shape = rng.random()
    if shape < 0.7:
        result = column(rng.randrange(len(types)))
    elif shape < 0.85:
        result = a
    else:
        result = b.mktuple(column(rng.randrange(len(types))), column(0))
    op = rng.choice([b.sum_of, b.sum_of, b.max_of, b.min_of, b.size_of])
    return op(b.setformer(result, a, b.land(*conjuncts)))


def gen_aggregate_query(rng, rels, param):
    """The aggregate inside an ``exists`` chain, a set former's condition,
    a ``forall`` guard or a ``forall`` body."""
    rel, types = rels[rng.randrange(len(rels))]
    v = rel.var("v")
    outer = (rel, types, v)
    literal = b.atom(rng.choice([0, 1, 2, 3, 7, 10]))
    compare = rng.choice([b.lt, b.le, b.gt, b.ge, b.eq, b.neq])
    test = compare(gen_aggregate(rng, rels, outer, param), literal)
    member = b.member(v, rel.rel())
    local = gen_local(rng, rel, types, v, None)
    position = rng.choice(["exists", "former", "guard", "body"])
    if position == "exists":
        return b.exists(v, b.land(member, local, test)), True
    if position == "former":
        return b.setformer(v, v, b.land(member, test)), False
    if position == "guard":
        return b.forall(v, b.implies(b.land(member, test), local)), True
    return b.forall(v, b.implies(b.land(member, local), test)), True


@pytest.mark.parametrize("seed", range(12))
def test_group_aggregates_and_the_tree_walk_agree(seed):
    """Value, raised error and read contract — bare *and* under ``verify``
    (which alone would mask an error the plan skipped)."""
    rng = random.Random(1000 + seed)
    grouped = raised = 0
    param = b.atom_var("p")
    for round_no in range(8):
        schema, rels = gen_schema(rng)
        state = gen_state(rng, schema, rels)
        plain = Database(schema, initial=state, interpreter=Interpreter())
        bare = Database(schema, initial=state)
        verified = Database(schema, initial=state)
        bare.enable_planner()
        referee = verified.enable_planner(verify=True)
        for _ in range(8):
            node, is_formula = gen_aggregate_query(rng, rels, param)
            env = Env.empty().bind(param, rng.choice(ATOMS[rng.choice(["str", "int"])]))
            where = (seed, round_no, str(node))
            expected, expected_err, slow_reads = evaluate(plain, node, is_formula, env)
            for planned in (bare, verified):
                got, got_err, fast_reads = evaluate(planned, node, is_formula, env)
                assert got_err == expected_err, where
                assert type(got) is type(expected) and got == expected, where
                assert_read_contract(planned, node, env, slow_reads, fast_reads, where)
            raised += expected_err is not None
            try:
                grouped += bool(referee.plan(node, state).query.aggs)
            except PlanError:
                pass
        assert referee.mismatch_count == 0
    assert grouped >= 30 and raised >= 3, (grouped, raised)


class TestGroupAggregateCorners:
    """Directed cases over the employee schema, each under ``verify=True``
    and held to ``walk ⊆ planned ⊆ plan bound``."""

    ROWS = {
        "EMP": [("ann", "cs", 10, 30, "S"), ("bob", "cs", 10, 31, "S")],
        "DEPT": [("cs", "ann", "b1")],
        "PROJ": [("p", 100), ("q", 100)],
        # ann: two allocations of one perc; bob: none.
        "ALLOC": [("ann", "p", 50), ("ann", "q", 50)],
        "SKILL": [],
    }

    def databases(self, domain, **rows):
        state = state_from_rows(domain.schema, {**self.ROWS, **rows})
        plain = Database(domain.schema, initial=state, interpreter=Interpreter())
        planned = Database(domain.schema, initial=state)
        planned.enable_planner(verify=True)
        return plain, planned

    def agree(self, domain, node, is_formula=True, env=None, **rows):
        plain, planned = self.databases(domain, **rows)
        expected, expected_err, slow = evaluate(plain, node, is_formula, env)
        got, got_err, fast = evaluate(planned, node, is_formula, env)
        assert (got, got_err) == (expected, expected_err)
        assert planned.interpreter.planner.plan(node, planned.current).query.aggs
        assert_read_contract(planned, node, env, slow, fast, str(node))
        assert "ALLOC" in fast
        return got, got_err, planned.interpreter.planner

    def of(self, domain, op, name_expr, result=None):
        a = domain.alloc.var("a")
        result = domain.alloc.attr("perc", a) if result is None else result(a)
        return op(b.setformer(result, a, domain._alloc_of(a, name_expr)))

    def per_employee(self, domain, test):
        """``forall e. e in EMP -> test(e-name(e))``."""
        e = domain.emp.var("e")
        return b.forall(
            e, b.implies(b.member(e, domain.emp.rel()), test(domain.emp.attr("e-name", e)))
        )

    def test_duplicate_percs_sum_once(self, domain):
        """50 and 50 are one element of the set: the sum is 50 (ledger
        finding 12), and two allocations are two rows."""
        for bound, holds in ((50, True), (49, False)):
            node = self.per_employee(
                domain, lambda n: b.le(self.of(domain, b.sum_of, n), b.atom(bound))
            )
            assert self.agree(domain, node)[0] is holds
        rows = self.per_employee(
            domain,
            lambda n: b.le(self.of(domain, b.size_of, n, lambda a: a), b.atom(1)),
        )
        assert self.agree(domain, rows)[0] is False

    def test_an_empty_group_sums_and_counts_to_zero(self, domain):
        e = domain.emp.var("e")
        name = domain.emp.attr("e-name", e)
        for op in (b.sum_of, b.size_of):
            idle = b.setformer(
                name, e, b.land(b.member(e, domain.emp.rel()),
                                b.eq(self.of(domain, op, name), b.atom(0)))
            )
            got, _, _ = self.agree(domain, idle, is_formula=False)
            assert [t.values for t in got] == [("bob",)]

    @pytest.mark.parametrize("op", [b.max_of, b.min_of])
    def test_max_and_min_of_an_empty_group_raise_the_walks_error(self, domain, op):
        node = self.per_employee(
            domain, lambda n: b.le(self.of(domain, op, n), b.atom(100))
        )
        _, error, planner = self.agree(domain, node)
        assert "of an empty set is undefined" in error
        assert planner.fallback_count == 1  # handed back, not answered
        # ... and only where the walk gets there: ann alone never raises.
        lone = {"EMP": [("ann", "cs", 10, 30, "S")]}
        assert self.agree(domain, node, **lone)[:2] == (True, None)

    def test_a_non_integer_perc_is_the_walks_error(self, domain):
        node = self.per_employee(
            domain, lambda n: b.le(self.of(domain, b.sum_of, n), b.atom(100))
        )
        rows = {"ALLOC": [("ann", "p", "half"), ("bob", "q", 50)]}
        _, error, planner = self.agree(domain, node, **rows)
        assert error == "sum: non-numeric attribute values"
        assert planner.exec_count == 0
        # ``size`` never reads the cell: it stays planned.
        sized = self.per_employee(
            domain, lambda n: b.le(self.of(domain, b.size_of, n), b.atom(1))
        )
        assert self.agree(domain, sized, **rows)[:2] == (True, None)

    def test_a_parameter_correlated_aggregate(self, domain):
        """The group key's other side is the parameter: one table serves
        every binding."""
        p, e = b.atom_var("p"), domain.emp.var("e")
        node = b.exists(
            e, b.land(b.member(e, domain.emp.rel()),
                      b.gt(self.of(domain, b.sum_of, p), domain.emp.attr("salary", e)))
        )
        for name, holds in (("ann", True), ("bob", False), ("nobody", False)):
            env = Env.empty().bind(p, name)
            assert self.agree(domain, node, env=env)[0] is holds

    def test_an_aggregate_as_the_other_side_of_a_key(self, domain):
        """``perc(a) = size{…e…}``: the key's outer side is itself a group-by
        over the enclosing row; both tables are opened before the scan."""
        k = domain.skill.var("k")
        a = domain.alloc.var("a")

        def test(name):
            skills = b.size_of(b.setformer(
                k, k, b.land(b.member(k, domain.skill.rel()),
                             b.eq(domain.skill.attr("s-emp", k), name))
            ))
            matching = b.setformer(
                a, a, b.land(domain._alloc_of(a, name),
                             b.eq(domain.alloc.attr("perc", a), skills))
            )
            return b.eq(b.size_of(matching), b.atom(1))

        rows = {"ALLOC": [("ann", "p", 2), ("ann", "q", 50), ("bob", "p", 2)],
                "SKILL": [("ann", 1), ("ann", 2), ("bob", 1)]}
        node = self.per_employee(domain, test)
        got, _, planner = self.agree(domain, node, **rows)
        assert got is False  # ann: 2 skills, one perc of 2; bob: 1 skill, perc 2
        state = self.databases(domain, **rows)[1].current
        assert len(planner.plan(node, state).query.aggs) == 2

    def test_correlation_by_more_than_an_equality_is_refused(self, domain):
        e, a = domain.emp.var("e"), domain.alloc.var("a")
        loose = b.sum_of(b.setformer(
            domain.alloc.attr("perc", a), a,
            b.land(b.member(a, domain.alloc.rel()),
                   b.lt(domain.alloc.attr("perc", a), domain.emp.attr("salary", e))),
        ))
        node = b.forall(
            e, b.implies(b.member(e, domain.emp.rel()), b.le(loose, b.atom(100)))
        )
        plain, planned = self.databases(domain)
        with pytest.raises(PlanError, match="correlated by more than an equality"):
            planned.interpreter.planner.plan(node, planned.current)
        assert evaluate(planned, node, True, None)[:2] == evaluate(plain, node, True, None)[:2]

    def test_group_tables_are_built_once_per_relation_version(self, domain, monkeypatch):
        """Three window states share one ``ALLOC`` until a commit writes it:
        a check builds nothing, a write to ``ALLOC`` builds one table."""
        from repro.algebra.ir import GroupAgg
        from repro.algebra.planner import QueryPlanner

        builds = []
        cached = QueryPlanner._cached

        def counting(self, relation, kind, build):
            def counted():
                if isinstance(kind, GroupAgg):
                    builds.append(relation)
                return build()

            return cached(self, relation, kind, counted)

        monkeypatch.setattr(QueryPlanner, "_cached", counting)
        domain.install_constraints("allocation-within-limit")
        db = Database(domain.schema, window=3, initial=domain.sample_state())
        db.enable_planner(verify=True)
        for _ in range(4):
            db.execute(domain.birthday, "alice")  # EMP only
        assert len(builds) == 1 and builds[0] is db.current.relations["ALLOC"]
        db.execute(domain.allocate, "carol", "db", 10)
        db.execute(domain.birthday, "bob")
        assert len(builds) == 2 and len({id(r) for r in builds}) == 2
        assert builds[1] is db.current.relations["ALLOC"]
