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
from repro.transactions.interpreter import Env

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
        plain = Database(schema, initial=state)
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
