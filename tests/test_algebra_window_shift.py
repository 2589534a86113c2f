"""Shifted window plans: a commit re-joins only what the window shift added.

A window plan remembers the last window it held over.  When the next
window is a chain whose leading states are a contiguous run of that one,
an assignment of only those states joins just the rows with a candidate
the held window did not have; when the run is all but the new head, an
assignment binding the head joins just the rows with a candidate that is
dirty between the previous head and the new one; everything else runs in
full (:func:`repro.algebra.executor._window_holds`).  A closed ``forall``
f-plan checks, at a new state, only the guard rows the change since the
last state it held at can reach (:func:`repro.algebra.executor.
_forall_dirty`).  These tests hold both paths to the walk and to a planner
with no memory — verdict and error class — over long slid histories, and
pin the engine's edge cases.
"""

from __future__ import annotations

import gc
import random
import sys
import threading

import pytest

from repro import Database
from repro.algebra import executor
from repro.algebra.compiler import Incompilable, compile_forall, compile_window
from repro.constraints.semantics import Evaluator, PartialModel
from repro.db.evolution import History, chain_graph
from repro.db.schema import Schema
from repro.db.state import state_from_rows
from repro.db.values import DBTuple
from repro.errors import ConstraintViolation
from repro.logic import builder as b
from repro.transactions.interpreter import Env, Interpreter

from tests.test_algebra_window import (
    gen_value,
    gen_commit,
    gen_schema,
    gen_state,
    gen_window_formula,
    planned_interpreter,
    verdict,
)


# ---------------------------------------------------------------------------
# the sequence agreement harness
# ---------------------------------------------------------------------------


def gen_head_commit(rng, extra, state, rels):
    """A :func:`gen_commit` (which deletes and re-inserts a row under a
    fresh identifier, and moves an identifier between the two relations of
    one arity), then — drawn from ``extra`` — maybe a value entering one of
    those relations under another identifier than its twin's row carries,
    or leaving it."""
    state = gen_commit(rng, state, rels)
    source, target = extra.sample([rel.name for rel, _ in rels[:2]], 2)
    live = list(state.relation(source))
    roll = extra.random()
    if roll < 0.2 and live:  # enters ``target``, already in ``source``
        state, _ = state.insert_tuple(target, DBTuple(None, extra.choice(live).values))
    elif roll < 0.35:  # leaves ``target``, stays in ``source``
        values = {t.values for t in live}
        leaving = [t for t in state.relation(target) if t.values in values]
        if leaving:
            state = state.delete_tuple(target, extra.choice(leaving))
    return state


def gen_run(rng, extra, schema, rels, length):
    """``length`` states, each a :func:`gen_head_commit` of the one before."""
    states = [gen_state(rng, schema, rels)]
    while len(states) < length:
        states.append(gen_head_commit(rng, extra, states[-1], rels))
    return states


def gen_forall(rng, rels):
    """A closed f-level ``forall v. member(v, R) ∧ guards → pres ∧ [not]
    exists u. …`` the single-state compiler takes: a guard comparison, a
    ``sum``/``size`` group pre-predicate keyed on ``v``, a body with or
    without an equi key, negated or not — and, as a static constraint, its
    degenerate window plan ``forall s. s::…``."""
    rel, types = rels[rng.randrange(len(rels))]
    v = rel.var("v")

    def col(r, ts, var, typ=None):
        picks = [i for i, t in enumerate(ts) if typ in (None, t)]
        if not picks:
            return None, None
        i = rng.choice(picks)
        return r.attr(r.attributes[i], var), ts[i]

    guards = [b.member(v, rel.rel())]
    if rng.random() < 0.3:
        lhs, typ = col(rel, types, v)
        guards.append(b.neq(lhs, b.atom(gen_value(rng, typ, stray=0))))
    consequent = []
    if rng.random() < 0.4:
        other, other_types = rels[rng.randrange(len(rels))]
        a = other.var("a")
        mine, typ = col(other, other_types, a)
        theirs, _ = col(rel, types, v, typ)
        if theirs is not None:
            summed, _ = col(other, other_types, a, "int")
            if summed is not None and rng.random() < 0.6:
                total = b.sum_of(b.setformer(summed, a, b.land(b.member(a, other.rel()), b.eq(mine, theirs))))
                consequent.append(b.le(total, b.atom(rng.choice([3, 7, 10]))))
            else:
                count = b.size_of(b.setformer(a, a, b.land(b.member(a, other.rel()), b.eq(mine, theirs))))
                consequent.append(b.le(count, b.atom(rng.choice([0, 1, 2]))))
    if rng.random() < 0.8 or not consequent:
        body_rel, body_types = rels[rng.randrange(len(rels))]
        u = body_rel.var("u")
        inner = [b.member(u, body_rel.rel())]
        mine, typ = col(body_rel, body_types, u)
        theirs, _ = col(rel, types, v, typ)
        if theirs is not None and rng.random() < 0.75:
            inner.append(b.eq(mine, theirs))  # the equi key
        elif theirs is not None:
            inner.append(b.neq(mine, theirs))  # no equi key
        found = b.exists(u, b.land(*inner))
        consequent.append(b.lnot(found) if rng.random() < 0.4 else found)
    return b.forall(v, b.implies(b.land(*guards), b.land(*consequent)))


def gen_foralls(rng, rels, count):
    formulas = []
    while len(formulas) < count:
        formula = gen_forall(rng, rels)
        try:
            compile_forall(formula)
        except Incompilable:
            continue
        formulas.append(formula)
    return formulas


def f_verdict(formula, state, interpreter):
    """``(holds, error class)`` of an f-formula at one state."""
    try:
        return interpreter.eval_formula(state, formula, Env.empty()), None
    except PlannerMismatch:
        raise
    except Exception as exc:
        return None, type(exc).__name__


def f_agree(foralls, state, slid, seen):
    """The slid planner's verdicts on the foralls at ``state``, each also
    the walk's and a fresh planner's."""
    for formula in foralls:
        got = f_verdict(formula, state, slid)
        assert got == f_verdict(formula, state, Interpreter()), str(formula)
        assert got == f_verdict(formula, state, planned_interpreter()), str(formula)
        seen[got] = seen.get(got, 0) + 1


def same_tids(planner, state) -> bool:
    """The planner's identifier table of ``state`` is ``lookup_tuple``."""
    table = planner.tids_of(state)
    return len(table) == len(state.owner) and all(
        table[tid] == state.lookup_tuple(tid) for tid in state.owner
    )


def gen_planned(rng, rels, count):
    """``count`` generated formulas inside the window fragment: the ones
    outside it are the walk's and never reach the shifted path."""
    formulas = []
    while len(formulas) < count:
        formula = gen_window_formula(rng, rels)
        try:
            compile_window(formula)
        except Incompilable:
            continue
        formulas.append(formula)
    return formulas


def agree(formulas, history, slid, seen):
    """The slid planner's verdicts on ``history``, each also the walk's and
    a fresh planner's; ``seen`` counts them by outcome."""
    for formula in formulas:
        got = verdict(formula, history, slid)
        assert got == verdict(formula, history, Interpreter()), str(formula)
        assert got == verdict(formula, history, planned_interpreter()), str(formula)
        seen[got] = seen.get(got, 0) + 1


@pytest.mark.parametrize("seed", range(8))
def test_a_slid_window_agrees_with_the_walk_and_a_fresh_plan(seed):
    """Windows of 2, 3 and every state slide over histories of 8 states,
    one planner for the whole slide; before about a third of the commits a
    rejected alternative head is checked first, as a failed commit or a
    2PC rehearsal that is not applied would be.  Beside the window
    formulas, generated ``forall`` f-formulas are checked at every head
    and as static constraints; every state's identifier table is its
    ``lookup_tuple``."""
    rng, extra = random.Random(4000 + seed), random.Random(7000 + seed)
    seen: dict = {}
    f_seen: dict = {}
    shifted = seeded = f_seeded = 0
    for _ in range(2):
        schema, rels = gen_schema(rng)
        states = gen_run(rng, extra, schema, rels, 8)
        formulas = gen_planned(rng, rels, 4)
        foralls = gen_foralls(extra, rels, 3)
        formulas += [b.forall(b.state_var("s"), b.holds(b.state_var("s"), f)) for f in foralls[:1]]
        for window in (2, 3, None):
            slid = planned_interpreter()
            history = History(window=window)
            history.start(states[0])
            agree(formulas, history, slid, seen)
            f_agree(foralls, states[0], slid, f_seen)
            for step, state in enumerate(states[1:]):
                if rng.random() < 0.3:
                    rejected = history.fork()
                    alternative = gen_head_commit(rng, extra, history.current, rels)
                    rejected.advance(alternative, "rejected")
                    agree(formulas, rejected, slid, seen)
                    f_agree(foralls, alternative, slid, f_seen)
                    assert same_tids(slid.planner, alternative)
                history.advance(state, f"tx{step}")
                agree(formulas, history, slid, seen)
                f_agree(foralls, state, slid, f_seen)
            assert all(same_tids(slid.planner, state) for state in states)
            planner = slid.planner
            assert planner.mismatch_count == 0
            shifted += planner.window_shift_count
            seeded += planner.delta_window_seeded_count
            f_seeded += planner.delta_forall_seeded_count
    # Not vacuous: the shifted path ran, and on holding windows; heads and
    # foralls were seeded, and foralls both held and were violated.
    assert shifted >= 50 and seen.get((True, None), 0) >= 50, (shifted, seen)
    assert seeded >= 10 and f_seeded >= 50, (seeded, f_seeded)
    assert f_seen.get((True, None), 0) >= 20 and f_seen.get((False, None), 0) >= 5, f_seen


def test_a_window_that_returns_to_a_held_state_is_not_a_shift(domain):
    """``[s0, s1, s0]`` lists the held states ``[s0, s1]`` but adds the arc
    ``s1 → s0``, and with it an assignment the held window never had."""
    rows = {"EMP": [("alice", "cs", 120, 36, "S")]}
    s0 = state_from_rows(domain.schema, {**dict.fromkeys(domain.schema.relations, []), **rows})
    (alice,) = s0.relation("EMP")
    s1 = s0.modify_tuple(alice, 4, 35).modify_tuple(alice, 5, "M")
    interp = planned_interpreter(verify=True)
    formula = domain.once_married().formula  # married at 35, single at 36
    assert Evaluator(PartialModel.of_states([s0, s1], interp)).holds(formula)
    assert not Evaluator(PartialModel.of_states([s0, s1, s0], interp)).holds(formula)
    assert interp.planner.window_shift_count == 0


def test_a_held_window_covers_only_the_transitions_it_enumerated(domain, sample_state):
    """Held with single arcs only, the same three states with two-hop
    transitions add the assignment ``(s0, s2)``: it runs in full."""
    s, t, e = b.state_var("s"), b.trans_var("t"), domain.emp.var("e")
    age = lambda w: b.at(w, domain.emp.attr("age", e))
    in_emp = lambda w: b.holds(w, b.member(e, domain.emp.rel()))
    # "Nobody ages two years inside the window."
    formula = b.forall(
        [s, t, e],
        b.implies(
            b.land(in_emp(s), in_emp(b.after(s, t))),
            b.lt(age(b.after(s, t)), b.plus(age(s), b.atom(2))),
        ),
    )
    s1 = domain.birthday.run(sample_state, "alice")
    s2 = domain.birthday.run(s1, "alice")
    graph = chain_graph([sample_state, s1, s2])
    interp = planned_interpreter(verify=True)
    held = PartialModel(graph, interp, max_transition_length=1)
    assert Evaluator(held).holds(formula)
    assert not Evaluator(PartialModel(graph, interp, max_transition_length=2)).holds(formula)
    assert interp.planner.window_shift_count == 1


# ---------------------------------------------------------------------------
# engine edge cases, every plan cross-checked against the walk
# ---------------------------------------------------------------------------


def window_total(db, mode):
    counter = db.metrics.get("repro_planner_window_total", mode=mode)
    return 0 if counter is None else counter.value


class TestEngineEdges:
    def test_a_violating_initial_state_is_rejected_at_every_commit(self, domain):
        domain.install_constraints("every-employee-allocated")
        initial = domain.hire.run(domain.sample_state(), "eve", "cs", 90, 30, "S")
        db = Database(domain.schema, window=3, initial=initial)
        planner = db.enable_planner(verify=True)
        for _ in range(2):
            with pytest.raises(ConstraintViolation, match="every-employee-allocated"):
                db.execute(domain.birthday, "alice")
        assert planner.window_shift_count == 0 and planner.mismatch_count == 0

    def test_a_trusted_skip_leaves_a_gap_the_next_commit_checks(self, domain, sample_state):
        """Trusted ``marry`` commits unchecked: the next window no longer
        follows the held one past its first state, and the violation that
        spans the skipped state is still found."""
        domain.install_constraints("once-married")
        db = Database(domain.schema, window=3, initial=sample_state)
        planner = db.enable_planner(verify=True)
        db.execute(domain.birthday, "bob")
        db.execute(domain.birthday, "bob")
        db.trust("once-married", domain.marry.name)
        db.execute(domain.marry, "alice", "S")
        # Married at the held head, single and older after the skipped one.
        with pytest.raises(ConstraintViolation, match="once-married"):
            db.execute(domain.birthday, "alice")
        assert planner.window_shift_count >= 1 and planner.mismatch_count == 0

    def test_a_window_growing_from_one_to_k(self, domain, sample_state):
        domain.install_constraints("once-married", "every-employee-allocated")
        db = Database(domain.schema, window=3, initial=sample_state)
        planner = db.enable_planner(verify=True)
        db.execute(domain.birthday, "bob")  # [s0, s1]: nothing held yet
        assert (planner.window_full_count, planner.window_shift_count) == (2, 0)
        db.execute(domain.birthday, "bob")  # [s0, s1, s2]: s0, s1 held
        db.execute(domain.birthday, "bob")  # [s1, s2, s3]: s1, s2 held
        assert (planner.window_full_count, planner.window_shift_count) == (2, 4)
        db.execute(domain.marry, "alice", "S")
        with pytest.raises(ConstraintViolation, match="once-married"):
            db.execute(domain.birthday, "alice")
        assert window_total(db, "shift") == planner.window_shift_count == 8
        assert window_total(db, "full") == planner.window_full_count == 2
        assert planner.mismatch_count == 0

    def test_apply_of_the_rehearsed_state_joins_nothing(
        self, domain, sample_state, monkeypatch
    ):
        domain.install_constraints("once-married", "salary-decrease-needs-dept-change")
        db = Database(domain.schema, window=3, initial=sample_state)
        planner = db.enable_planner(verify=True)
        db.execute(domain.birthday, "bob")
        after = db.rehearse(domain.set_salary.run(db.current, "alice", 130))
        joined = []
        plain = executor._window_rows
        monkeypatch.setattr(
            executor, "_window_rows", lambda *a: joined.append(a) or plain(*a)
        )
        shifted = planner.window_shift_count
        db.apply(after)
        assert joined == [] and planner.window_shift_count == shifted + 2
        assert db.current is after and planner.mismatch_count == 0

    def test_a_cross_shard_apply_follows_its_rehearsal(self, stripe_schema):
        from repro.logic import builder as b
        from repro.sharding import ShardedDatabase
        from repro.transactions.program import transaction

        x, y = b.atom_var("x"), b.atom_var("y")
        sdb = ShardedDatabase(stripe_schema, shards=4)
        names = sorted(stripe_schema.relations)
        other = next(n for n in names if sdb.plan.shard_of(n) != sdb.plan.shard_of("R0"))
        puts = [
            b.insert(b.mktuple(x, y, *(b.atom(0),) * (rel.arity - 2)), rel.name)
            for rel in map(stripe_schema.relation, ("R0", other))
        ]
        sdb.execute(transaction("both", (x, y), b.seq(*puts)), 1, 2)
        assert sdb.stats()["cross_shard_commits"] == 1
        for name in ("R0", other):
            planner = sdb.shards[sdb.plan.shard_of(name)].db.interpreter.planner
            # Rehearsal runs in full; the apply of what it held shifts.
            assert planner.window_full_count >= 1 and planner.window_shift_count >= 1
        sdb.close()

    def test_a_database_from_a_store_starts_with_no_memory(
        self, domain, sample_state, tmp_path
    ):
        domain.install_constraints("once-married")
        db = Database(domain.schema, window=3, initial=sample_state)
        db.durable(tmp_path)
        db.enable_planner(verify=True)
        for _ in range(3):
            db.execute(domain.birthday, "bob")
        db.close()
        resumed, _ = Database.from_store(domain.schema, tmp_path, window=3)
        planner = resumed.enable_planner(verify=True)
        assert planner._held == {}
        resumed.execute(domain.birthday, "bob")
        assert (planner.window_full_count, planner.window_shift_count) == (1, 0)
        resumed.execute(domain.birthday, "bob")
        assert (planner.window_full_count, planner.window_shift_count) == (1, 1)
        resumed.close()


def test_the_oltp_stream_takes_the_shifted_path():
    """The ledger's ``emp_oltp`` stream, rejections included: at least 95 %
    of its window-plan checks re-join only what the commit added, and the
    registry says so."""
    workloads = pytest.importorskip("benchmarks.ledger.workloads")
    workload = workloads.WORKLOADS["emp_oltp"]
    built = workload.build(1, None)
    db = built.database
    programs = {p.name: p for p in built.programs}
    for op, _ in zip(workload.stream(1, 0, 1), range(200)):
        try:
            if op.kind == "query":
                db.query(programs[op.program], *op.args)
            else:
                db.execute(programs[op.program], *op.args)
        except ConstraintViolation:
            pass
    shifted, full = window_total(db, "shift"), window_total(db, "full")
    assert shifted >= 0.95 * (shifted + full), (shifted, full)


def test_the_oltp_stream_seeds_its_heads_and_foralls():
    """The ledger's ``emp_oltp`` stream: the share of window plans whose
    head was seeded, and of static ``forall`` f-plans seeded from their
    held state, stays near what was measured (0.53 and 0.95 over these 200
    ops); every committed state's identifier table is its
    ``lookup_tuple``."""
    workloads = pytest.importorskip("benchmarks.ledger.workloads")
    workload = workloads.WORKLOADS["emp_oltp"]
    db = workload.build(1, None).database
    programs = {p.name: p for p in workload.build(1, None).programs}
    planner = db.interpreter.planner
    for op, _ in zip(workload.stream(1, 0, 1), range(200)):
        try:
            if op.kind == "query":
                db.query(programs[op.program], *op.args)
            else:
                db.execute(programs[op.program], *op.args)
        except ConstraintViolation:
            pass
        assert all(same_tids(planner, state) for state in db.history.states)
    for plan, measured in (("window", 0.53), ("forall", 0.95)):
        seeded, full = delta(planner, plan)
        assert seeded >= (measured - 0.1) * (seeded + full), (plan, seeded, full)


def test_threads_sharing_one_planner_agree_with_the_walk(domain, sample_state):
    """More threads than cores check slices of one run through one planner,
    so plan slots are read and replaced concurrently: a lost or crossed
    update only ever leaves a window that held, and no verdict moves."""
    rng = random.Random(7)
    states = [sample_state]
    for _ in range(8):
        who = rng.choice(["alice", "bob", "carol", "dan"])
        if rng.random() < 0.6:
            states.append(domain.birthday.run(states[-1], who))
        else:
            states.append(domain.marry.run(states[-1], who, rng.choice("SM")))
    windows = [
        states[i:j] for i in range(len(states)) for j in range(i + 1, min(i + 4, len(states) + 1))
    ]
    formulas = [domain.once_married().formula, domain.every_employee_allocated().formula]
    walk = Interpreter()
    expected = {
        (w, f): Evaluator(PartialModel.of_states(windows[w], walk)).holds(formulas[f])
        for w in range(len(windows))
        for f in range(len(formulas))
    }
    assert set(expected.values()) == {True, False}
    interp = planned_interpreter()
    failures: list = []

    def worker(seed):
        pick = random.Random(seed)
        try:
            for _ in range(150):
                w, f = pick.randrange(len(windows)), pick.randrange(len(formulas))
                model = PartialModel.of_states(windows[w], interp)
                if Evaluator(model).holds(formulas[f]) != expected[w, f]:
                    failures.append((w, f))
        except Exception as exc:  # reported below, not lost in the thread
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and interp.planner.window_shift_count > 0


# ---------------------------------------------------------------------------
# seeded heads and seeded foralls, case by case
# ---------------------------------------------------------------------------


def delta(planner, plan):
    """``(seeded, full)`` runs of ``plan`` ("window" or "forall")."""
    return (
        getattr(planner, f"delta_{plan}_seeded_count"),
        getattr(planner, f"delta_{plan}_full_count"),
    )


def test_a_residual_runs_the_head_in_full_only_when_its_relations_changed(
    domain, sample_state
):
    """``dept-deletion-precondition``'s residual ``¬∃e`` reads ``EMP``: a
    commit that changes only ``PROJ`` seeds the head, one that hires runs
    it in full — and a hire that empties the premise of a department still
    finds nothing to reject."""
    domain.install_constraints("dept-deletion-precondition")
    db = Database(domain.schema, window=2, initial=sample_state)
    planner = db.enable_planner(verify=True)

    def commit(program, *args):
        # A bare post-state: no proof that the program preserves the
        # constraint skips the check this test watches.
        db.apply(program.run(db.current, *args, interpreter=db.interpreter))

    commit(domain.create_project, "apollo", 25)  # nothing held yet
    assert delta(planner, "window") == (0, 1)
    commit(domain.create_project, "gemini", 10)
    assert delta(planner, "window") == (1, 1)
    commit(domain.hire, "erin", "cs", 90, 25, "S")
    assert delta(planner, "window") == (1, 2)
    commit(domain.create_project, "mercury", 5)
    assert delta(planner, "window") == (2, 2)
    assert planner.mismatch_count == 0
    for mode in ("seeded", "full"):
        counter = db.metrics.get("repro_planner_delta_total", plan="window", mode=mode)
        assert counter.value == getattr(planner, f"delta_window_{mode}_count")


def test_a_head_reads_the_dirty_candidates_only(domain, sample_state, monkeypatch):
    """A commit that changes one employee joins that employee's rows at
    the head — her old and her new version — not the other three's."""
    domain.install_constraints("once-married")
    db = Database(domain.schema, window=3, initial=sample_state)
    planner = db.enable_planner(verify=True)
    db.execute(domain.birthday, "bob")
    db.execute(domain.birthday, "bob")
    picked = []
    plain = executor._fresh_rows

    def spy(ctx, q, stages, derefs, dirty, clean):
        column = next(iter(derefs.values()))  # one identifier per candidate
        picked.append({column[i].tid for ids in dirty.values() for i in ids})
        return plain(ctx, q, stages, derefs, dirty, clean)

    monkeypatch.setattr(executor, "_fresh_rows", spy)
    seeded = planner.delta_window_seeded_count
    db.execute(domain.birthday, "carol")
    carol = next(t.tid for t in db.current.relation("EMP") if t.values[0] == "carol")
    assert len(picked) == 6 and all(tids == {carol} for tids in picked)
    assert planner.delta_window_seeded_count == seeded + 1
    assert planner.mismatch_count == 0


def ab_schema():
    schema = Schema()
    schema.add_relation("A", ("k", "v"))
    schema.add_relation("B", ("k", "v"))
    return schema


def ab_state(schema, a, b_rows):
    return state_from_rows(schema, {"A": a, "B": b_rows})


A, B = b.rel("A", 2), b.rel("B", 2)
av, bv = b.ftup_var("a", 2), b.ftup_var("u", 2)


def col_k(t):
    return b.attr("k", 2, 1, t)


def col_v(t):
    return b.attr("v", 2, 2, t)


def over_a(consequent):
    """``forall a. member(a, A) → consequent``."""
    return b.forall(av, b.implies(b.member(av, A), consequent))


def in_b(*preds):
    """``exists u. member(u, B) ∧ preds``."""
    return b.exists(bv, b.land(b.member(bv, B), *preds))


same_key = b.eq(col_k(bv), col_k(av))
#: Every a has a u in B under its key.
KEYED = over_a(in_b(same_key))
#: No a has a u in B under its key — a negated body.
NEGATED = over_a(b.lnot(in_b(same_key)))
#: Every a has a u in B with a larger v — a body without an equi key.
UNKEYED = over_a(in_b(b.gt(col_v(bv), col_v(av))))
#: The v of B under a's key sum to at most 10 — a group pre-predicate.
GROUPED = over_a(b.le(
    b.sum_of(b.setformer(col_v(bv), bv, b.land(b.member(bv, B), same_key))), b.atom(10)
))


def forall_run(formula, states, interp):
    """The verdicts of ``formula`` along ``states`` through ``interp``,
    each checked against the walk."""
    got = [interp.eval_formula(state, formula, Env.empty()) for state in states]
    assert got == [Interpreter().eval_formula(s, formula, Env.empty()) for s in states]
    return got


@pytest.mark.parametrize(
    "formula, states, verdicts",
    [
        # A row whose key partner left B is dirty by its body key.
        (KEYED, [([(1, 1), (2, 2)], [(1, 0), (2, 0)]), ([(1, 1), (2, 2)], [(1, 0)])], [True, False]),
        # A row whose key entered B is dirty under the negated body.
        (NEGATED, [([(1, 1), (2, 2)], [(3, 0)]), ([(1, 1), (2, 2)], [(3, 0), (2, 9)])], [True, False]),
        # No equi key: a change to B makes every row dirty.
        (UNKEYED, [([(1, 1), (2, 2)], [(0, 5)]), ([(1, 1), (2, 2)], [(0, 2)])], [True, False]),
        # A value entering a's group pushes its sum over the bound.
        (GROUPED, [([(1, 1), (2, 2)], [(1, 4), (2, 4)]), ([(1, 1), (2, 2)], [(1, 4), (2, 4), (2, 7)])], [True, False]),
    ],
    ids=["keyed", "negated", "unkeyed", "grouped"],
)
def test_a_seeded_forall_finds_the_violation_its_delta_made(formula, states, verdicts):
    schema = ab_schema()
    run = [ab_state(schema, a, rows) for a, rows in states]
    interp = planned_interpreter(verify=True)
    assert forall_run(formula, run, interp) == verdicts
    assert delta(interp.planner, "forall") == (1, 1)


def test_a_seeded_forall_skips_the_rows_its_delta_cannot_reach(monkeypatch):
    """B's change touches key 2 only: the body is probed for the one row
    under that key, not for the other nine."""
    schema = ab_schema()
    before = ab_state(schema, [(i, i) for i in range(10)], [(i, 0) for i in range(10)])
    after = before.insert_tuple("B", DBTuple(None, (2, 5)))[0]
    interp = planned_interpreter(verify=True)
    assert forall_run(KEYED, [before], interp) == [True]
    probed = []
    plain = executor._probe_table
    monkeypatch.setattr(
        executor,
        "_probe_table",
        lambda planner, ctx, level, preds: (
            lambda probe: lambda row: probed.append(level.rel) or probe(row)
        )(plain(planner, ctx, level, preds)),
    )
    assert interp.eval_formula(after, KEYED, Env.empty())
    assert probed == ["A", "B"]  # the guard scan, then one body probe


def test_a_parametrised_forall_is_never_seeded():
    x = b.atom_var("x")
    formula = over_a(b.neq(col_v(av), x))
    schema = ab_schema()
    s0 = ab_state(schema, [(1, 1)], [])
    s1 = s0.insert_tuple("A", DBTuple(None, (2, 2)))[0]
    interp = planned_interpreter(verify=True)
    for state, expected in ((s0, True), (s1, True), (s1, False)):
        env = Env({x: 2 if state is s1 and not expected else 3})
        assert interp.eval_formula(state, formula, env) is expected
    assert delta(interp.planner, "forall") == (0, 3)


def test_a_rejected_head_leaves_the_held_state():
    """Held at ``s0``, violated at ``s1`` by the row ``(2, 2)``: ``s2``, a
    change to ``B`` that leaves that row without a partner, is seeded from
    ``s0`` — from ``s1`` the row would read as clean."""
    schema = ab_schema()
    s0 = ab_state(schema, [(1, 1)], [(1, 0)])
    s1 = s0.insert_tuple("A", DBTuple(None, (2, 2)))[0]
    s2 = s1.insert_tuple("B", DBTuple(None, (7, 0)))[0]
    interp = planned_interpreter(verify=True)
    assert forall_run(KEYED, [s0, s1, s2], interp) == [True, False, False]
    assert delta(interp.planner, "forall") == (2, 1)


def test_a_collected_held_state_runs_in_full():
    schema = ab_schema()
    interp = planned_interpreter(verify=True)
    gone = ab_state(schema, [(1, 1)], [(1, 0)])
    assert interp.eval_formula(gone, KEYED, Env.empty())
    del gone
    gc.collect()
    s1 = ab_state(schema, [(1, 1), (2, 2)], [(1, 0)])
    assert forall_run(KEYED, [s1], interp) == [False]
    assert delta(interp.planner, "forall") == (0, 2)
