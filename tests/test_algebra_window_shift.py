"""Shifted window plans: a commit re-joins only what the window shift added.

A window plan remembers the last window it held over.  When the next
window is a chain whose leading states are a contiguous run of that one,
an assignment of only those states joins just the rows with a candidate
the held window did not have; everything else runs in full
(:func:`repro.algebra.executor._window_holds`).  These tests hold the
shifted path to the walk and to a planner with no memory — verdict and
error class — over long slid histories, and pin the engine's edge cases.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro import Database
from repro.algebra import executor
from repro.algebra.compiler import Incompilable, compile_window
from repro.constraints.semantics import Evaluator, PartialModel
from repro.db.evolution import History, chain_graph
from repro.db.state import state_from_rows
from repro.errors import ConstraintViolation
from repro.logic import builder as b
from repro.transactions.interpreter import Interpreter

from tests.test_algebra_window import (
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


def gen_run(rng, schema, rels, length):
    """``length`` states, each a :func:`gen_commit` of the one before."""
    states = [gen_state(rng, schema, rels)]
    while len(states) < length:
        states.append(gen_commit(rng, states[-1], rels))
    return states


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
    2PC rehearsal that is not applied would be."""
    rng = random.Random(4000 + seed)
    seen: dict = {}
    shifted = 0
    for _ in range(2):
        schema, rels = gen_schema(rng)
        states = gen_run(rng, schema, rels, 8)
        formulas = gen_planned(rng, rels, 4)
        for window in (2, 3, None):
            slid = planned_interpreter()
            history = History(window=window)
            history.start(states[0])
            agree(formulas, history, slid, seen)
            for step, state in enumerate(states[1:]):
                if rng.random() < 0.3:
                    rejected = history.fork()
                    rejected.advance(gen_commit(rng, history.current, rels), "rejected")
                    agree(formulas, rejected, slid, seen)
                history.advance(state, f"tx{step}")
                agree(formulas, history, slid, seen)
            assert slid.planner.mismatch_count == 0
            shifted += slid.planner.window_shift_count
    # Not vacuous: the shifted path ran, and on holding windows.
    assert shifted >= 50 and seen.get((True, None), 0) >= 50, (shifted, seen)


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
