"""The planner's read-set contract (DESIGN.md §7.6), case by case.

A plan reports the relations it *names* plus the owners of the parameters
it dereferences.  Per query shape — including the empty-domain and
all-rows-filtered corners where the tree walk stops early — that must be

* a **superset** of the tree walk's reads: the read set feeds the
  optimistic scheduler's conflict validation, so an under-report means a
  stale transaction commits;
* a **subset** of a bound computable from the plan alone
  (``plan_relations ∪ param_owners ∪ arity_class``) — which is what stops
  "touch everything" from passing.

Values must be equal throughout; only the reads may differ, and only by
relations the plan names behind a prefix that happened to be empty.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database, RetryPolicy
from repro.algebra import Scan
from repro.concurrent.tracking import TrackingInterpreter
from repro.db.state import state_from_rows
from repro.db.values import DBTuple
from repro.domains import make_domain
from repro.logic import builder as b
from repro.logic.formulas import Forall
from repro.logic.symbols import SymbolKind
from repro.logic.terms import App
from repro.transactions.interpreter import Env


@pytest.fixture()
def d():
    return make_domain()


def state_with(d, **rows):
    """Sample-state shape with selected relations overridden (e.g. empty)."""
    base = {
        "EMP": [
            ("alice", "cs", 100, 30, "S"),
            ("bob", "math", 90, 40, "M"),
        ],
        "DEPT": [("cs", "alice", "b1")],
        "PROJ": [("apollo", 100)],
        "ALLOC": [("alice", "apollo", 60)],
        "SKILL": [("alice", 1)],
    }
    base.update(rows)
    return state_from_rows(d.schema, base)


def read_bound(db, node, env=None) -> frozenset:
    """The contract's upper bound, from the explain tree alone: every
    scanned relation, the arity class of a ``forall`` variable, and the
    owners of tuple parameters (every relation when the tuple is dead)."""
    state = db.current
    target = node
    if isinstance(node, App) and node.symbol.kind is SymbolKind.ARITHMETIC:
        target = node.args[0]  # an aggregate plans its set-valued child
    names: set[str] = set()
    planner = db.interpreter.planner
    pending = [planner.plan(target, state, db.interpreter).root]
    while pending:
        op = pending.pop()
        if isinstance(op, Scan):
            names.add(op.rel)
        pending.extend(
            sub
            for sub in (getattr(op, a, None) for a in ("left", "right", "child"))
            if sub is not None
        )
    if isinstance(node, Forall):
        names.update(
            n
            for n in state.relation_names()
            if state.relation(n).arity == node.var.sort.arity
        )
    for value in (env.bindings.values() if env is not None else ()):
        if isinstance(value, DBTuple) and value.tid is not None:
            owner = state.owner_of(value.tid)
            names.update([owner] if owner else state.relation_names())
    return frozenset(names)


def evaluate(d, state, node, *, planner, is_formula=False, env=None):
    db = Database(d.schema, initial=state)
    if planner:
        db.enable_planner()
    tracking = TrackingInterpreter.wrapping(db.interpreter)
    if is_formula:
        value = tracking.eval_formula(db.current, node, env)
    else:
        value = tracking.eval_object(db.current, node, env)
    return db, value, frozenset(tracking.reads)


def check_contract(d, state, node, *, is_formula=False, env=None):
    """``tree_walk_reads ⊆ planned_reads ⊆ bound`` and equal values;
    returns ``(tree_walk_reads, planned_reads)``."""
    _, expected, slow = evaluate(
        d, state, node, planner=False, is_formula=is_formula, env=env
    )
    db, got, fast = evaluate(
        d, state, node, planner=True, is_formula=is_formula, env=env
    )
    assert db.interpreter.planner.exec_count >= 1, "the case must be planned"
    assert type(got) is type(expected) and got == expected
    bound = read_bound(db, node, env)
    assert slow <= fast, f"planner under-reads: {sorted(slow - fast)}"
    assert fast <= bound, f"planner reads past its plan: {sorted(fast - bound)}"
    return slow, fast


def alloc_of(d, a, e):
    return b.land(
        b.member(a, d.alloc.rel()),
        b.eq(d.alloc.attr("a-emp", a), d.emp.attr("e-name", e)),
    )


def join_former(d):
    e, a = d.emp.var("e"), d.alloc.var("a")
    return b.setformer(
        d.emp.attr("e-name", e),
        [e, a],
        b.land(
            b.member(e, d.emp.rel()),
            b.member(a, d.alloc.rel()),
            b.eq(d.alloc.attr("a-emp", a), d.emp.attr("e-name", e)),
        ),
    )


def exists_former(d, negate=False):
    e, a = d.emp.var("e"), d.alloc.var("a")
    inner = b.exists(a, alloc_of(d, a, e))
    return b.setformer(
        d.emp.attr("e-name", e),
        e,
        b.land(b.member(e, d.emp.rel()), b.lnot(inner) if negate else inner),
    )


def filtered_exists_former(d):
    """A predicate kills every outer candidate before the inner exists."""
    e, a = d.emp.var("e"), d.alloc.var("a")
    return b.setformer(
        d.emp.attr("e-name", e),
        e,
        b.land(
            b.member(e, d.emp.rel()),
            b.eq(d.emp.attr("e-dept", e), b.atom("no-such-dept")),
            b.exists(a, alloc_of(d, a, e)),
        ),
    )


def union_former(d, quantified_first=False, negate=False):
    """``member(e, EMP) ∧ (e-dept = cs ∨ [¬]∃a alloc-of(e))`` — or flipped."""
    e, a = d.emp.var("e"), d.alloc.var("a")
    pure = b.eq(d.emp.attr("e-dept", e), b.atom("cs"))
    quant = b.exists(a, alloc_of(d, a, e))
    if negate:
        quant = b.lnot(quant)
    disjunction = b.lor(quant, pure) if quantified_first else b.lor(pure, quant)
    return b.setformer(
        d.emp.attr("e-name", e),
        e,
        b.land(b.member(e, d.emp.rel()), disjunction),
    )


def two_exists_former(d):
    e, a, s = d.emp.var("e"), d.alloc.var("a"), d.skill.var("s")
    return b.setformer(
        d.emp.attr("e-name", e),
        e,
        b.land(
            b.member(e, d.emp.rel()),
            b.exists(a, alloc_of(d, a, e)),
            b.exists(
                s,
                b.land(
                    b.member(s, d.skill.rel()),
                    b.eq(d.skill.attr("s-emp", s), d.emp.attr("e-name", e)),
                ),
            ),
        ),
    )


def arithmetic_former(d):
    e = d.emp.var("e")
    return b.setformer(
        d.emp.attr("e-name", e),
        e,
        b.land(
            b.member(e, d.emp.rel()),
            b.le(b.plus(d.emp.attr("salary", e), b.atom(5)), b.atom(100)),
        ),
    )


def allocated_forall(d):
    e, a = d.emp.var("e"), d.alloc.var("a")
    return b.forall(
        e, b.implies(b.member(e, d.emp.rel()), b.exists(a, alloc_of(d, a, e)))
    )


ALICE = [("alice", "cs", 100, 30, "S")]
NOBODY = [("nobody", "apollo", 60)]

# (id, node builder, state overrides, relations the tree walk must read).
# The overrides include every corner where the tree walk short-circuits
# before a relation the plan names: an empty first level, a predicate or
# join that filters every outer row, a union branch no row reaches.
SET_FORMER_CASES = [
    ("join", join_former, {}, {"EMP", "ALLOC"}),
    ("join-empty-first-level", join_former, {"EMP": []}, {"EMP"}),
    ("join-no-row-joins", join_former, {"ALLOC": NOBODY}, {"EMP", "ALLOC"}),
    ("exists-prefix-filtered", filtered_exists_former, {}, {"EMP"}),
    ("exists", exists_former, {}, {"EMP", "ALLOC"}),
    ("not-exists", lambda d: exists_former(d, negate=True), {}, {"EMP", "ALLOC"}),
    (
        "not-exists-empty-inner",
        lambda d: exists_former(d, negate=True),
        {"ALLOC": []},
        {"EMP", "ALLOC"},
    ),
    ("union", union_former, {}, {"EMP", "ALLOC"}),
    ("union-first-branch-accepts-all", union_former, {"EMP": ALICE}, {"EMP"}),
    (
        "union-quantified-first",
        lambda d: union_former(d, quantified_first=True),
        {"EMP": ALICE},
        {"EMP", "ALLOC"},
    ),
    ("union-empty-outer", union_former, {"EMP": []}, {"EMP"}),
    ("union-negated", lambda d: union_former(d, negate=True), {}, {"EMP", "ALLOC"}),
    (
        "union-negated-empty-inner",
        lambda d: union_former(d, negate=True),
        {"ALLOC": []},
        {"EMP", "ALLOC"},
    ),
    ("two-exists", two_exists_former, {}, {"EMP", "ALLOC", "SKILL"}),
    (
        "two-exists-first-fails",
        two_exists_former,
        {"ALLOC": NOBODY},
        {"EMP", "ALLOC"},
    ),
    ("arithmetic", arithmetic_former, {}, {"EMP"}),
]


@pytest.mark.parametrize(
    "build,overrides,must_read",
    [case[1:] for case in SET_FORMER_CASES],
    ids=[case[0] for case in SET_FORMER_CASES],
)
def test_set_former_reads(d, build, overrides, must_read):
    slow, _ = check_contract(d, state_with(d, **overrides), build(d))
    assert must_read <= slow


def test_aggregate_reads(d):
    slow, _ = check_contract(d, state_with(d), b.size_of(join_former(d)))
    assert {"EMP", "ALLOC"} <= slow


class TestForall:
    def test_satisfied_and_violated(self, d):
        satisfied = state_with(d, EMP=ALICE)
        violated = state_with(d)  # bob has no allocation
        for state in (satisfied, violated):
            slow, _ = check_contract(
                d, state, allocated_forall(d), is_formula=True
            )
            assert {"EMP", "ALLOC"} <= slow

    def test_empty_guard_relation(self, d):
        """The tree walk never reaches the body; the plan still names it."""
        slow, fast = check_contract(
            d, state_with(d, EMP=[]), allocated_forall(d), is_formula=True
        )
        assert "ALLOC" not in slow and "ALLOC" in fast

    def test_arity_class_is_part_of_the_bound(self, d):
        """The tree walk enumerates a tuple-sorted forall over *every*
        relation of matching arity; the plan reports that class too."""
        d.schema.add_relation("EMP_ARCHIVE", tuple(f"x{i}" for i in range(5)))
        state = state_with(d, EMP_ARCHIVE=[("zed", "cs", 1, 2, "S")])
        slow, fast = check_contract(
            d, state, allocated_forall(d), is_formula=True
        )
        assert "EMP_ARCHIVE" in slow and "EMP_ARCHIVE" in fast


class TestParameters:
    def former(self, d, p):
        """Employees named like the owner of skill tuple ``p``."""
        e = d.emp.var("e")
        return b.setformer(
            d.emp.attr("e-name", e),
            e,
            b.land(
                b.member(e, d.emp.rel()),
                b.eq(d.emp.attr("e-name", e), d.skill.attr("s-emp", p)),
            ),
        )

    def test_parameter_owner_is_read(self, d):
        state = state_with(d)
        p = d.skill.var("p")
        (skill,) = state.relation("SKILL")
        env = Env.empty().bind(p, skill)
        slow, _ = check_contract(d, state, self.former(d, p), env=env)
        assert {"EMP", "SKILL"} <= slow

    def test_parameter_dereferenced_even_when_no_row_needs_it(self, d):
        """With EMP empty the tree walk never evaluates the predicate, so
        never dereferences ``p``; the plan resolves parameters up front —
        inside the bound, because the owner is computable from the
        environment."""
        p = d.skill.var("p")
        state = state_with(d, EMP=[])
        (skill,) = state.relation("SKILL")
        env = Env.empty().bind(p, skill)
        slow, fast = check_contract(d, state, self.former(d, p), env=env)
        assert "SKILL" not in slow and "SKILL" in fast
        assert "DEPT" not in fast  # ...and nothing else rides along

    def test_dead_parameter_reads_every_relation(self, d):
        """A tuple parameter whose identifier no longer exists dereferences
        by touching every relation (any could bring it back).  The tree
        walk pays that only when a row reaches the predicate; the plan
        pays it up front — the stated cost, still inside the bound."""
        p = d.skill.var("p")
        (skill,) = state_with(d).relation("SKILL")
        state = state_with(d, EMP=[], SKILL=[])
        assert state.owner_of(skill.tid) is None
        env = Env.empty().bind(p, skill)
        slow, fast = check_contract(d, state, self.former(d, p), env=env)
        assert slow == {"EMP"}
        assert fast == set(state.relation_names())


class TestForeachDomains:
    def foreach_of(self, d, with_exists=False):
        e, a = d.emp.var("e"), d.alloc.var("a")
        cond = [b.member(e, d.emp.rel())]
        if with_exists:
            cond.append(b.exists(a, alloc_of(d, a, e)))
        return b.foreach(
            e,
            b.land(*cond),
            b.modify(e, d.emp.attr_index("m-status"), b.atom("M")),
        )

    def run(self, d, state, fluent, *, planner):
        db = Database(d.schema, initial=state)
        if planner:
            db.enable_planner()
        tracking = TrackingInterpreter.wrapping(db.interpreter)
        after = tracking.run(db.current, fluent)
        return db, frozenset(tracking.reads), after

    def check_run(self, d, state, fluent):
        _, slow, slow_after = self.run(d, state, fluent, planner=False)
        db, fast, fast_after = self.run(d, state, fluent, planner=True)
        assert fast_after.relations["EMP"] == slow_after.relations["EMP"]
        assert slow <= fast <= read_bound(db, fluent)
        return slow

    def test_foreach_domain(self, d):
        assert "EMP" in self.check_run(d, state_with(d), self.foreach_of(d))

    def test_foreach_with_trailing_exists(self, d):
        slow = self.check_run(
            d, state_with(d), self.foreach_of(d, with_exists=True)
        )
        assert {"EMP", "ALLOC"} <= slow

    def test_foreach_empty_domain(self, d):
        slow = self.check_run(
            d, state_with(d, EMP=[]), self.foreach_of(d, with_exists=True)
        )
        assert "ALLOC" not in slow


# One write program per relation the corpus reads.
def writers(d):
    return {
        "EMP": (d.hire, ("carol", "cs", 80, 28, "S")),
        "ALLOC": (d.allocate, ("bob", "apollo", 10)),
        "SKILL": (d.add_skill, ("bob", 2)),
    }


class TestSchedulerSoundness:
    @pytest.mark.parametrize("rel", ["ALLOC", "SKILL", "EMP"])
    def test_planned_transaction_conflicts_with_concurrent_writer(self, d, rel):
        """``fire`` finds its rows through three planned ``foreach``
        domains.  A writer that commits to any relation the tree walk
        would have read, between the victim's evaluation and its
        validation, must force a retry on that relation."""
        tracking = TrackingInterpreter()
        d.fire.run(state_with(d), "bob", interpreter=tracking)
        assert rel in tracking.reads

        db = Database(d.schema, initial=state_with(d))
        planner = db.enable_planner()
        evaluated = threading.Event()
        release = threading.Event()

        def gate(attempt: int) -> None:
            if attempt == 1:
                evaluated.set()
                assert release.wait(10)

        program, args = writers(d)[rel]
        with db.concurrent(
            workers=2, retry=RetryPolicy(base_delay=0.0001, jitter=0.0)
        ) as mgr:
            victim = mgr.submit(d.fire, "bob", on_evaluated=gate)
            assert evaluated.wait(10)
            assert mgr.execute(program, *args).ok
            release.set()
            outcome = victim.result(timeout=10)
        assert planner.exec_count >= 3
        assert outcome.ok and outcome.attempts == 2
        assert rel in outcome.conflicts[0]
        assert mgr.verify_serializable()
