"""Plan report: which constraints are answered by a plan, and why not.

For every constraint of :mod:`repro.domains.employee` and
:mod:`repro.domains.banking`, ask :meth:`QueryPlanner.plan` for its window
plan over the domain's sample state and print one line:

* ``planned (window)``     — a join across the versions of the window;
* ``planned (degenerate)`` — a static ``forall s. s::p``: no join, ``p`` per
  state, itself ``planned (f-plan)`` when the single-state compiler takes it;
* the refusal reason, for a constraint the tree walk answers.

The eight constraints the ledger's ``emp_*`` workloads install must plan:
a refusal of one of them is a regression of the commit path and exits
non-zero.

A window plan seeds the head of a commit's window from the previous head,
unless a relation its residuals read changed; a second section prints, per
planned constraint, which relations those are (``… head full when EMP
changes``).

A third section builds, for each shipped domain, a default-constructed
``Database`` over the domain's sample state with its window-checkable
constraints installed, commits one write and prints the planner's planned /
fallback evaluation counts; a database without a planner, or one that
planned nothing, exits non-zero — the check that planning stays the default.

A last section builds a 4-shard ``ShardedDatabase`` over an 8-stripe
``v >= 0`` schema (E18's shape), writes once per stripe and prints each
shard's planned / fallback evaluation counts; a shard that did not plan,
or fell back to the walk, exits non-zero too.

Run:  PYTHONPATH=src python tools/plan_report.py
"""

from __future__ import annotations

import sys

from repro.algebra.planner import QueryPlanner
from repro.constraints.model import Constraint
from repro.constraints.semantics import PartialModel
from repro.db.schema import Schema
from repro.domains import make_domain
from repro.domains.banking import make_banking_domain
from repro.engine import Database
from repro.errors import PlanError
from repro.logic import builder as b
from repro.logic.formulas import Forall
from repro.sharding import ShardedDatabase
from repro.transactions.program import transaction

MUST_PLAN = frozenset({
    "every-employee-allocated", "alloc-references-project",
    "allocation-within-limit", "once-married", "skill-retention",
    "salary-decrease-needs-dept-change", "dept-deletion-precondition",
    "project-deletion-cascades",
})


def verdict(planner: QueryPlanner, formula, state) -> str:
    """``planned (…)`` or the reason ``planner.plan`` refuses with."""
    try:
        query = planner.plan(formula, PartialModel.of_states([state])).query
    except PlanError as refusal:
        return str(refusal)
    if query.groups:
        return "planned (window)"
    # The per-state body of a degenerate plan is a residual f-formula.
    bodies = [p.formula for p in query.conclusion if isinstance(p.formula, Forall)]
    try:
        for body in bodies:
            planner.plan(body, state)
    except PlanError as refusal:
        return f"planned (degenerate); its body walks: {refusal}"
    return "planned (degenerate) over planned (f-plan)"


def head_rule(planner: QueryPlanner, formula, state) -> str:
    """Which relations' change makes the window plan of ``formula`` run
    its head in full — the residuals' read set, arity classes named over
    ``state`` — or the reason it does not plan."""
    try:
        reads = planner.plan(formula, PartialModel.of_states([state])).query.reads
    except PlanError as refusal:
        return f"not planned ({refusal})"
    if reads is None:
        return "head always full (a residual reads an unbounded set)"
    names, arities = reads
    names = sorted(
        names | {n for n in state.relation_names() if state.relations[n].arity in arities}
    )
    if not names:
        return "head always seeded"
    which = names[0] if len(names) == 1 else f"any of {', '.join(names)}"
    return f"head full when {which} changes"


def single_node() -> bool:
    """Plan counts of one write on a default ``Database`` per shipped
    domain; True when every one planned."""
    employee, banking = make_domain(), make_banking_domain()
    employee.install_constraints(*MUST_PLAN)
    for constraint in banking.constraints()[:3]:  # the last needs full history
        banking.schema.add_constraint(constraint)
    writes = (
        ("employee", employee, 3, employee.create_project, ("apollo", 25)),
        ("banking", banking, 2, banking.deposit, ("ada", 5)),
    )
    ok = True
    print("\nsingle node: a default Database, one write per domain")
    for name, domain, window, write, args in writes:
        db = Database(domain.schema, window=window, initial=domain.sample_state())
        db.execute(write, *args)
        planner = db.interpreter.planner
        if planner is None:
            print(f"{name}: no planner")
            ok = False
            continue
        print(f"{name}: planned {planner.exec_count}, fallback {planner.fallback_count}")
        ok = ok and planner.exec_count > 0
    return ok


def sharded() -> bool:
    """Plan counts per shard after one write per stripe; True when every
    shard planned and none fell back."""
    schema, puts = Schema(), []
    s, k, v = b.state_var("s"), b.atom_var("k"), b.atom_var("v")
    for i in range(8):
        rel = schema.add_relation(f"R{i}", ("k", "v") + tuple(f"p{j}" for j in range(i)))
        t = rel.var("t")
        schema.add_constraint(Constraint(
            f"R{i}-values-nonnegative",
            b.forall(s, b.holds(s, b.forall(t, b.implies(
                b.member(t, rel.rel()), b.le(b.atom(0), rel.attr("v", t)))))),
            declared_window=1,
        ))
        row = b.mktuple(k, v, *(b.atom(0) for _ in range(i)))
        puts.append(transaction(f"put-R{i}", (k, v), b.insert(row, rel.name)))
    sdb = ShardedDatabase(schema, shards=4)
    for put in puts:
        sdb.execute(put, 1, 1)
    ok = True
    print("\nsharded: 4 shards, 8 stripes, one write per stripe")
    for shard in sdb.shards:
        planner = shard.db.interpreter.planner
        planned = planner.exec_count if planner else 0
        fallback = planner.fallback_count if planner else 0
        print(f"shard {shard.index}: planned {planned}, fallback {fallback}")
        ok = ok and planned > 0 and fallback == 0
    sdb.close()
    return ok


def main() -> int:
    employee, banking = make_domain(), make_banking_domain()
    planner = QueryPlanner()
    refused = []
    for domain, constraints in (
        (employee, employee.all_constraints),
        (banking, banking.constraints()),
    ):
        state = domain.sample_state()
        for constraint in constraints:
            line = verdict(planner, constraint.formula, state)
            print(f"{constraint.name:36} {line}")
            if constraint.name in MUST_PLAN and not line.startswith("planned"):
                refused.append(constraint.name)
    if refused:
        print(f"must-plan constraints refused: {', '.join(refused)}", file=sys.stderr)
    print("\nwindow heads: what a commit must change to check its head in full")
    for domain, constraints in (
        (employee, employee.all_constraints),
        (banking, banking.constraints()),
    ):
        state = domain.sample_state()
        for constraint in constraints:
            rule = head_rule(planner, constraint.formula, state)
            if not rule.startswith("not planned"):
                print(f"{constraint.name}: {rule}")
    default_plans = single_node()
    if not default_plans:
        print("a default Database did not plan its commit", file=sys.stderr)
    shards_plan = sharded()
    if not shards_plan:
        print("a shard did not plan its constraint checks", file=sys.stderr)
    return 1 if refused or not default_plans or not shards_plan else 0


if __name__ == "__main__":
    sys.exit(main())
