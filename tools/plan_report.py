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

Run:  PYTHONPATH=src python tools/plan_report.py
"""

from __future__ import annotations

import sys

from repro.algebra.planner import QueryPlanner
from repro.constraints.semantics import PartialModel
from repro.domains import make_domain
from repro.domains.banking import make_banking_domain
from repro.errors import PlanError
from repro.logic.formulas import Forall

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
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
