"""Constraint checking against partial models (histories and graphs).

``check_*`` functions evaluate constraints over a maintained partial model —
the current state alone, a k-state window, or a full recorded history — and
report structured results.  Following Section 3, checking a constraint
against a window is only *meaningful* when the constraint is checkable with
that much history; :func:`check_history` can enforce this via the
constraint's declared window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import CheckabilityError
from repro.constraints.model import Constraint, Window
from repro.constraints.semantics import Evaluator, PartialModel
from repro.db.evolution import History
from repro.db.state import State
from repro.transactions.interpreter import Interpreter


@dataclass(frozen=True)
class CheckResult:
    """The outcome of checking one constraint against one partial model."""

    constraint: Constraint
    ok: bool
    states_checked: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        verdict = "satisfied" if self.ok else "VIOLATED"
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.constraint.name}: {verdict} over {self.states_checked} state(s){extra}"


@dataclass
class CheckReport:
    """Results for a batch of constraints."""

    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def violations(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def __iter__(self):
        return iter(self.results)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.results)


def check_state(
    constraint: Constraint,
    state: State,
    interpreter: Interpreter | None = None,
) -> CheckResult:
    """Check against the current state only (window of one).

    Static constraints are exactly the constraints checkable this way.

    >>> from repro.domains import make_domain
    >>> domain = make_domain()
    >>> result = check_state(domain.every_employee_allocated(),
    ...                      domain.sample_state())
    >>> print(result)
    every-employee-allocated: satisfied over 1 state(s)
    """
    model = PartialModel.of_states([state], interpreter)
    ok = Evaluator(model).holds(constraint.formula)
    return CheckResult(constraint, ok, 1)


def check_history(
    constraint: Constraint,
    history: History,
    interpreter: Interpreter | None = None,
    enforce_window: bool = False,
    model: Optional[PartialModel] = None,
) -> CheckResult:
    """Check against a maintained history window.

    With ``enforce_window=True``, refuse (raise :class:`CheckabilityError`)
    when the constraint's declared checkability needs more states than the
    history holds — the trade-off of Section 3 made operational.  ``model``
    is ``history``'s partial model when the caller already built it (a
    commit checks every constraint over one); else it is built here.

    >>> from repro.db.evolution import History
    >>> from repro.domains import make_domain
    >>> domain = make_domain()
    >>> history = History(window=2)
    >>> history.start(domain.sample_state())
    >>> history.advance(domain.add_skill.run(history.current, "alice", 4),
    ...                 "learn")
    >>> result = check_history(domain.skill_retention(), history)
    >>> (result.ok, result.states_checked)
    (True, 2)
    """
    if enforce_window:
        required = constraint.declared_window
        if required is Window.UNCHECKABLE:
            raise CheckabilityError(
                f"constraint {constraint.name} is not checkable with any "
                f"maintained history"
            )
        if required is Window.FULL_HISTORY and history.window is not None:
            raise CheckabilityError(
                f"constraint {constraint.name} needs the complete history; "
                f"the maintained window keeps only {history.window} state(s)"
            )
        if isinstance(required, int) and (
            history.window is not None and history.window < required
        ):
            raise CheckabilityError(
                f"constraint {constraint.name} needs {required} states; the "
                f"maintained window keeps only {history.window}"
            )
    if model is None:
        model = PartialModel.of_history(history, interpreter)
    ok = Evaluator(model).holds(constraint.formula)
    return CheckResult(constraint, ok, len(history))


def check_model(
    constraint: Constraint,
    model: PartialModel,
) -> CheckResult:
    """Check against an arbitrary partial model (evolution graph)."""
    ok = Evaluator(model).holds(constraint.formula)
    return CheckResult(constraint, ok, len(model.states()))


def check_all(
    constraints: Iterable[Constraint],
    history: History,
    interpreter: Interpreter | None = None,
    enforce_window: bool = False,
) -> CheckReport:
    """Check a batch of constraints against one history."""
    report = CheckReport()
    for c in constraints:
        report.results.append(
            check_history(c, history, interpreter, enforce_window)
        )
    return report


def check_transition(
    constraint: Constraint,
    before: State,
    after: State,
    label: str = "tx",
    interpreter: Interpreter | None = None,
) -> CheckResult:
    """Check a transaction constraint against a single recorded transition.

    Builds the two-state chain model ``before -> after``; this is the
    "current state and the previous state are maintained" regime in which
    the paper says "certain transaction constraints become checkable".
    """
    model = PartialModel.of_states([before, after], interpreter)
    ok = Evaluator(model).holds(constraint.formula)
    return CheckResult(constraint, ok, 2, f"transition {label}")
