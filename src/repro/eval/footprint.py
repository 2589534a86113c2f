"""Static relation-footprint analysis of constraints and programs.

Sharding (:mod:`repro.sharding`) must know which relations a constraint's
verdict, or a program's evaluation, can depend on: placement co-locates a
constraint's relations on one shard, and routing sends a program to the
shards owning its relations.  The evidence is a **footprint**: an
over-approximation of every relation the evaluation can read.  This module
computes that footprint syntactically, mirroring the two evaluators
exactly:

* relation constants (``RelConst``/``RelIdConst``) are read directly — the
  mention set :meth:`repro.transactions.program.DatabaseProgram.
  mentioned_relations` computes for programs, applied here to formulas;
* a quantified **tuple** or **set** variable of arity ``a`` bound inside a
  fluent context (``w::p``) enumerates the active domain of that arity —
  every relation of arity ``a``, including ones a later commit creates, so
  the footprint records the *arity* (``arities``), not a name list frozen at
  analysis time;
* a quantified **atom** variable enumerates the active atom domain, which
  reads every relation (``universe``);
* a **situational** tuple variable (bound outside any ``w::``) is
  dereferenced by identifier at each state it is evaluated in, and tuple
  *identifier liveness is a global property of the state*: a delete in one
  relation followed by an insert in another can move an identifier between
  relations (the engine's move patterns do this deliberately), changing what
  the dereference denotes.  Such constraints get ``universe`` footprints —
  see DESIGN.md §7.3 for the resurrection scenario that forces this.

A footprint can also be **ineligible** (bounded by no relation set, so
placement keeps every relation on one shard and routing fans out to all)
when the formula's verdict is not a pure function of the window's relation
contents: existential state/transition quantification (the unbounded-future
constraints Section 3 calls uncheckable), interpreted state constants,
embedded state-changing applications (which consume the allocator), or
defined/Skolem symbols whose expansion this analysis cannot see.

>>> from repro.domains import make_domain
>>> d = make_domain()
>>> fp = constraint_footprint(d.every_employee_allocated(), d.schema)
>>> fp.eligible
True
>>> sorted(fp.relations)
['ALLOC', 'DEPT', 'EMP']
>>> sorted(fp.arities)
[3, 5]
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.classify import analyze_state_usage
from repro.constraints.model import Constraint
from repro.db.schema import Schema
from repro.logic.formulas import Eq, EvalBool, Pred, SPred
from repro.logic.symbols import SymbolKind
from repro.logic.terms import (
    App,
    ConstExpr,
    EvalObj,
    EvalState,
    Node,
    RelConst,
    RelIdConst,
    SApp,
    Var,
)

#: Symbol kinds whose application makes a constraint's footprint ineligible.
#: State-changing applications execute transactions inside the formula (they
#: read the allocator, which advances on every commit); defined symbols
#: expand to bodies this analysis cannot see; Skolem symbols are prover
#: artifacts that should never reach a runtime constraint.
_INELIGIBLE_KINDS = frozenset(
    {SymbolKind.STATE_CHANGING, SymbolKind.DEFINED, SymbolKind.SKOLEM}
)


@dataclass(frozen=True)
class Footprint:
    """The relation read-set over-approximation of one constraint.

    ``relations`` are names read directly; ``arities`` widen to every
    relation (present or future) of those arities; ``universe`` means the
    evaluation may read any relation.  ``eligible=False`` means the verdict
    is not a pure function of the window's relation contents at all.
    """

    constraint_name: str
    relations: frozenset[str]
    arities: frozenset[int]
    universe: bool
    eligible: bool
    reason: str

    @property
    def bounded(self) -> bool:
        """Is the footprint a proper subset of the state?"""
        return self.eligible and not self.universe

    def __str__(self) -> str:
        if not self.eligible:
            return f"{self.constraint_name}: ineligible ({self.reason})"
        if self.universe:
            return f"{self.constraint_name}: universe ({self.reason})"
        parts = ", ".join(sorted(self.relations))
        widened = (
            " + arities {" + ", ".join(str(a) for a in sorted(self.arities)) + "}"
            if self.arities
            else ""
        )
        return f"{self.constraint_name}: {{{parts}}}{widened}"


def constraint_footprint(constraint: Constraint, schema: Schema) -> Footprint:
    """Analyze one constraint against a schema.

    The returned footprint's name list is closed under arity widening at
    *analysis* time (so callers can print it); relations created later are
    covered by ``arities``, which sharding homes as a whole.
    """
    acc = _Acc()
    _walk(constraint.formula, fluent=False, acc=acc)

    usage = analyze_state_usage(constraint.formula)
    if usage.existential_state_vars or usage.existential_transition_vars:
        acc.ineligible(
            "existential state/transition quantification needs the unbounded "
            "future"
        )
    if usage.universal_transition_vars:
        # A commit adds a transition whose *steps* are the program that just
        # ran; applying those steps to other window states can touch
        # relations the commit's net delta never did, so no footprint bounds
        # a transition-quantified verdict.
        acc.ineligible(
            "transition quantification ranges over recorded transition steps"
        )
    if usage.state_constants:
        acc.ineligible(
            "interpreted state constants pin states outside the window"
        )

    relations = set(acc.relations)
    for name, rs in schema.relations.items():
        if rs.arity in acc.arities:
            relations.add(name)
    return Footprint(
        constraint_name=constraint.name,
        relations=frozenset(relations),
        arities=frozenset(acc.arities),
        universe=acc.universe,
        eligible=not acc.reasons,
        reason="; ".join(acc.reasons) if acc.reasons else acc.note,
    )


def fluent_footprint(formula: Node) -> Footprint:
    """The read set of an f-formula evaluated at one state, its free
    variables bound by the caller: the relations it names and the arities
    its quantified tuple and set variables enumerate (not closed over a
    schema).  The window planner's residual read set
    (:func:`repro.algebra.compiler.compile_window`).

    >>> from repro.domains import make_domain
    >>> d = make_domain()
    >>> fp = fluent_footprint(d.every_employee_allocated().formula.body.formula)
    >>> sorted(fp.relations), sorted(fp.arities), fp.bounded
    (['ALLOC', 'EMP'], [3, 5], True)
    """
    acc = _Acc()
    _walk(formula, fluent=True, acc=acc)
    return Footprint(
        constraint_name="",
        relations=frozenset(acc.relations),
        arities=frozenset(acc.arities),
        universe=acc.universe,
        eligible=not acc.reasons,
        reason="; ".join(acc.reasons) if acc.reasons else acc.note,
    )


def program_footprint(program, schema: Schema) -> Footprint:
    """The relation footprint of a :class:`~repro.transactions.program.
    DatabaseProgram` — the routing key of :mod:`repro.sharding`.

    Same over-approximation discipline as :func:`constraint_footprint`,
    applied to a program's body and precondition: directly mentioned
    relations are read by name, quantified tuple/set variables widen to
    their arity's active domain, atom variables widen to the universe.
    Program bodies and preconditions are evaluated in a fluent context (the
    interpreter runs them at concrete states), so there are no situational
    dereferences to force universe footprints.

    A sharded database routes a program to the single shard owning its
    footprint when the footprint is :attr:`Footprint.bounded` and every
    relation it names (plus every relation of every widened arity) lives on
    one shard; anything wider becomes a cross-shard transaction over
    exactly the owning shards — or all shards for universe/ineligible
    footprints.  Over-approximation is always safe here: it can only widen
    the participant set, never hide a relation the evaluation reads.

    >>> from repro.domains import make_domain
    >>> d = make_domain()
    >>> fp = program_footprint(d.hire, d.schema)
    >>> sorted(fp.relations)
    ['EMP']
    >>> fp.bounded
    True
    """
    acc = _Acc(
        ineligible_kinds=_INELIGIBLE_KINDS - {SymbolKind.STATE_CHANGING}
    )
    _walk(program.body, fluent=True, acc=acc)
    if program.precondition is not None:
        _walk(program.precondition, fluent=True, acc=acc)

    relations = set(acc.relations)
    for name, rs in schema.relations.items():
        if rs.arity in acc.arities:
            relations.add(name)
    return Footprint(
        constraint_name=program.name,
        relations=frozenset(relations),
        arities=frozenset(acc.arities),
        universe=acc.universe,
        eligible=not acc.reasons,
        reason="; ".join(acc.reasons) if acc.reasons else acc.note,
    )


class _Acc:
    """Mutable analysis state for one formula walk.

    ``ineligible_kinds`` varies by client: constraint analysis rejects
    state-changing applications (they consume the allocator inside a
    formula whose verdict must be a pure function of the window), while
    program analysis expects them — a transaction body *is* a
    state-changing application.
    """

    def __init__(
        self, ineligible_kinds: frozenset = _INELIGIBLE_KINDS
    ) -> None:
        self.ineligible_kinds = ineligible_kinds
        self.relations: set[str] = set()
        self.arities: set[int] = set()
        self.universe = False
        self.reasons: list[str] = []
        self.note = ""

    def ineligible(self, reason: str) -> None:
        if reason not in self.reasons:
            self.reasons.append(reason)

    def widen_universe(self, note: str) -> None:
        if not self.universe:
            self.universe = True
            self.note = note


def _bind(var: Var, fluent: bool, acc: _Acc) -> None:
    """Record the domain a quantified variable's enumeration reads."""
    if var.sort.is_state or var.is_transition_var:
        return  # states/transitions range over the window, not relations
    if var.sort.is_atom:
        acc.widen_universe(
            f"atom variable {var.name} enumerates the active atom domain"
        )
        return
    if var.sort.is_tuple:
        if fluent:
            acc.arities.add(var.sort.arity)
        else:
            # Situational tuple variables dereference by identifier across
            # states; identifier liveness is global (DESIGN.md §7.3).
            acc.widen_universe(
                f"situational tuple variable {var.name} dereferences by "
                f"identifier"
            )
        return
    if var.sort.is_set:
        acc.arities.add(var.sort.arity)
        return
    acc.ineligible(f"variable {var.name} of unanalyzed sort {var.sort}")


def _walk(node: Node, fluent: bool, acc: _Acc) -> None:
    for var in node.bound_vars():
        _bind(var, fluent, acc)
    if isinstance(node, (RelConst, RelIdConst)):
        acc.relations.add(node.name)
    elif isinstance(node, (App, SApp, Pred, SPred)):
        if node.symbol.kind in acc.ineligible_kinds:
            acc.ineligible(
                f"application of {node.symbol.kind.value} symbol "
                f"{node.symbol.name}"
            )
    elif isinstance(node, ConstExpr) and node.const_sort.is_state:
        acc.ineligible(f"state constant {node.name}")
    elif isinstance(node, Eq) and node.lhs.sort.is_state and not fluent:
        # State equality compares entire relation maps, not a footprint's
        # worth of them; only a wholly untouched delta preserves it.
        acc.widen_universe("state equality compares full state contents")

    # Context switches: the fluent side of w::p / w:e / w;e is evaluated by
    # the interpreter (arity-wide active domains); everything else inherits
    # the enclosing context.
    if isinstance(node, EvalBool):
        _walk(node.state, fluent, acc)
        _walk(node.formula, True, acc)
        return
    if isinstance(node, EvalObj):
        _walk(node.state, fluent, acc)
        _walk(node.expr, True, acc)
        return
    if isinstance(node, EvalState):
        _walk(node.state, fluent, acc)
        _walk(node.trans, True, acc)
        return
    if isinstance(node, (SPred, SApp)):
        _walk(node.state, fluent, acc)
        for arg in node.args:
            _walk(arg, fluent, acc)
        return
    for child in node.children():
        _walk(child, fluent, acc)
