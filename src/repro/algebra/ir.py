"""Relational-algebra IR: operators, value expressions, and predicates.

The compiler (:mod:`repro.algebra.compiler`) lowers a set former, an
``exists`` chain, a guarded ``forall``, or a closed s-formula over a window
of states into a small tree of these operators — an aggregate under a
comparison becomes a scalar sub-plan (:class:`GroupAgg`) inside its
predicate; the planner
(:mod:`repro.algebra.planner`) annotates the tree
with cardinality estimates and a physical join order; the executor
(:mod:`repro.algebra.executor`) runs it against a :class:`~repro.db.state.
State` through the interpreter's ``_touch``/``Budget`` seams.

Everything here is frozen data: a compiled plan is immutable and shared
across evaluations (and across the tracking interpreters of concurrent
workers), so nodes carry no per-run state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.logic.terms import Var

# ---------------------------------------------------------------------------
# value expressions — evaluated against a row (a tuple of DBTuples by slot)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Col:
    """Slot ``slot``'s tuple (``index`` 0) or its ``index``-th attribute
    (1-based, matching :meth:`DBTuple.select`)."""

    slot: int
    index: int


@dataclass(frozen=True)
class Lit:
    """An atom constant."""

    value: object


@dataclass(frozen=True)
class ParamRef:
    """A free variable of the query, bound in the environment at run time.

    The executor dereferences every parameter of a plan once, before it
    joins — the owning relation of a tuple parameter is part of the plan's
    read set.
    """

    var: Var


@dataclass(frozen=True)
class Arith:
    """Binary natural arithmetic over value expressions: ``op`` is one of
    ``+ - * div mod`` with the interpreter's exact semantics (truncated
    subtraction, ``div``/``mod`` by zero raise).  Pure — operands never
    touch a relation — so predicates over arithmetic push down like any
    other value predicate."""

    op: str
    lhs: "ValueExpr"
    rhs: "ValueExpr"


@dataclass(frozen=True, eq=False)
class GroupAgg:
    """A scalar sub-plan: ``op`` (``sum``/``max``/``min``/``size``) of the
    set ``{exprs | var in rel, local, mine = other …}`` per enclosing row,
    decorrelated into a group-by hash aggregate.  ``exprs`` / ``local`` /
    the ``mine`` side of each ``(other, mine)`` key read only the aggregated
    row (slot 0 of a private one-slot row, no parameters), so one table per
    relation version — key columns to the aggregate of the *set* of result
    tuples — serves every enclosing row, state and environment; ``other``
    is evaluated against the enclosing row.  Compared by identity: the node
    keys its own table."""

    op: str
    rel: str
    arity: int
    var: Var
    exprs: tuple["ValueExpr", ...]
    whole: bool
    local: tuple["Pred", ...]
    keys: tuple[tuple["ValueExpr", "ValueExpr"], ...]


ValueExpr = object  # Col | Lit | ParamRef | Arith | GroupAgg


@dataclass(frozen=True)
class Cmp:
    """A pure value predicate: ``lhs op rhs`` with ``op`` one of
    ``eq ne lt le gt ge``.  Never touches a relation during the join
    (operands are columns, constants, parameters, or a :class:`GroupAgg`
    whose table was opened before it), so predicates can be pushed down
    and reordered freely."""

    op: str
    lhs: ValueExpr
    rhs: ValueExpr


@dataclass(frozen=True)
class Disj:
    """A disjunction of pure-predicate conjunctions: holds when any branch's
    predicates all hold.  Evaluation is ordered and short-circuiting in both
    directions, mirroring the tree walk's ``any``/``all`` over the original
    ``Or``/``And`` — relation-touching disjuncts are compiled to union
    branches instead (see ``AltBranch`` in the compiler)."""

    branches: tuple[tuple["Pred", ...], ...]


@dataclass(frozen=True)
class Member:
    """``w::member(v, R)`` in a window plan: slot ``slot`` — ``v`` as it
    exists at state term ``term`` — is, by value, in ``rel`` at that term
    (``negated``: is not).  One slot wide: it pushes down into ``v``'s scan."""

    slot: int
    term: int
    rel: str
    arity: int
    negated: bool = False


@dataclass(frozen=True)
class Residual:
    """``w::p`` in a window plan, ``p`` outside the pure predicates: the
    interpreter evaluates it per surviving row at state term ``term``, its
    free tuple variables bound from ``binds`` (variable, row slot)."""

    term: int
    formula: object
    binds: tuple[tuple[Var, int], ...]
    negated: bool = False


Pred = object  # Cmp | Disj | Member | Residual


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scan:
    """Enumerate one relation's value-distinct representatives in canonical
    order (the tree walk's membership-narrowed domain), applying pushed-down
    local predicates."""

    rel: str
    arity: int
    slot: int
    var_name: str
    preds: tuple[Cmp, ...] = ()


@dataclass(frozen=True)
class HashJoin:
    """Left-deep equi join: build a hash table over ``right`` keyed on
    ``right_keys``, probe with the accumulated left rows on ``left_keys``;
    ``residual`` predicates (non-equi, or param-dependent) filter matches."""

    left: "Op"
    right: Scan
    left_keys: tuple[ValueExpr, ...]
    right_keys: tuple[ValueExpr, ...]
    residual: tuple[Cmp, ...] = ()


@dataclass(frozen=True)
class Select:
    """Filter rows by predicates that could not be pushed into a scan or
    join (e.g. predicates over parameters only).  ``negated`` keeps the rows
    that *fail* them — the violations of a window plan's conclusion."""

    child: "Op"
    preds: tuple[Cmp, ...]
    negated: bool = False


@dataclass(frozen=True)
class SemiJoin:
    """Keep left rows with at least one match in ``right`` (a trailing
    positive ``exists`` that could not be flattened, or a ``forall``
    consequent)."""

    left: "Op"
    right: Scan
    left_keys: tuple[ValueExpr, ...]
    right_keys: tuple[ValueExpr, ...]
    residual: tuple[Cmp, ...] = ()


@dataclass(frozen=True)
class AntiJoin:
    """Keep left rows with *no* match in ``right`` (a trailing
    ``not exists``, or the violation set of a guarded ``forall``)."""

    left: "Op"
    right: Scan
    left_keys: tuple[ValueExpr, ...]
    right_keys: tuple[ValueExpr, ...]
    residual: tuple[Cmp, ...] = ()


@dataclass(frozen=True)
class Project:
    """Produce the set former's elements from the surviving rows, in the
    tree walk's canonical enumeration order."""

    child: "Op"
    exprs: tuple[ValueExpr, ...]
    element_arity: int
    whole: bool = False
    """When the result is a bound variable itself, the projected element is
    the domain tuple *with its identifier* — representative identity must
    match the tree walk exactly."""


@dataclass(frozen=True)
class Union:
    """Set union / intersection / difference of two sub-plans (``mode`` is
    ``union``, ``intersect``, or ``diff``), delegated to
    :class:`~repro.db.values.TupleSet` so semantics match ``_set_op``."""

    mode: str
    left: "Op"
    right: "Op"


@dataclass(frozen=True)
class Aggregate:
    """``sum``/``max``/``min``/``size`` over the first column of the child
    plan's result set, with the interpreter's exact error contract."""

    op: str
    child: "Op"


@dataclass(frozen=True)
class GroupBy:
    """``left`` with the scalar of one :class:`GroupAgg` attached to every
    row: a left outer hash join with ``right`` grouped on the key columns
    (an absent group is the empty set)."""

    left: "Op"
    right: Scan
    agg: GroupAgg


@dataclass(frozen=True)
class Regress:
    """``child`` was compiled with state term ``label`` (``w;delete(v, R)``)
    pushed back to ``w`` through the delete action and frame axioms; it runs
    where they describe the interpreter (``R`` value-distinct, no stale copy
    of a row of ``R`` among the candidates)."""

    child: "Op"
    label: str


Op = object  # Scan | HashJoin | Select | SemiJoin | AntiJoin | Project | Union | Aggregate | GroupBy | Regress


def aggs_of(nodes):
    """Every :class:`GroupAgg` under the given predicates and value
    expressions — the sub-plans a query must open before it joins."""
    for n in nodes:
        if isinstance(n, GroupAgg):
            yield n
            yield from aggs_of(other for other, _ in n.keys)
        elif isinstance(n, (Cmp, Arith)):
            yield from aggs_of((n.lhs, n.rhs))
        elif isinstance(n, Disj):
            yield from aggs_of(c for branch in n.branches for c in branch)


# ---------------------------------------------------------------------------
# explain rendering
# ---------------------------------------------------------------------------


def _expr_str(e: ValueExpr, row: Optional[str] = None) -> str:
    """``row`` names the aggregated row inside a :class:`GroupAgg`, whose
    private slot 0 is not the enclosing plan's."""
    if isinstance(e, Col):
        slot = row or f"#{e.slot}"
        return slot if e.index == 0 else f"{slot}.{e.index}"
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, ParamRef):
        return f"${e.var.name}"
    if isinstance(e, Arith):
        return f"({_expr_str(e.lhs, row)} {e.op} {_expr_str(e.rhs, row)})"
    if isinstance(e, GroupAgg):
        result = ", ".join(_expr_str(r, e.var.name) for r in e.exprs)
        return f"{e.op}[{result}]"
    return repr(e)


_OPS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _pred_str(p, row: Optional[str] = None) -> str:
    if isinstance(p, Member):
        return f"#{p.slot} {'not in' if p.negated else 'in'} {p.rel}"
    if isinstance(p, Residual):
        return f"{'not ' if p.negated else ''}[{p.formula}]"
    if isinstance(p, Disj):
        return " or ".join(
            "(" + " and ".join(_pred_str(c, row) for c in branch) + ")"
            for branch in p.branches
        )
    return f"{_expr_str(p.lhs, row)} {_OPS[p.op]} {_expr_str(p.rhs, row)}"


def render(op: Op, annotate=None, indent: int = 0) -> list[str]:
    """Render an operator tree as indented lines.  ``annotate(op) -> str``
    may append per-node notes (the planner adds cardinality estimates)."""
    pad = "  " * indent
    note = ""
    if annotate is not None:
        got = annotate(op)
        if got:
            note = f"  ({got})"

    def line(text: str) -> str:
        return f"{pad}{text}{note}"

    if isinstance(op, Scan):
        preds = (
            " where " + " and ".join(_pred_str(p) for p in op.preds)
            if op.preds
            else ""
        )
        return [line(f"Scan {op.rel} as {op.var_name}(#{op.slot}){preds}")]
    if isinstance(op, GroupBy):
        agg = op.agg
        name = agg.var.name
        by = " and ".join(
            f"{_expr_str(mine, name)} = {_expr_str(other)}" for other, mine in agg.keys
        ) or "true"
        where = " and ".join(_pred_str(p, name) for p in agg.local)
        where = f" where {where}" if where else ""
        return [
            line(f"GroupBy {_expr_str(agg)} by {by}{where}"),
            *render(op.left, annotate, indent + 1),
            *render(op.right, annotate, indent + 1),
        ]
    if isinstance(op, (HashJoin, SemiJoin, AntiJoin)):
        name = type(op).__name__
        keys = " and ".join(
            f"{_expr_str(l)} = {_expr_str(r)}"
            for l, r in zip(op.left_keys, op.right_keys)
        ) or "true"
        residual = (
            " residual " + " and ".join(_pred_str(p) for p in op.residual)
            if op.residual
            else ""
        )
        return [
            line(f"{name} on {keys}{residual}"),
            *render(op.left, annotate, indent + 1),
            *render(op.right, annotate, indent + 1),
        ]
    if isinstance(op, Select):
        preds = " and ".join(_pred_str(p) for p in op.preds)
        if op.negated:
            preds = f"not ({preds})"
        return [line(f"Select {preds}"), *render(op.child, annotate, indent + 1)]
    if isinstance(op, Project):
        exprs = ", ".join(_expr_str(e) for e in op.exprs)
        return [
            line(f"Project [{exprs}] arity={op.element_arity}"),
            *render(op.child, annotate, indent + 1),
        ]
    if isinstance(op, Union):
        return [
            line(f"Union mode={op.mode}"),
            *render(op.left, annotate, indent + 1),
            *render(op.right, annotate, indent + 1),
        ]
    if isinstance(op, Aggregate):
        return [
            line(f"Aggregate {op.op}"),
            *render(op.child, annotate, indent + 1),
        ]
    if isinstance(op, Regress):
        return [
            line(f"Regress {op.label} by the delete axioms"),
            *render(op.child, annotate, indent + 1),
        ]
    return [line(type(op).__name__)]
