"""Compiler from the fluent fragment to relational-algebra form.

The compilable fragment is deliberately narrow — every relation a compiled
shape reads is *named* by a membership conjunct, so its read set is
computable from the plan alone (the contract in
:mod:`repro.algebra.executor`, DESIGN.md §7.6):

* every bound variable is tuple-sorted and has exactly one membership
  conjunct ``member(v, R)`` over a bare :class:`RelConst` (its domain);
* all other conjuncts are pure value predicates — ``=``/``!=``, integer
  comparisons, and binary arithmetic (``+ - * div mod``) over attributes/
  selections of bound variables, atom constants, and environment
  parameters — which never touch a relation; an ``or`` of such predicates
  compiles to a :class:`~repro.algebra.ir.Disj`;
* an operand may be ``sum``/``max``/``min``/``size`` of a one-variable set
  former tied to the enclosing row by equalities only: a
  :class:`~repro.algebra.ir.GroupAgg`, whose relation the plan names like
  any level and whose group table depends on that relation version alone;
* a conjunction may end in a *sequence* of quantified conjuncts: each
  positive ``exists`` flattens into further join levels (its own scope
  group), and the final one may be a ``not exists`` (anti join);
* alternatively the final conjunct may be an ``or`` whose disjuncts each
  hold pure predicates plus at most one single-level ``[not] exists`` —
  compiled to union branches (:class:`AltBranch`);
* a ``forall`` must be guarded, ``forall v. member(v, R) ∧ guards → body``,
  with a body of pure predicates plus at most one (possibly negated)
  single-level ``exists``;
* a ``foreach`` iteration domain compiles like a set former over its bound
  variable, yielding the satisfier list in canonical order;
* one situational shape, the **window plan** (:func:`compile_window`): a
  closed ``forall`` prefix over state, transition and fluent tuple
  variables with body ``c1 ∧ … ∧ cn → d``, built from ``w::member(v, R)``,
  pure predicates over ``w:attr(v)``, and — closing the premise, or in the
  conclusion — residual ``w::p`` f-formulas evaluated per surviving row.
  A state term ``w`` is ``s`` or ``s;t…``; a row slot is a *(tuple
  variable, state term)* pair ``v@w``, so the predicates above are reused
  as they are.  Tuple variables range over the window's whole active
  domain, so an ordered comparison must sit behind a positive membership
  of its slot, whose relation types the column.  Two edges of the shape:
  ``(w;delete(v, R))::φ`` is first *regressed* to ``w::φ′`` through the
  delete action and frame axioms (:mod:`repro.theory.regression`), and a
  prefix with no tuple variable — a static ``forall s. s::p`` — is the
  degenerate plan, no join and ``p`` a residual per state.

Anything else — defined/skolem/state-changing symbols, other situational
nodes (any other concrete transaction in a state term, nested state or
transition quantifiers, transition equalities, other prefix sorts),
memberships swallowed inside a disjunction, an aggregate correlated by
more than equalities, set-valued or atom-sorted bound variables, double
memberships — raises :class:`Incompilable`, and the planner falls back to
the tree walk.  Fallback is always sound: the tree walk is the semantics.

This mirrors the eligibility analysis of :mod:`repro.eval.footprint`: walk
the tree, accumulate structure, record the first blocking reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.logic.fluents import Foreach, SetFormer
from repro.logic.formulas import And, Eq, Exists, Forall, Formula, Implies, Not, Or, Pred
from repro.logic.formulas import EvalBool, Quant, SPred
from repro.logic.substitution import Substitution
from repro.logic.symbols import SymbolKind
from repro.logic.terms import App, AtomConst, Expr, Layer, RelConst, RelIdConst, Var
from repro.logic.terms import EvalObj, EvalState, SApp
from repro.transactions.interpreter import _base_name, _conjuncts

from repro.algebra.ir import Arith, Cmp, Col, Disj, GroupAgg, Lit, ParamRef, ValueExpr
from repro.algebra.ir import Member, Residual, aggs_of


class Incompilable(Exception):
    """Internal signal: the node is outside the compilable fragment.

    Never escapes the planner — it is converted to a tree-walk fallback (or
    to :class:`repro.errors.PlanError` when compilation was explicitly
    requested)."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


# ---------------------------------------------------------------------------
# compiled shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """One membership-narrowed enumeration level: ``var`` ranges over the
    value-distinct representatives of relation ``rel``."""

    var: Var
    slot: int
    rel: str
    arity: int


@dataclass(frozen=True)
class SubQuery:
    """A trailing ``not exists`` (anti join) over one inner level."""

    level: Level
    preds: tuple[Cmp, ...]


@dataclass(frozen=True)
class ResultSpec:
    exprs: tuple[ValueExpr, ...]
    whole: bool
    element_arity: int


@dataclass(frozen=True)
class AltBranch:
    """One disjunct of a trailing ``or``, evaluated per surviving row of
    the positive join: pure predicates plus at most one single-level
    ``[not] exists``.  Branches are tried in source order per row, like
    the tree walk's ``any``."""

    preds: tuple  # Cmp | Disj, over the enclosing chain's slots
    level: Optional[Level]
    inner_preds: tuple  # Cmp | Disj, may also mention ``level``'s slot
    negated: bool


@dataclass(frozen=True)
class ChainQuery:
    """A set former, ``exists`` chain, or ``foreach`` domain: joined
    levels, predicates, an optional trailing anti join *or* union branches
    (never both), (for set formers / foreach) the projection, the node's
    free variables — the parameters the executor dereferences — the
    run-time ``checks`` under which no predicate can raise
    (:func:`_totality_checks`), and the group-by sub-plans (``aggs``) its
    predicates read."""

    levels: tuple[Level, ...]
    preds: tuple  # Cmp | Disj
    sub: Optional[SubQuery]
    kind: str  # "setformer" | "exists" | "foreach"
    result: Optional[ResultSpec]
    alts: tuple[AltBranch, ...] = ()
    params: tuple[Var, ...] = ()
    checks: tuple = ()
    aggs: tuple[GroupAgg, ...] = ()


@dataclass(frozen=True)
class ForallQuery:
    """``forall v. (member(v, R) ∧ guards) → (pres ∧ [not] exists u...)``.

    Slot 0 is the guard variable, slot 1 the body variable.  ``negated``
    marks a ``not exists`` body (violations are semi-join matches instead
    of anti-join misses)."""

    var: Var
    arity: int
    rel: str
    guard_preds: tuple[Cmp, ...]
    pre_preds: tuple[Cmp, ...]
    body_level: Optional[Level]
    body_preds: tuple[Cmp, ...]
    negated: bool
    params: tuple[Var, ...] = ()
    checks: tuple = ()
    aggs: tuple[GroupAgg, ...] = ()


@dataclass(frozen=True)
class Slot:
    """One window row slot: a tuple variable as it exists at state term
    ``term``; ``var`` is the slot's own variable, named ``v@w``."""

    var: Var
    slot: int
    term: int


@dataclass(frozen=True)
class WindowQuery:
    """A closed ``forall`` prefix with body ``c1 ∧ … ∧ cn → d``, as a join
    across the versions of a window.  ``terms`` lists the state terms as
    ``(base, label)`` — ``base`` the term a transition variable extends,
    ``None`` for a state variable; ``groups`` holds, per tuple variable in
    prefix order, one slot per term it is read at; ``preds`` the premise's
    memberships and pure predicates in source order, ``residuals`` the
    ``w::p`` conjuncts that close it, ``conclusion`` a conjunction of any of
    them; ``checks`` the integer columns under which no predicate raises;
    ``regressed`` one ``(relation, arity, label)`` per state term
    ``w;delete(v, R)`` rewritten away — the executor shows, at each state,
    that the axioms used describe the interpreter there; ``reads`` the
    residuals' read set as ``(relations, arities)`` — what a state term's
    residual verdicts can depend on, ``None`` when no footprint bounds it.
    No tuple variable (a static ``forall s. s::p``) is the degenerate plan:
    no join, one empty row per state, ``p`` a residual of the conclusion."""

    terms: tuple[tuple[Optional[int], str], ...]
    groups: tuple[tuple[Slot, ...], ...]
    preds: tuple  # Member | Cmp | Disj
    residuals: tuple[Residual, ...]
    conclusion: tuple  # Member | Cmp | Disj | Residual
    checks: tuple = ()
    regressed: tuple[tuple[str, int, str], ...] = ()
    reads: Optional[tuple[frozenset, frozenset]] = (frozenset(), frozenset())


@dataclass(frozen=True)
class RelQuery:
    """A bare relation constant used as a set (aggregate/set-op child)."""

    rel: str
    arity: int


@dataclass(frozen=True)
class SetOpQuery:
    mode: str  # "union" | "intersect" | "diff"
    left: object
    right: object


@dataclass(frozen=True)
class AggQuery:
    op: str  # "sum" | "max" | "min" | "size"
    child: object


# ---------------------------------------------------------------------------
# eligibility helpers
# ---------------------------------------------------------------------------

_PRED_OPS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def _check_symbols(node, interp) -> None:
    """Refuse nodes the executor has no replication for: situational
    layers, state-changing/defined/skolem/identifier symbols, and symbols
    shadowed by interpreter definitions."""
    for sub in node.iter_subnodes():
        layer = getattr(sub, "layer", None)
        if layer is Layer.SITUATIONAL:
            raise Incompilable("situational subterm")
        if isinstance(sub, App):
            kind = sub.symbol.kind
            if kind in (
                SymbolKind.STATE_CHANGING,
                SymbolKind.DEFINED,
                SymbolKind.SKOLEM,
                SymbolKind.IDENTIFIER,
            ):
                raise Incompilable(f"symbol kind {kind.name.lower()}")
            if interp is not None and interp.definitions is not None:
                if interp.definitions.lookup_definition(sub.symbol.name) is not None:
                    raise Incompilable(f"defined symbol {sub.symbol.name}")


def _compile_value(expr: Expr, slots: dict[Var, int]) -> ValueExpr:
    """An attribute/selection/constant/parameter as a row expression."""
    if isinstance(expr, AtomConst):
        return Lit(expr.value)
    if isinstance(expr, Var):
        if expr in slots:
            return Col(slots[expr], 0)
        if expr.sort.is_tuple or expr.sort.is_atom:
            return ParamRef(expr)
        raise Incompilable(f"parameter {expr.name} of sort {expr.sort}")
    if isinstance(expr, App):
        sym = expr.symbol
        base = _base_name(sym.name)
        if sym.kind is SymbolKind.ATTRIBUTE:
            inner = _compile_value(expr.args[0], slots)
            return _index_of(inner, sym.index, expr)
        if sym.kind is SymbolKind.TUPLE and base == "select":
            if not isinstance(expr.args[1], AtomConst) or not isinstance(
                expr.args[1].value, int
            ):
                raise Incompilable("select with non-constant index")
            inner = _compile_value(expr.args[0], slots)
            return _index_of(inner, expr.args[1].value, expr)
        if (
            sym.kind is SymbolKind.ARITHMETIC
            and base in ("+", "-", "*", "div", "mod")
            and len(expr.args) == 2
        ):
            # Binary natural arithmetic is pure (operands are values, the
            # executor replicates _arithmetic exactly, including truncated
            # subtraction and the div/mod-by-zero error contract).
            return Arith(
                base,
                _compile_value(expr.args[0], slots),
                _compile_value(expr.args[1], slots),
            )
        if sym.kind is SymbolKind.ARITHMETIC and base in ("sum", "max", "min", "size"):
            return _compile_group_agg(base, expr.args[0], slots)
        raise Incompilable(f"function {sym.name} in condition")
    raise Incompilable(f"{type(expr).__name__} in condition")


def _compile_group_agg(op: str, former: Expr, slots: dict[Var, int]) -> GroupAgg:
    """``op`` of a set former over one relation whose every link to the
    enclosing row is an equality: each conjunct either reads the aggregated
    row alone (``local``) or equates an expression over it with one that
    does not mention it (a group key).  The aggregated side takes no
    parameter, so its table depends on the relation version only."""
    if not isinstance(former, SetFormer) or len(former.bound) != 1:
        raise Incompilable(f"{op} of anything but a one-variable set former")
    var = former.bound[0]
    if var in slots:
        raise Incompilable(f"rebinding of {var.name}")
    conjuncts = _conjuncts(former.cond)
    domain = _domain_of(var, conjuncts)
    own = {var: 0}
    local: list = []
    keys: list = []
    for c in conjuncts:
        if _is_member(c) and c.args[0] == var:
            continue
        if c.free_vars() <= {var}:
            local.append(_compile_pred(c, own))
            continue
        sides = ((c.lhs, c.rhs), (c.rhs, c.lhs)) if isinstance(c, Eq) else ()
        for mine, other in sides:
            if mine.free_vars() == {var} and var not in other.free_vars():
                keys.append((_compile_value(other, slots), _compile_value(mine, own)))
                break
        else:
            raise Incompilable(f"{op}: {var.name} is correlated by more than an equality")
    if not former.result.free_vars() <= {var}:
        raise Incompilable(f"{op}: the result reads the enclosing row")
    result = _compile_result(former, own)
    if any(aggs_of([*local, *(mine for _, mine in keys), *result.exprs])):
        raise Incompilable(f"{op}: an aggregate over the aggregated row")
    return GroupAgg(
        op, domain.name, domain.arity, var, result.exprs, result.whole,
        tuple(local), tuple(keys),
    )


def _index_of(inner: ValueExpr, index: int, expr: Expr) -> ValueExpr:
    if isinstance(inner, Col) and inner.index == 0:
        return Col(inner.slot, index)
    if isinstance(inner, ParamRef):
        # Attribute of a parameter tuple: modeled as a parameter selection.
        return ParamSel(inner.var, index)
    raise Incompilable(f"nested selection in {expr}")


@dataclass(frozen=True)
class ParamSel:
    """``index``-th attribute (1-based) of a parameter tuple."""

    var: Var
    index: int


def _compile_pred(f: Formula, slots: dict[Var, int]):
    """A pure value predicate (``Cmp`` or ``Disj``), or raise."""
    if isinstance(f, Eq):
        return Cmp("eq", _compile_value(f.lhs, slots), _compile_value(f.rhs, slots))
    if isinstance(f, Not) and isinstance(f.body, Eq):
        inner = f.body
        return Cmp(
            "ne", _compile_value(inner.lhs, slots), _compile_value(inner.rhs, slots)
        )
    if isinstance(f, Or):
        # Pure disjunction: each disjunct a conjunction of pure predicates.
        # Branch and conjunct order are preserved — truth evaluation (and
        # its error behavior) short-circuits like the tree walk's any/all.
        branches = tuple(
            tuple(_compile_pred(c, slots) for c in _conjuncts(d))
            for d in f.disjuncts
        )
        return Disj(branches)
    if isinstance(f, Pred):
        base = _base_name(f.symbol.name)
        if base in _PRED_OPS:
            return Cmp(
                _PRED_OPS[base],
                _compile_value(f.args[0], slots),
                _compile_value(f.args[1], slots),
            )
        raise Incompilable(f"predicate {f.symbol.name}")
    raise Incompilable(f"{type(f).__name__} conjunct")


def _totality_checks(groups) -> tuple:
    """What must hold of a state and an environment for no predicate to
    raise.  A join tests predicates on other row combinations than the
    nested enumeration does, so the two evaluators agree on errors only
    where there are none: every operand of an ordered comparison or of
    arithmetic must be an integer, every divisor non-zero, every selection
    in range.  ``groups`` pairs the levels in scope with their predicates.

    Constants are settled here (:class:`Incompilable` when one can only
    raise); columns and parameters become ``(need, what)`` checks the
    executor runs before the plan: ``("column", (rel, index))`` — the
    column holds integers only — and ``("int" | "nonzero" | "defined",
    expr)`` over a parameter expression."""
    checks: list = []

    def integer(e, by_slot) -> None:
        if isinstance(e, Lit):
            if type(e.value) is not int:
                raise Incompilable(f"{e.value!r} where an integer is required")
        elif isinstance(e, Col):
            lv = by_slot[e.slot]
            # A whole 1-tuple coerces to its atom.
            index = e.index or (1 if lv.arity == 1 else 0)
            if not 0 < index <= lv.arity:
                raise Incompilable(f"{lv.var.name}: no integer column {e.index}")
            checks.append(("column", (lv.rel, index)))
        elif isinstance(e, Arith):
            integer(e.lhs, by_slot)
            integer(e.rhs, by_slot)
            if e.op in ("div", "mod"):
                if isinstance(e.rhs, (ParamRef, ParamSel)):
                    checks.append(("nonzero", e.rhs))
                elif not (isinstance(e.rhs, Lit) and e.rhs.value):
                    raise Incompilable("divisor is not a non-zero constant")
        elif isinstance(e, GroupAgg):
            aggregate(e, by_slot)
        else:
            checks.append(("int", e))

    def aggregate(e, by_slot) -> None:
        """An aggregate is an integer where its group is not empty (the
        executor hands ``max``/``min`` of an empty group back); no cell the
        walk would add up or compare may be a non-integer."""
        own = {0: Level(e.var, 0, e.rel, e.arity)}
        for p in e.local:
            total(p, own)
        for other, mine in e.keys:
            defined(other, by_slot)
            defined(mine, own)
        if e.op != "size":
            integer(Col(0, 1) if e.whole else e.exprs[0], own)

    def defined(e, by_slot) -> None:
        if isinstance(e, (Arith, GroupAgg)):
            integer(e, by_slot)
        elif isinstance(e, Col) and e.index > by_slot[e.slot].arity:
            raise Incompilable(f"selection {e.index} out of range")
        elif isinstance(e, ParamSel):
            checks.append(("defined", e))

    def total(p, by_slot) -> None:
        if isinstance(p, Disj):
            for branch in p.branches:
                for c in branch:
                    total(c, by_slot)
            return
        check = defined if p.op in ("eq", "ne") else integer
        check(p.lhs, by_slot)
        check(p.rhs, by_slot)

    for levels, preds in groups:
        by_slot = {lv.slot: lv for lv in levels}
        for p in preds:
            total(p, by_slot)
    return tuple(dict.fromkeys(checks))


def _is_member(f: Formula) -> bool:
    return isinstance(f, Pred) and _base_name(f.symbol.name) == "member"


def _domain_of(var: Var, conjuncts: list[Formula]) -> RelConst:
    """The variable's single RelConst membership conjunct."""
    if not (var.sort.is_tuple):
        raise Incompilable(f"bound variable {var.name} is not tuple-sorted")
    memberships = [
        c for c in conjuncts if _is_member(c) and c.args[0] == var
    ]
    if len(memberships) != 1:
        raise Incompilable(
            f"{var.name}: expected exactly one membership, got {len(memberships)}"
        )
    collection = memberships[0].args[1]
    if not isinstance(collection, RelConst):
        raise Incompilable(f"{var.name}: domain is not a relation constant")
    if collection.arity != var.sort.arity:
        raise Incompilable(f"{var.name}: domain arity mismatch")
    # The tree walk narrows from the *first* membership conjunct; with
    # exactly one over a RelConst, narrowing and this compilation agree.
    first_member = next(c for c in conjuncts if _is_member(c) and c.args[0] == var)
    if first_member is not memberships[0]:  # pragma: no cover - defensive
        raise Incompilable(f"{var.name}: ambiguous membership order")
    return collection


# ---------------------------------------------------------------------------
# chain compilation (set formers and exists chains)
# ---------------------------------------------------------------------------


def _is_quantified(c: Formula) -> bool:
    return isinstance(c, Exists) or (isinstance(c, Not) and isinstance(c.body, Exists))


def _or_needs_union(f: Or) -> bool:
    """Does any disjunct carry a quantified conjunct (so the ``or`` cannot
    compile to a pure :class:`Disj` predicate)?"""
    return any(
        _is_quantified(c) for d in f.disjuncts for c in _conjuncts(d)
    )


def _compile_inner_level(ex: Exists, slots: dict[Var, int], slot: int, context: str):
    """One single-level inner ``exists`` (anti-join sub or union branch):
    its membership level plus pure predicates over the enclosing slots."""
    inner_conjuncts = _conjuncts(ex.body)
    inner_var = ex.var
    if inner_var in slots:
        raise Incompilable(f"rebinding of {inner_var.name}")
    domain = _domain_of(inner_var, inner_conjuncts)
    sub_slots = dict(slots)
    sub_slots[inner_var] = slot
    sub_preds: list = []
    for c in inner_conjuncts:
        if _is_member(c) and c.args[0] == inner_var:
            continue
        if isinstance(c, (Exists, Forall)) or isinstance(c, Not) and not isinstance(
            c.body, Eq
        ):
            raise Incompilable(f"nested quantifier inside {context}")
        sub_preds.append(_compile_pred(c, sub_slots))
    return Level(inner_var, slot, domain.name, domain.arity), tuple(sub_preds)


def _compile_alts(
    f: Or, slots: dict[Var, int], slot: int
) -> tuple[AltBranch, ...]:
    """The trailing ``or``'s disjuncts as ordered union branches.  Each
    branch: pure predicates plus at most one trailing single-level
    ``[not] exists``.  A membership conjunct inside a disjunct is refused
    (the tree walk falls back to full arity-class enumeration when the
    membership is swallowed by the ``or``)."""
    branches: list[AltBranch] = []
    for d in f.disjuncts:
        dconj = _conjuncts(d)
        pures: list = []
        inner: Optional[Formula] = None
        for pos, c in enumerate(dconj):
            if _is_quantified(c):
                if pos != len(dconj) - 1:
                    raise Incompilable("quantified conjunct is not last")
                inner = c
                continue
            pures.append(_compile_pred(c, slots))
        if inner is None:
            branches.append(AltBranch(tuple(pures), None, (), False))
            continue
        negated = isinstance(inner, Not)
        ex = inner.body if negated else inner
        level, inner_preds = _compile_inner_level(ex, slots, slot, "union branch")
        branches.append(AltBranch(tuple(pures), level, inner_preds, negated))
    return tuple(branches)


def _compile_chain(
    group_vars: tuple[Var, ...],
    cond: Formula,
    slots: dict[Var, int],
    levels: list[Level],
    preds: list,
):
    """Compile one quantifier scope: bind ``group_vars`` from ``cond``'s
    membership conjuncts, collect its value predicates, then process the
    trailing quantified conjuncts — each positive ``exists`` flattens into
    further levels, the final one may be a ``not exists`` (anti join) — or
    a final ``or`` with quantified disjuncts (union branches).  Returns
    ``(sub, alts)``; at most one is set."""
    conjuncts = _conjuncts(cond)
    for var in group_vars:
        if var in slots:
            raise Incompilable(f"rebinding of {var.name}")
    scope_start = len(levels)
    for var in group_vars:
        domain = _domain_of(var, conjuncts)
        slot = len(levels)
        slots[var] = slot
        levels.append(Level(var, slot, domain.name, domain.arity))

    trailing: list[Formula] = []
    plain: list[Formula] = []
    alt_src: Optional[Or] = None
    for pos, c in enumerate(conjuncts):
        if _is_member(c) and isinstance(c.args[0], Var) and c.args[0] in slots:
            if slots[c.args[0]] >= scope_start:
                continue  # this scope's domain conjunct
            raise Incompilable("membership over an outer variable")
        if _is_quantified(c):
            trailing.append(c)
            continue
        if isinstance(c, Or) and _or_needs_union(c):
            # A quantified disjunction only compiles as the final conjunct
            # of its scope: branches filter the rows of the whole positive
            # join, i.e. candidates that reached the ``or``.
            if trailing:
                raise Incompilable("union disjunction after a quantified conjunct")
            if pos != len(conjuncts) - 1:
                raise Incompilable("union disjunction is not the last conjunct")
            alt_src = c
            continue
        if trailing:
            raise Incompilable("quantified conjunct is not last")
        plain.append(c)
    for c in plain:
        preds.append(_compile_pred(c, slots))

    if alt_src is not None:
        return None, _compile_alts(alt_src, slots, len(levels))

    sub: Optional[SubQuery] = None
    alts: tuple[AltBranch, ...] = ()
    for pos, t in enumerate(trailing):
        last = pos == len(trailing) - 1
        if isinstance(t, Exists):
            # Positive nesting flattens: ∃x(φ ∧ ∃y ψ) ≡ ∃x∃y(φ ∧ ψ).
            sub, alts = _compile_chain((t.var,), t.body, slots, levels, preds)
            if (sub is not None or alts) and not last:
                raise Incompilable("quantified conjunct is not last")
            continue
        # Trailing not-exists: one inner level, pure predicates only.  Only
        # the final quantified conjunct may be negated — the anti filter
        # runs last, over the rows of the finished positive join.
        if not last:
            raise Incompilable("not-exists precedes another quantified conjunct")
        level, sub_preds = _compile_inner_level(
            t.body, slots, len(levels), "not-exists"
        )
        sub = SubQuery(level, sub_preds)
    return sub, alts


def _chain_query(kind, bound, cond, params, make_result) -> ChainQuery:
    slots: dict[Var, int] = {}
    levels: list[Level] = []
    preds: list = []
    sub, alts = _compile_chain(bound, cond, slots, levels, preds)
    # Each predicate group with the levels in its scope: the positive
    # join's, plus the one an anti join or a union branch adds.
    groups = [(levels, preds)]
    if sub is not None:
        groups.append(([*levels, sub.level], sub.preds))
    for branch in alts:
        inner = [] if branch.level is None else [branch.level]
        groups.append(([*levels, *inner], branch.preds + branch.inner_preds))
    result = make_result(slots)
    if result is not None and any(aggs_of(result.exprs)):
        raise Incompilable("aggregate in a projection")
    return ChainQuery(
        tuple(levels),
        tuple(preds),
        sub,
        kind,
        result,
        alts,
        params,
        _totality_checks(groups),
        tuple(dict.fromkeys(aggs_of(p for _, group in groups for p in group))),
    )


def compile_set_former(former: SetFormer, interp=None) -> ChainQuery:
    _check_symbols(former, interp)
    return _chain_query(
        "setformer",
        tuple(former.bound),
        former.cond,
        _params(former),
        lambda slots: _compile_result(former, slots),
    )


def compile_exists(formula: Exists, interp=None) -> ChainQuery:
    _check_symbols(formula, interp)
    return _chain_query(
        "exists", (formula.var,), formula.body, _params(formula), lambda slots: None
    )


def compile_foreach_domain(fluent: Foreach, interp=None) -> ChainQuery:
    """The satisfier list of a ``foreach``: the bound variable's narrowed
    domain filtered by the condition — a chain whose result is the whole
    slot-0 representative, returned as a *list* in canonical enumeration
    order (the order the tree walk folds the body in)."""
    _check_symbols(fluent.cond, interp)
    result = ResultSpec((Col(0, 0),), whole=True, element_arity=fluent.var.sort.arity)
    return _chain_query(
        "foreach",
        (fluent.var,),
        fluent.cond,
        _params(fluent.cond, fluent.var),
        lambda slots: result,
    )


def _params(node, *bound: Var) -> tuple[Var, ...]:
    """The node's free variables: every parameter the plan can mention."""
    return tuple(sorted(node.free_vars() - set(bound), key=lambda v: v.name))


def _compile_result(former: SetFormer, slots: dict[Var, int]) -> ResultSpec:
    expr = former.result
    arity = former.element_arity
    if isinstance(expr, Var) and expr in slots:
        return ResultSpec((Col(slots[expr], 0),), whole=True, element_arity=arity)
    if isinstance(expr, App) and _base_name(expr.symbol.name) == "tuple":
        parts = tuple(_compile_value(a, slots) for a in expr.args)
        return ResultSpec(parts, whole=False, element_arity=arity)
    value = _compile_value(expr, slots)
    return ResultSpec((value,), whole=False, element_arity=arity)


# ---------------------------------------------------------------------------
# forall compilation
# ---------------------------------------------------------------------------


def compile_forall(formula: Forall, interp=None) -> ForallQuery:
    _check_symbols(formula, interp)
    var = formula.var
    if not var.sort.is_tuple:
        raise Incompilable("forall over a non-tuple sort")
    body = formula.body
    if not isinstance(body, Implies):
        raise Incompilable("forall body is not guarded (no implication)")
    ante = _conjuncts(body.antecedent)
    domain = _domain_of(var, ante)
    # The membership must lead the antecedent: the tree walk short-circuits
    # the guard conjunction per candidate, so a leading value predicate
    # (and any error it raises) would run on candidates outside ``R``.
    if not (_is_member(ante[0]) and ante[0].args[0] == var):
        raise Incompilable("forall guard membership is not the first conjunct")
    slots = {var: 0}
    guard_preds: list[Cmp] = []
    for c in ante:
        if _is_member(c) and c.args[0] == var:
            continue
        guard_preds.append(_compile_pred(c, slots))

    pre_preds: list[Cmp] = []
    body_level: Optional[Level] = None
    body_preds: list[Cmp] = []
    negated = False
    consequent = _conjuncts(body.consequent)
    for pos, c in enumerate(consequent):
        if isinstance(c, Exists) or (isinstance(c, Not) and isinstance(c.body, Exists)):
            if pos != len(consequent) - 1:
                raise Incompilable("quantified consequent conjunct is not last")
            negated = isinstance(c, Not)
            inner = c.body if negated else c
            inner_conjuncts = _conjuncts(inner.body)
            inner_var = inner.var
            if inner_var == var:
                raise Incompilable(f"rebinding of {inner_var.name}")
            inner_domain = _domain_of(inner_var, inner_conjuncts)
            inner_slots = {var: 0, inner_var: 1}
            for ic in inner_conjuncts:
                if _is_member(ic) and ic.args[0] == inner_var:
                    continue
                if isinstance(ic, (Exists, Forall)):
                    raise Incompilable("forall body exists nests deeper")
                body_preds.append(_compile_pred(ic, inner_slots))
            body_level = Level(inner_var, 1, inner_domain.name, inner_domain.arity)
        else:
            pre_preds.append(_compile_pred(c, slots))
    guard = Level(var, 0, domain.name, domain.arity)
    groups = [([guard], guard_preds + pre_preds)]
    if body_level is not None:
        groups.append(([guard, body_level], body_preds))
    return ForallQuery(
        var,
        var.sort.arity,
        domain.name,
        tuple(guard_preds),
        tuple(pre_preds),
        body_level,
        tuple(body_preds),
        negated,
        _params(formula),
        _totality_checks(groups),
        tuple(dict.fromkeys(aggs_of(guard_preds + pre_preds + body_preds))),
    )


# ---------------------------------------------------------------------------
# window compilation (closed s-formulas: the paper's transaction constraints)
# ---------------------------------------------------------------------------


def compile_window(formula: Forall, interp=None) -> WindowQuery:
    """Compile a closed ``forall`` prefix over a window of states.  Every
    ``w:e`` / ``w::p`` is lowered to an f-node over *slot variables* — ``v``
    inside state term ``w`` becomes ``v@w`` — so the pure-predicate compiler
    and the totality analysis of the single-state shapes apply unchanged."""
    if formula.free_vars():
        raise Incompilable("s-formula is not closed")
    prefix: list[Var] = []
    body: Formula = formula
    while isinstance(body, Forall):
        prefix.append(body.var)
        body = body.body
    if len(set(prefix)) != len(prefix):
        raise Incompilable("rebinding in the quantifier prefix")
    for var in prefix:
        if not (var.sort.is_state or var.sort.is_tuple and var.layer is Layer.FLUENT):
            raise Incompilable(f"prefix variable {var.name} of sort {var.sort}")
    tuple_vars = [v for v in prefix if v.sort.is_tuple]
    terms: list[tuple[Optional[int], str]] = []
    term_of: dict[Expr, int] = {}
    slot_vars: dict[tuple[Var, int], Var] = {}
    slots: dict[Var, int] = {}

    def term(expr: Expr) -> int:
        """The index of state term ``expr``: a state variable, or a term
        extended by a transition variable ``t`` used nowhere else and
        quantified inside that term's variables — the walk drops a whole
        binding of ``t`` at the first state it does not apply at."""
        if expr not in term_of:
            if isinstance(expr, Var) and expr.is_state_var:
                entry = (None, expr.name)
            elif not isinstance(expr, EvalState):
                raise Incompilable(f"state term {expr}")
            elif not isinstance(expr.trans, Var):
                raise Incompilable(f"concrete transaction in state term {expr}")
            else:
                base, t = term(expr.state), expr.trans
                if any(isinstance(e, EvalState) and e.trans == t for e in term_of):
                    raise Incompilable(f"transition variable {t.name} applied twice")
                if any(prefix.index(v) > prefix.index(t) for v in expr.state.free_vars()):
                    raise Incompilable(f"{t.name} is quantified outside its state term")
                entry = (base, f"{terms[base][1]};{t.name}")
            term_of[expr] = len(terms)
            terms.append(entry)
        return term_of[expr]

    def at(t: int, node):
        """``node`` with each free tuple variable renamed to its slot at
        term ``t`` (allocated on first use), and the renaming."""
        renaming: dict[Var, Var] = {}
        for var in sorted(node.free_vars(), key=lambda v: v.name):
            if var not in tuple_vars:
                raise Incompilable(f"variable {var.name} inside a state term")
            if (var, t) not in slot_vars:
                slot_var = Var(f"{var.name}@{terms[t][1]}", var.var_sort, Layer.FLUENT)
                slot_vars[var, t] = slot_var
                slots[slot_var] = len(slots)
            renaming[var] = slot_vars[var, t]
        return Substitution(renaming).apply(node), renaming

    regressed: list = []

    def regress(node):
        """``(w;a)::φ`` / ``(w;a):e`` with ``a`` the concrete ``delete(v, R)``:
        the same node at ``w``, pushed back through the delete action and
        frame axioms.  They describe the interpreter where ``R`` holds no
        two rows of one value and no candidate is a stale copy of a row of
        ``R`` — ``run_window`` checks both at every state of the window."""
        state = node.state
        if not isinstance(state, EvalState) or isinstance(state.trans, Var):
            return node
        w, a = state.state, state.trans
        if not (
            isinstance(a, App)
            and _base_name(a.symbol.name) == "delete"
            and a.args[0] in tuple_vars
            and isinstance(a.args[1], RelIdConst)
        ):
            raise Incompilable(f"concrete transaction in state term {state}")
        # Imported where a formula first needs it: ``import repro`` (every
        # server start) does not otherwise load the theory package.
        from repro.theory.regression import NotRegressable, regress_expr, regress_formula

        regressed.append((a.args[1].name, a.args[1].arity, str(state)))
        try:
            if isinstance(node, EvalBool):
                return EvalBool(w, regress_formula(node.formula, a))
            return EvalObj(w, regress_expr(node.expr, a))
        except NotRegressable as exc:
            raise Incompilable(str(exc)) from None

    def lower(node):
        """The f-node an s-node denotes once each ``w:e`` reads its slots."""
        if isinstance(node, EvalObj):
            node = regress(node)
            return at(term(node.state), node.expr)[0]
        if isinstance(node, Var):
            raise Incompilable(f"variable {node.name} outside a state term")
        if isinstance(node, (EvalBool, EvalState, SApp, SPred, Quant)):
            raise Incompilable(f"{type(node).__name__} inside a predicate")
        kids = node.children()
        return node.with_children(tuple(lower(k) for k in kids)) if kids else node

    def pure(f: Formula):
        _check_symbols(f, interp)
        p = _compile_pred(f, slots)
        if any(aggs_of([p])):
            # Its relation would be read at one term's state: a residual.
            raise Incompilable("aggregate in a window predicate")
        return p

    def atoms(f: Formula):
        """The conjuncts of ``f``, with ``w::(p ∧ q)`` read as ``w::p ∧ w::q``."""
        for c in _conjuncts(f):
            if isinstance(c, EvalBool):
                c = regress(c)
            if isinstance(c, EvalBool) and isinstance(c.formula, And):
                for inner in _conjuncts(c.formula):
                    yield atom(EvalBool(c.state, inner))
            else:
                yield atom(c)

    def atom(f: Formula):
        negated = isinstance(f, Not) and isinstance(f.body, EvalBool)
        if negated:
            f = f.body
        if not isinstance(f, EvalBool):
            return pure(lower(f))
        f = regress(f)
        t, inner = term(f.state), f.formula
        if isinstance(inner, Not) and _is_member(inner.body):
            negated, inner = not negated, inner.body
        renamed, renaming = at(t, inner)
        tup, rel = inner.args if _is_member(inner) else (None, None)
        if isinstance(tup, Var) and isinstance(rel, RelConst):
            return Member(slots[renaming[tup]], t, rel.name, rel.arity, negated)
        if not negated:
            try:
                return pure(renamed)
            except Incompilable:
                pass
        binds = tuple((var, slots[slot_var]) for var, slot_var in renaming.items())
        return Residual(t, inner, binds, negated)

    checks: list = []
    guards: dict[int, str] = {}

    def total(p) -> None:
        """An ordered comparison needs integer operands: its columns must
        sit behind an earlier positive membership, whose relation types them."""
        if isinstance(p, (Member, Residual)):
            return
        levels = [Level(v, i, guards.get(i), v.sort.arity) for v, i in slots.items()]
        for check in _totality_checks([(levels, [p])]):
            if check[1][0] is None:
                raise Incompilable("comparison over a column no earlier membership types")
            checks.append(check)

    preds: list = []
    residuals: list[Residual] = []
    if isinstance(body, Implies):
        for p in atoms(body.antecedent):
            if isinstance(p, Residual):
                residuals.append(p)
                continue
            if residuals:
                raise Incompilable("a residual w::p precedes a join predicate")
            if isinstance(p, Member) and not p.negated:
                guards.setdefault(p.slot, p.rel)
            total(p)
            preds.append(p)
        body = body.consequent
    conclusion = list(atoms(body))
    for p in conclusion:
        total(p)
    groups = tuple(
        tuple(Slot(sv, slots[sv], t) for (var, t), sv in slot_vars.items() if var == v)
        for v in tuple_vars
    )
    if not all(groups):
        raise Incompilable("a tuple variable of the prefix is unused")
    shape = (preds, residuals, conclusion, dict.fromkeys(checks), dict.fromkeys(regressed))
    every = [*residuals, *(p for p in conclusion if isinstance(p, Residual))]
    return WindowQuery(tuple(terms), groups, *map(tuple, shape), _reads(every))


def _reads(residuals) -> Optional[tuple[frozenset, frozenset]]:
    """The relations and the arity classes the ``residuals`` can read at
    their state: the union of their footprints (:mod:`repro.eval.footprint`),
    or ``None`` when one of them is not bounded by any."""
    from repro.eval.footprint import fluent_footprint

    names: set = set()
    arities: set = set()
    for r in residuals:
        footprint = fluent_footprint(r.formula)
        if not footprint.bounded:
            return None
        names |= footprint.relations
        arities |= footprint.arities
    return frozenset(names), frozenset(arities)


# ---------------------------------------------------------------------------
# set expressions (aggregate / set-op children)
# ---------------------------------------------------------------------------


def compile_set_expr(expr: Expr, interp=None):
    if isinstance(expr, RelConst):
        return RelQuery(expr.name, expr.arity)
    if isinstance(expr, SetFormer):
        return compile_set_former(expr, interp)
    if isinstance(expr, App) and expr.symbol.kind is SymbolKind.SET:
        base = _base_name(expr.symbol.name)
        if base in ("union", "intersect", "diff"):
            left = compile_set_expr(expr.args[0], interp)
            right = compile_set_expr(expr.args[1], interp)
            return SetOpQuery(base, left, right)
    raise Incompilable(f"{type(expr).__name__} is not a compilable set expression")
