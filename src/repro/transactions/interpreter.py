"""Operational semantics of fluent expressions — the transaction executor.

Evaluating an f-expression at a state implements the situational functions of
the paper:

* ``w:e``  — :meth:`Interpreter.eval_object`
* ``w::p`` — :meth:`Interpreter.eval_formula`
* ``w;e``  — :meth:`Interpreter.run` (state-sorted f-terms: transactions)

The interpreter realizes the action axioms (what ``insert``/``delete``/
``modify``/``assign`` change) and the frame axioms (everything else is
shared, untouched); property tests in ``tests/test_theory_axioms.py`` verify
this correspondence directly.

The iteration fluent follows the paper exactly: ``foreach x|p do s`` is the
composition ``s[x1/x] ;; ... ;; s[xn/x]`` over an enumeration of the ``x``
satisfying ``p`` *at the evaluation state*; it is undefined — evaluation
raises — when the enumeration is infinite (guarded by ``max_enumeration``) or
the result depends on the enumeration order (checked per ``order_check``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import Tracer

from repro.errors import (
    EvaluationError,
    OrderDependenceError,
    UnboundVariableError,
)
from repro.transactions.budget import Budget
from repro.db.relation import Relation
from repro.db.state import State
from repro.db.values import Atom, DBTuple, RelationId, TupleSet, Value
from repro.logic.fluents import (
    CondExpr,
    CondFluent,
    Foreach,
    Identity,
    Seq,
    SetFormer,
)
from repro.logic.formulas import (
    And,
    Eq,
    FalseF,
    Forall,
    Exists,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    TrueF,
)
from repro.logic.symbols import SymbolKind, SymbolTable
from repro.logic.terms import (
    App,
    AtomConst,
    ConstExpr,
    Expr,
    Layer,
    Node,
    RelConst,
    RelIdConst,
    Var,
)


@dataclass(frozen=True)
class Env:
    """An immutable variable environment.

    Bindings hold runtime values: atoms, :class:`DBTuple` (fluent tuple
    variables — dereferenced by identifier at each evaluation state),
    :class:`TupleSet`, :class:`RelationId`, states, and transition values.
    """

    bindings: Mapping[Var, object] = field(default_factory=dict)

    @staticmethod
    def empty() -> "Env":
        return Env({})

    def bind(self, var: Var, value: object) -> "Env":
        new = dict(self.bindings)
        new[var] = value
        return Env(new)

    def bind_all(self, pairs: Mapping[Var, object]) -> "Env":
        new = dict(self.bindings)
        new.update(pairs)
        return Env(new)

    def lookup(self, var: Var) -> object:
        try:
            return self.bindings[var]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {var.name}") from None


def _base_name(name: str) -> str:
    return name.rstrip("0123456789")


def value_eq(a: object, b: object) -> bool:
    """Value equality: tuples compare by attribute values (sets of n-ary
    tuples are value sets); everything else by ordinary equality."""
    if isinstance(a, DBTuple) and isinstance(b, DBTuple):
        return a.values == b.values
    if isinstance(a, TupleSet) and isinstance(b, TupleSet):
        return a.arity == b.arity and a.elements == b.elements
    return a == b


@dataclass
class Interpreter:
    """Evaluator for the fluent layer.

    ``definitions`` resolves user-defined function symbols; ``order_check``
    controls how ``foreach`` order-independence is verified:

    * ``"none"``     — trust the program (fastest);
    * ``"reversed"`` — also run the reversed enumeration and compare (default;
      catches the common order dependences at 2x cost);
    * ``"full"``     — try every permutation (exponential; for tests).
    """

    definitions: Optional[SymbolTable] = None
    order_check: str = "reversed"
    max_enumeration: int = 1_000_000
    tracer: "Optional[Tracer]" = None
    """Attach a :class:`repro.obs.trace.Tracer` to emit one span per
    execution step (composition segment, condition branch, ``foreach``
    iteration, atomic action).  ``None`` (the default) is the no-op fast
    path: the only cost is an attribute check per step."""
    budget: Optional[Budget] = None
    """Attach a :class:`repro.transactions.budget.Budget` to meter this
    evaluation: each execution step, relation touch, enumeration candidate,
    ``foreach`` fold, and derived-set element charges it, so a runaway
    program raises :class:`~repro.errors.BudgetExceeded` (or
    :class:`~repro.errors.Cancelled` if its token fired) between steps.
    ``None`` (the default) costs one attribute check per seam — the same
    contract as :attr:`tracer`."""
    planner: Optional[object] = None
    """Attach a :class:`repro.algebra.planner.QueryPlanner` (every
    :class:`repro.engine.Database` built without an interpreter does) to
    answer set formers, quantifiers, and aggregates from relational-algebra
    plans.  Each hook
    returns ``(handled, value)``; ``(False, None)`` falls back to the tree
    walk here, so the planner is a pure accelerator — values, budget
    enforcement, and error classes are replicated, and the read set it
    reports through ``_touch`` is a superset of the tree walk's, bounded by
    the relations the plan names (DESIGN.md §7.6).  ``None`` (the default)
    costs one attribute check per hook site."""

    def metered(self, budget: Optional[Budget]) -> "Interpreter":
        """This interpreter, or a copy metering one evaluation against a
        fresh start of ``budget`` (``None``: this interpreter itself)."""
        if budget is None:
            return self
        return replace(self, budget=budget.fresh())

    # ======================================================================
    # w:e — object evaluation
    # ======================================================================

    def eval_object(self, state: State, expr: Expr, env: Env | None = None) -> Value:
        env = env or Env.empty()
        return self._obj(state, expr, env)

    def _obj(self, state: State, expr: Expr, env: Env) -> Value:
        if isinstance(expr, Var):
            return self._deref(state, env.lookup(expr))
        if isinstance(expr, AtomConst):
            return expr.value
        if isinstance(expr, ConstExpr):
            raise EvaluationError(
                f"uninterpreted constant {expr.name} has no fluent value"
            )
        if isinstance(expr, RelConst):
            return self._relation(state, expr.name, expr.arity).to_tuple_set()
        if isinstance(expr, RelIdConst):
            return RelationId(expr.name, expr.arity)
        if isinstance(expr, SetFormer):
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                span = tracer.start(
                    "setformer",
                    ",".join(v.name for v in expr.bound),
                    state.next_tid,
                )
                try:
                    return self._set_former(state, expr, env)
                finally:
                    tracer.finish(span)
            return self._set_former(state, expr, env)
        if isinstance(expr, CondExpr):
            taken = self._bool(state, expr.cond, env)
            branch = expr.then_branch if taken else expr.else_branch
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                span = tracer.start(
                    "cond-expr", "then" if taken else "else", state.next_tid
                )
                try:
                    return self._obj(state, branch, env)
                finally:
                    tracer.finish(span)
            return self._obj(state, branch, env)
        if isinstance(expr, App):
            return self._app(state, expr, env)
        if expr.layer is Layer.SITUATIONAL:
            raise EvaluationError(
                f"situational expression {expr} cannot be evaluated as a "
                f"fluent; use the situational evaluator"
            )
        raise EvaluationError(f"cannot evaluate {type(expr).__name__} as an object")

    def _touch(self, state: State, *names: str) -> None:
        """Read-set seam: called with every relation name an evaluation step
        depends on (including relations found missing — their appearance
        would change the result).  :class:`repro.concurrent.tracking.
        TrackingInterpreter` accumulates the reports into a read set; an
        attached tracer attributes them to the innermost open span.  The
        same seam meters fuel: an attached budget is charged one step per
        touch, so read-heavy evaluations (queries, constraint checks) hit
        their limits even when no execution step runs."""
        budget = self.budget
        if budget is not None:
            budget.tick()
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.touch(names)

    def _deref(self, state: State, value: object) -> Value:
        """Fluent tuple variables denote *the tuple with that identifier* at
        the evaluation state; fall back to the bound snapshot when the tuple
        no longer exists there."""
        if isinstance(value, DBTuple) and value.tid is not None:
            owner = state.owner_of(value.tid)
            if owner is not None:
                self._touch(state, owner)
            else:
                # The identifier is dead here; any relation gaining it back
                # would change the dereference.
                self._touch(state, *state.relation_names())
            current = state.lookup_tuple(value.tid)
            if current is not None:
                return current
        return value  # type: ignore[return-value]

    def _relation(self, state: State, name: str, arity: int) -> Relation:
        self._touch(state, name)
        if not state.has_relation(name):
            raise EvaluationError(f"state has no relation {name!r}")
        rel = state.relation(name)
        if rel.arity != arity:
            raise EvaluationError(
                f"relation {name} has arity {rel.arity}, expression expects {arity}"
            )
        return rel

    def _app(self, state: State, expr: App, env: Env) -> Value:
        sym = expr.symbol
        base = _base_name(sym.name)
        if self.definitions is not None:
            definition = self.definitions.lookup_definition(sym.name)
            if definition is not None:
                values = [self._obj(state, a, env) for a in expr.args]
                inner = env.bind_all(dict(zip(definition.params, values)))
                return self._obj(state, definition.body, inner)  # type: ignore[arg-type]

        if sym.kind is SymbolKind.ARITHMETIC:
            return self._arithmetic(state, base, expr, env)
        if sym.kind is SymbolKind.ATTRIBUTE:
            t = self._tuple_arg(state, expr.args[0], env)
            return t.select(sym.index)
        if sym.kind is SymbolKind.TUPLE:
            if base == "select":
                t = self._tuple_arg(state, expr.args[0], env)
                index = self._atom_int(state, expr.args[1], env)
                return t.select(index)
            if base == "tuple":
                values = tuple(
                    self._atom_value(state, a, env) for a in expr.args
                )
                return DBTuple(None, values)
        if sym.kind is SymbolKind.SET:
            return self._set_op(state, base, expr, env)
        if sym.kind is SymbolKind.IDENTIFIER:
            if base == "id":
                t = self._tuple_arg(state, expr.args[0], env)
                return t.identifier()
            if base == "relid":
                raise EvaluationError(
                    "relation identifiers are taken from RelIdConst directly"
                )
        if sym.kind is SymbolKind.STATE_CHANGING:
            raise EvaluationError(
                f"{sym.name} is a transaction (state sort); use Interpreter.run"
            )
        raise EvaluationError(f"no interpretation for function {sym.name}")

    def _arithmetic(self, state: State, base: str, expr: App, env: Env) -> Value:
        if base in ("sum", "max", "min", "size"):
            planner = self.planner
            if planner is not None:
                handled, value = planner.eval_aggregate(self, state, base, expr, env)
                if handled:
                    return value
            value = self._obj(state, expr.args[0], env)
            if not isinstance(value, TupleSet):
                raise EvaluationError(f"{base}: expected a set, got {value!r}")
            if base == "size":
                return len(value)
            column = value.first_column()
            numbers = [v for v in column if isinstance(v, int)]
            if len(numbers) != len(column):
                raise EvaluationError(f"{base}: non-numeric attribute values")
            if base == "sum":
                return sum(numbers)
            if not numbers:
                raise EvaluationError(f"{base} of an empty set is undefined")
            return max(numbers) if base == "max" else min(numbers)
        a = self._atom_int(state, expr.args[0], env)
        c = self._atom_int(state, expr.args[1], env)
        if base == "+":
            return a + c
        if base == "-":
            return max(0, a - c)  # truncated subtraction on naturals
        if base == "*":
            return a * c
        if base == "div":
            if c == 0:
                raise EvaluationError("division by zero")
            return a // c
        if base == "mod":
            if c == 0:
                raise EvaluationError("modulo by zero")
            return a % c
        if base == "max":
            return max(a, c)
        if base == "min":
            return min(a, c)
        raise EvaluationError(f"unknown arithmetic function {base}")

    def _set_op(self, state: State, base: str, expr: App, env: Env) -> Value:
        if base == "empty":
            return TupleSet.empty(expr.symbol.result_sort.arity)
        if base in ("with", "without"):
            target = self._obj(state, expr.args[0], env)
            element = self._tuple_arg(state, expr.args[1], env)
            if not isinstance(target, TupleSet):
                raise EvaluationError(f"{base}: first argument is not a set")
            singleton = TupleSet.of(target.arity, [element])
            if base == "with":
                return target.union(singleton)
            return target.difference(singleton)
        left = self._obj(state, expr.args[0], env)
        right = self._obj(state, expr.args[1], env)
        if not isinstance(left, TupleSet) or not isinstance(right, TupleSet):
            raise EvaluationError(f"{base}: expected sets")
        if base == "union":
            return left.union(right)
        if base == "intersect":
            return left.intersect(right)
        if base == "diff":
            return left.difference(right)
        if base == "product":
            return left.product(right)
        raise EvaluationError(f"unknown set function {base}")

    def _tuple_arg(self, state: State, expr: Expr, env: Env) -> DBTuple:
        value = self._obj(state, expr, env)
        if isinstance(value, DBTuple):
            return value
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            # Atoms coerce to 1-tuples where a 1-tuple is expected.
            return DBTuple(None, (value,))
        raise EvaluationError(f"expected a tuple, got {value!r}")

    def _atom_value(self, state: State, expr: Expr, env: Env) -> Atom:
        value = self._obj(state, expr, env)
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            if isinstance(value, DBTuple) and value.arity == 1:
                return value.values[0]
            raise EvaluationError(f"expected an atom, got {value!r}")
        return value

    def _atom_int(self, state: State, expr: Expr, env: Env) -> int:
        value = self._atom_value(state, expr, env)
        if not isinstance(value, int):
            raise EvaluationError(f"expected a number, got {value!r}")
        return value

    def _set_former(self, state: State, former: SetFormer, env: Env) -> TupleSet:
        planner = self.planner
        if planner is not None:
            handled, value = planner.eval_set_former(self, state, former, env)
            if handled:
                return value
        collected: list[DBTuple] = []
        budget = self.budget
        for inner in self._enumerate(state, former.bound, former.cond, env):
            value = self._obj(state, former.result, inner)
            if isinstance(value, DBTuple):
                collected.append(value)
            elif isinstance(value, (int, str)) and not isinstance(value, bool):
                collected.append(DBTuple(None, (value,)))
            else:
                raise EvaluationError(
                    f"set former result must be a tuple or atom, got {value!r}"
                )
            if budget is not None:
                # Charged per element so a combinatorial set former aborts
                # while collecting, not after materializing the blow-up.
                budget.count_derived(1)
        return TupleSet.of(former.element_arity, collected)

    # ======================================================================
    # w::p — truth evaluation
    # ======================================================================

    def eval_formula(self, state: State, formula: Formula, env: Env | None = None) -> bool:
        env = env or Env.empty()
        return self._bool(state, formula, env)

    def _bool(self, state: State, formula: Formula, env: Env) -> bool:
        if isinstance(formula, TrueF):
            return True
        if isinstance(formula, FalseF):
            return False
        if isinstance(formula, Not):
            return not self._bool(state, formula.body, env)
        if isinstance(formula, And):
            return all(self._bool(state, c, env) for c in formula.conjuncts)
        if isinstance(formula, Or):
            return any(self._bool(state, d, env) for d in formula.disjuncts)
        if isinstance(formula, Implies):
            return (not self._bool(state, formula.antecedent, env)) or self._bool(
                state, formula.consequent, env
            )
        if isinstance(formula, Iff):
            return self._bool(state, formula.lhs, env) == self._bool(
                state, formula.rhs, env
            )
        if isinstance(formula, Eq):
            return value_eq(
                self._obj(state, formula.lhs, env), self._obj(state, formula.rhs, env)
            )
        if isinstance(formula, Pred):
            return self._pred(state, formula, env)
        if isinstance(formula, Forall):
            planner = self.planner
            if planner is not None:
                handled, value = planner.eval_quantifier(self, state, formula, env)
                if handled:
                    return value
            return all(
                self._bool(state, formula.body, inner)
                for inner in self._enumerate(state, (formula.var,), TrueF(), env)
            )
        if isinstance(formula, Exists):
            planner = self.planner
            if planner is not None:
                handled, value = planner.eval_quantifier(self, state, formula, env)
                if handled:
                    return value
            return any(
                self._bool(state, formula.body, inner)
                for inner in self._enumerate(state, (formula.var,), formula.body, env, filtered=False)
            )
        if formula.layer is Layer.SITUATIONAL:
            raise EvaluationError(
                "situational formula cannot be evaluated as a fluent; use the "
                "situational evaluator"
            )
        raise EvaluationError(f"cannot evaluate formula {type(formula).__name__}")

    def _pred(self, state: State, formula: Pred, env: Env) -> bool:
        base = _base_name(formula.symbol.name)
        if base == "member":
            t = self._tuple_arg(state, formula.args[0], env)
            s = self._obj(state, formula.args[1], env)
            if not isinstance(s, TupleSet):
                raise EvaluationError("member: second argument is not a set")
            return s.contains(t)
        if base == "subset":
            left = self._obj(state, formula.args[0], env)
            right = self._obj(state, formula.args[1], env)
            if not isinstance(left, TupleSet) or not isinstance(right, TupleSet):
                raise EvaluationError("subset: arguments are not sets")
            return left.is_subset(right)
        if base in ("<", "<=", ">", ">="):
            a = self._atom_int(state, formula.args[0], env)
            c = self._atom_int(state, formula.args[1], env)
            return {"<": a < c, "<=": a <= c, ">": a > c, ">=": a >= c}[base]
        raise EvaluationError(f"no interpretation for predicate {formula.symbol.name}")

    # ======================================================================
    # w;e — transaction execution
    # ======================================================================

    def run(self, state: State, fluent: Expr, env: Env | None = None) -> State:
        env = env or Env.empty()
        if not fluent.sort.is_state:
            raise EvaluationError(f"not a transaction (sort {fluent.sort})")
        return self._run(state, fluent, env)

    def _run(self, state: State, fluent: Expr, env: Env) -> State:
        """Execute one fluent node, tracing it when a tracer is attached.

        Each recursive call is one span: a ``Seq``'s children are its
        composition segments, a ``CondFluent``'s child is the branch taken,
        a ``Foreach``'s children are its iterations (emitted in
        :meth:`_fold_foreach`).  An attached budget is charged one step
        here — the span seam is the fuel seam."""
        budget = self.budget
        if budget is not None:
            budget.tick()
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._run_node(state, fluent, env)
        span = tracer.start(
            _span_kind(fluent), _span_label(fluent), state.next_tid
        )
        try:
            return self._run_node(state, fluent, env)
        finally:
            tracer.finish(span)

    def _run_node(self, state: State, fluent: Expr, env: Env) -> State:
        if isinstance(fluent, Identity):
            return state
        if isinstance(fluent, Seq):
            mid = self._run(state, fluent.first, env)
            return self._run(mid, fluent.second, env)
        if isinstance(fluent, CondFluent):
            taken = self._bool(state, fluent.cond, env)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                # The open span is this CondFluent's: record the decision.
                tracer.relabel(f"cond[{'then' if taken else 'else'}]")
            branch = fluent.then_branch if taken else fluent.else_branch
            return self._run(state, branch, env)
        if isinstance(fluent, Foreach):
            return self._run_foreach(state, fluent, env)
        if isinstance(fluent, Var):
            value = env.lookup(fluent)
            from repro.db.evolution import Transition

            if isinstance(value, Transition):
                result = value.apply(state)
                if result is None:
                    raise EvaluationError(
                        f"transition {value.label} is not applicable here"
                    )
                return result
            if isinstance(value, State):
                return value
            if isinstance(value, Expr):
                return self._run(state, value, env)
            raise EvaluationError(
                f"transition variable {fluent.name} bound to {value!r}"
            )
        if isinstance(fluent, App):
            return self._run_atomic(state, fluent, env)
        raise EvaluationError(f"cannot execute {type(fluent).__name__}")

    def _run_atomic(self, state: State, fluent: App, env: Env) -> State:
        sym = fluent.symbol
        if self.definitions is not None:
            definition = self.definitions.lookup_definition(sym.name)
            if definition is not None:
                values = [self._obj(state, a, env) for a in fluent.args]
                inner = env.bind_all(dict(zip(definition.params, values)))
                return self._run(state, definition.body, inner)  # type: ignore[arg-type]
        base = _base_name(sym.name)
        # Contract: every mutating action reports the relations whose
        # *current content* its result depends on through the _touch seam
        # (the target relation is also in the write set, but a value-level
        # no-op — inserting a present tuple, deleting an absent one — leaves
        # the write set empty while the outcome still read the relation).
        if base == "insert":
            t = self._tuple_arg(state, fluent.args[0], env)
            rid = self._rel_id(state, fluent.args[1], env)
            # Set semantics dedupe by value: the result reads the target.
            self._touch(state, rid.name)
            new_state, _ = state.insert_tuple(rid.name, t)
            return new_state
        if base == "delete":
            t = self._tuple_arg(state, fluent.args[0], env)
            rid = self._rel_id(state, fluent.args[1], env)
            # Deletion locates the victim by identifier or value: a read.
            self._touch(state, rid.name)
            return state.delete_tuple(rid.name, t)
        if base == "modify":
            t = self._tuple_arg(state, fluent.args[0], env)
            index = self._atom_int(state, fluent.args[1], env)
            value = self._atom_value(state, fluent.args[2], env)
            owner = state.owner_of(t.tid) if t.tid is not None else None
            if owner is not None:
                self._touch(state, owner)
            else:
                # The identifier is dead (or fresh) here; the action's
                # failure depends on every relation's content.
                self._touch(state, *state.relation_names())
            return state.modify_tuple(t, index, value)
        if base == "assign":
            rid = self._rel_id(state, fluent.args[0], env)
            value = self._obj(state, fluent.args[1], env)
            if not isinstance(value, TupleSet):
                raise EvaluationError("assign: value is not a set")
            # Assign overwrites, but arity validation against an existing
            # relation still reads its shape.
            self._touch(state, rid.name)
            target = state
            if not target.has_relation(rid.name):
                target = target.create_relation(rid.name, rid.arity)
            return target.assign_relation(rid.name, rid.arity, value)
        raise EvaluationError(f"unknown state-changing function {sym.name}")

    def _rel_id(self, state: State, expr: Expr, env: Env) -> RelationId:
        if isinstance(expr, RelIdConst):
            return RelationId(expr.name, expr.arity)
        value = self._obj(state, expr, env)
        if isinstance(value, RelationId):
            return value
        raise EvaluationError(f"expected a relation identifier, got {value!r}")

    def _run_foreach(self, state: State, fluent: Foreach, env: Env) -> State:
        satisfiers = None
        planner = self.planner
        if planner is not None:
            handled, value = planner.eval_foreach_domain(
                self, state, fluent, env
            )
            if handled:
                satisfiers = value
        if satisfiers is None:
            satisfiers = [
                inner.lookup(fluent.var)
                for inner in self._enumerate(
                    state, (fluent.var,), fluent.cond, env
                )
            ]
        budget = self.budget
        if budget is not None:
            # Charged before folding: the iteration count is known here, so
            # an over-budget loop aborts before its first side-effect-free
            # step rather than part-way through the order check.
            budget.count_foreach(len(satisfiers))
        result = self._fold_foreach(state, fluent, env, satisfiers)
        if self.order_check != "none" and len(satisfiers) > 1:
            orders: list[list[object]]
            if self.order_check == "full":
                if len(satisfiers) > 7:
                    raise EvaluationError(
                        "full order check is exponential; foreach has "
                        f"{len(satisfiers)} satisfiers"
                    )
                orders = [list(p) for p in itertools.permutations(satisfiers)][1:]
            else:
                orders = [list(reversed(satisfiers))]
            # The re-folds below are a semantic check, not real work: they
            # must not emit duplicate spans or inflate step durations.
            tracer, self.tracer = self.tracer, None
            try:
                for order in orders:
                    alternative = self._fold_foreach(state, fluent, env, order)
                    if not _order_equivalent(state, result, alternative):
                        raise OrderDependenceError(
                            f"foreach {fluent.var.name}: result depends on "
                            f"the enumeration order; the iteration fluent is "
                            f"undefined"
                        )
            finally:
                self.tracer = tracer
        return result

    def _fold_foreach(
        self, state: State, fluent: Foreach, env: Env, satisfiers: list[object]
    ) -> State:
        current = state
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            for value in satisfiers:
                current = self._run(
                    current, fluent.body, env.bind(fluent.var, value)
                )
            return current
        for index, value in enumerate(satisfiers):
            span = tracer.start(
                "foreach-iter",
                f"{fluent.var.name}[{index}]={_value_label(value)}",
                current.next_tid,
            )
            try:
                current = self._run(
                    current, fluent.body, env.bind(fluent.var, value)
                )
            finally:
                tracer.finish(span)
        return current

    # ======================================================================
    # domain enumeration for bound variables
    # ======================================================================

    def _enumerate(
        self,
        state: State,
        variables: tuple[Var, ...],
        cond: Formula,
        env: Env,
        filtered: bool = True,
    ):
        """Yield environments binding ``variables`` to active-domain values
        satisfying ``cond`` (when ``filtered``).

        The domain of each variable is narrowed by membership conjuncts of
        ``cond`` (``x in R`` limits ``x`` to relation ``R``'s tuples).
        """

        def recurse(index: int, current: Env):
            if index == len(variables):
                if not filtered or self._bool(state, cond, current):
                    yield current
                return
            var = variables[index]
            domain = self._domain_of(state, var, cond, current)
            if len(domain) > self.max_enumeration:
                raise EvaluationError(
                    f"enumeration of {var.name} exceeds max_enumeration"
                )
            budget = self.budget
            for value in domain:
                if budget is not None:
                    budget.tick()
                yield from recurse(index + 1, current.bind(var, value))

        yield from recurse(0, env)

    def _domain_of(
        self, state: State, var: Var, cond: Formula, env: Env | None = None
    ) -> list[object]:
        env = env or Env.empty()
        if var.sort.is_tuple:
            narrowed = self._membership_domain(state, var, cond, env)
            if narrowed is not None:
                return narrowed
            self._touch(
                state,
                *(
                    n
                    for n in state.relation_names()
                    if state.relation(n).arity == var.sort.arity
                ),
            )
            domain = list(state.tuples_of_arity(var.sort.arity))
            domain.extend(self._constructed_candidates(state, var, cond, env))
            # Canonical order: enumeration (and therefore foreach folding,
            # trace output, and commit-log replay of order-sensitive
            # programs) must not depend on relation-map insertion history
            # or the process hash seed.
            return sorted(_dedupe_tuples(domain), key=_tuple_order_key)
        if var.sort.is_atom:
            self._touch(state, *state.relation_names())
            atoms: set[Atom] = set(state.atoms())
            for node in cond.iter_subnodes():
                if isinstance(node, AtomConst):
                    atoms.add(node.value)
            return sorted(atoms, key=lambda a: (isinstance(a, str), a))
        if var.sort.is_set:
            self._touch(state, *state.relation_names())
            return [
                rel.to_tuple_set()
                for rel in (state.relation(n) for n in state.relation_names())
                if rel.arity == var.sort.arity
            ]
        raise EvaluationError(f"cannot enumerate domain of sort {var.sort}")

    def _membership_domain(
        self, state: State, var: Var, cond: Formula, env: Env
    ) -> Optional[list[DBTuple]]:
        """If ``cond`` has a top-level conjunct ``var in X`` whose collection
        ``X`` does not depend on ``var`` and is evaluable here, enumerate only
        ``X``'s tuples.  Regressed formulas produce ``with(R, t)``-shaped
        collections; evaluating them keeps newly inserted tuples in range."""
        for conjunct in _conjuncts(cond):
            if (
                isinstance(conjunct, Pred)
                and _base_name(conjunct.symbol.name) == "member"
                and conjunct.args[0] == var
                and var not in conjunct.args[1].free_vars()
            ):
                try:
                    value = self._obj(state, conjunct.args[1], env)
                except EvaluationError:
                    continue
                if isinstance(value, TupleSet):
                    # Same canonical order as the full-domain path: the set's
                    # representative order reflects construction history,
                    # not a semantic order.
                    return sorted(value, key=_tuple_order_key)
        return None

    def _constructed_candidates(
        self, state: State, var: Var, cond: Formula, env: Env
    ) -> list[DBTuple]:
        """Tuple values constructed inside ``cond`` (``tuple_n(...)`` terms
        and bound tuple variables) — regressed formulas mention tuples that
        are not yet in any relation of the pre-state."""
        found: list[DBTuple] = []
        arity = var.sort.arity
        for sub in cond.iter_subnodes():
            candidate: Optional[DBTuple] = None
            if (
                isinstance(sub, App)
                and _base_name(sub.symbol.name) == "tuple"
                and sub.symbol.result_sort.arity == arity
                and not (sub.free_vars() - set(env.bindings))
            ):
                try:
                    value = self._obj(state, sub, env)
                except EvaluationError:
                    continue
                if isinstance(value, DBTuple):
                    candidate = value
            elif (
                isinstance(sub, Var)
                and sub != var
                and sub.sort.is_tuple
                and sub.sort.arity == arity
                and sub in env.bindings
            ):
                bound = self._deref(state, env.bindings[sub])
                if isinstance(bound, DBTuple):
                    candidate = bound
            if candidate is not None:
                found.append(candidate)
        return found


def _atom_order_key(value: Atom) -> tuple:
    """Total order over the mixed atom sort: numbers before strings."""
    return (isinstance(value, str), value)


def _tuple_order_key(t: DBTuple) -> tuple:
    """Canonical enumeration order for tuples: identified before fresh,
    then by identifier, then by attribute values."""
    return (
        t.tid is None,
        t.tid or 0,
        tuple(_atom_order_key(v) for v in t.values),
    )


def _span_kind(fluent: Expr) -> str:
    if isinstance(fluent, Identity):
        return "identity"
    if isinstance(fluent, Seq):
        return "seq"
    if isinstance(fluent, CondFluent):
        return "cond"
    if isinstance(fluent, Foreach):
        return "foreach"
    if isinstance(fluent, Var):
        return "transition-var"
    if isinstance(fluent, App):
        return "action"
    return type(fluent).__name__.lower()


def _span_label(fluent: Expr) -> str:
    if isinstance(fluent, App):
        return fluent.symbol.name
    if isinstance(fluent, Foreach):
        return fluent.var.name
    if isinstance(fluent, Var):
        return fluent.name
    if isinstance(fluent, Seq):
        return ";;"
    if isinstance(fluent, CondFluent):
        return "cond"
    return type(fluent).__name__


def _value_label(value: object) -> str:
    """A short, stable rendering of a bound foreach value for span labels."""
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _dedupe_tuples(tuples: list[DBTuple]) -> list[DBTuple]:
    seen: set[tuple] = set()
    result: list[DBTuple] = []
    for t in tuples:
        key = (t.tid, t.values)
        if key not in seen:
            seen.add(key)
            result.append(t)
    return result


def _order_equivalent(initial: State, a: State, b: State) -> bool:
    """State equality modulo the renaming of *fresh* tuple identifiers.

    Two enumeration orders of a ``foreach`` allocate identifiers to freshly
    inserted tuples in different orders; that is an implementation detail,
    not an order dependence of the iteration fluent.  Identifiers that
    existed in the initial state are semantically meaningful and must match
    exactly.
    """
    if a == b:
        return True
    boundary = initial.next_tid

    def canon(state: State):
        shape = {}
        for name in state.relation_names():
            rel = state.relation(name)
            rows = sorted(
                (
                    t.values,
                    t.tid if t.tid is not None and t.tid < boundary else None,
                )
                for t in rel
            )
            shape[name] = rows
        return shape

    return canon(a) == canon(b)


def _conjuncts(formula: Formula) -> list[Formula]:
    if isinstance(formula, And):
        result: list[Formula] = []
        for c in formula.conjuncts:
            result.extend(_conjuncts(c))
        return result
    return [formula]


DEFAULT_INTERPRETER = Interpreter()


def evaluate(state: State, expr: Expr, env: Env | None = None) -> Value:
    """``w:e`` with the default interpreter."""
    return DEFAULT_INTERPRETER.eval_object(state, expr, env)


def satisfies(state: State, formula: Formula, env: Env | None = None) -> bool:
    """``w::p`` with the default interpreter."""
    return DEFAULT_INTERPRETER.eval_formula(state, formula, env)


def execute(state: State, fluent: Expr, env: Env | None = None) -> State:
    """``w;e`` with the default interpreter."""
    return DEFAULT_INTERPRETER.run(state, fluent, env)
