"""Model-checking semantics for s-formulas over partial models.

Section 3 of the paper: a complete database ``DB_Σ`` (a model of the theory)
has, in general, infinitely many states; "only a partial model … can be
maintained for access".  This module evaluates closed s-formulas over such a
partial model — an evolution graph (often the linear window of a
:class:`~repro.db.evolution.History`).

Quantifier domains:

* situational **state** variables range over the model's states;
* fluent state variables (**transitions**) range over the model's arcs and
  their compositions (the graph is reflexive-transitively closed by
  :meth:`EvolutionGraph.transitions_from`); a transition bound where it is
  inapplicable makes the body *vacuous* (universals skip it, existentials
  fail it) — reachability semantics;
* **tuple** variables range over the active domain (tuples occurring in any
  state of the model), fluent ones dereferencing by identifier per state;
* **atom** variables range over the active atom domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import EvaluationError
from repro.db.evolution import EvolutionGraph, History, Transition, chain_graph
from repro.db.state import State
from repro.db.values import Atom, DBTuple, Value
from repro.logic.formulas import (
    And,
    Eq,
    EvalBool,
    Exists,
    FalseF,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Pred,
    SPred,
    TrueF,
)
from repro.logic.terms import (
    AtomConst,
    App,
    ConstExpr,
    EvalObj,
    EvalState,
    Expr,
    Layer,
    Node,
    SApp,
    Var,
)
from repro.transactions.interpreter import Env, Interpreter, value_eq


class TransitionInapplicable(EvaluationError):
    """``s;t`` where transition ``t`` is not defined at state ``s``.

    Carries the transition *variable* whose binding was inapplicable, so that
    exactly the quantifier binding that variable treats the case as vacuous —
    an inner quantifier must not absorb an outer variable's inapplicability.
    """

    def __init__(self, var: Var, message: str) -> None:
        super().__init__(message)
        self.var = var


class _NoTransition:
    """Sentinel denoting an undefined transition composition; it equals
    nothing (including itself), so δ's ``t = t1;;t2`` is simply false for
    decompositions whose endpoints do not meet."""

    def __eq__(self, other: object) -> bool:
        return False

    def __ne__(self, other: object) -> bool:
        return True

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return "<no-transition>"


NO_TRANSITION = _NoTransition()


@dataclass
class PartialModel:
    """The maintained fragment of the database's evolution.

    ``constants`` interprets named state constants (``s0``); transition
    enumeration is bounded by ``max_transition_length`` on cyclic graphs.

    A model is a value: its graph is not changed once it is queried, so
    each state's bounded transitions and each arity's tuple domain are
    computed once per model — a commit builds one model and checks every
    constraint over it.
    """

    graph: EvolutionGraph
    interpreter: Interpreter = field(default_factory=Interpreter)
    constants: dict[str, State] = field(default_factory=dict)
    max_transition_length: Optional[int] = None
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def of_history(history: History, interpreter: Interpreter | None = None) -> "PartialModel":
        """Chain transitions have at most ``len(history) - 1`` hops; the
        bound also keeps no-op transactions (content-equal consecutive
        states, i.e. self-loops) from making enumeration unbounded."""
        return PartialModel(
            history.to_graph(),
            interpreter or Interpreter(),
            max_transition_length=max(1, len(history)),
        )

    @staticmethod
    def of_states(states: list[State], interpreter: Interpreter | None = None) -> "PartialModel":
        """A chain model from a list of consecutive states."""
        return PartialModel(
            chain_graph(states),
            interpreter or Interpreter(),
            max_transition_length=max(1, len(states)),
        )

    def states(self) -> list[State]:
        return self.graph.states()

    def transitions_from(self, state: State) -> Iterable[Transition]:
        if self.max_transition_length is None:
            # Unbounded, a cyclic graph raises only once enumerated this far.
            return self.graph.transitions_from(state, None)
        # Keyed by identity; the entry keeps ``state`` alive, so its id is not reused.
        found = self._memo.get(id(state))
        if found is None:
            found = self._memo[id(state)] = (
                state,
                list(self.graph.transitions_from(state, self.max_transition_length)),
            )
        return found[1]

    def all_transitions(self) -> list[Transition]:
        """Λ once — it is the same transition at every state — then each
        state's arcs and their compositions."""
        seen: list[Transition] = [Transition(())]
        for state in self.states():
            seen.extend(tr for tr in self.transitions_from(state) if not tr.is_null)
        return seen

    def tuple_domain(self, arity: int) -> list[DBTuple]:
        """The active domain of ``tup(arity)``: one tuple per identifier and
        value occurring in some state.  Shared by every caller — do not
        mutate it."""
        found = self._memo.get(("tuples", arity))
        if found is None:
            by_tid: dict[object, DBTuple] = {}
            for state in self.states():
                for t in state.tuples_of_arity(arity):
                    by_tid.setdefault((t.tid, t.values), t)
            found = self._memo["tuples", arity] = list(by_tid.values())
        return found

    def atom_domain(self) -> list[Atom]:
        acc: set[Atom] = set()
        for state in self.states():
            acc.update(state.atoms())
        return sorted(acc, key=lambda a: (isinstance(a, str), a))


@dataclass
class Evaluator:
    """Evaluates closed s-formulas against a :class:`PartialModel`."""

    model: PartialModel
    _domains: dict = field(default_factory=dict, repr=False, compare=False)

    # -- formulas ----------------------------------------------------------------

    def holds(self, formula: Formula, env: Env | None = None) -> bool:
        return self._formula(formula, env or Env.empty())

    def _formula(self, formula: Formula, env: Env) -> bool:
        if isinstance(formula, TrueF):
            return True
        if isinstance(formula, FalseF):
            return False
        if isinstance(formula, Not):
            return not self._formula(formula.body, env)
        if isinstance(formula, And):
            return all(self._formula(c, env) for c in formula.conjuncts)
        if isinstance(formula, Or):
            return any(self._formula(d, env) for d in formula.disjuncts)
        if isinstance(formula, Implies):
            return (not self._formula(formula.antecedent, env)) or self._formula(
                formula.consequent, env
            )
        if isinstance(formula, Iff):
            return self._formula(formula.lhs, env) == self._formula(formula.rhs, env)
        if isinstance(formula, Forall):
            planner = self.model.interpreter.planner
            if planner is not None and not env.bindings:
                # Where a constraint check starts: the planner may answer from
                # a window plan; this walk stays the definition (and its oracle).
                handled, value = planner.eval_quantifier(
                    self.model.interpreter, self.model, formula, env
                )
                if handled:
                    return value
            return self._quantified(formula.var, formula.body, env, universal=True)
        if isinstance(formula, Exists):
            return self._quantified(formula.var, formula.body, env, universal=False)
        if isinstance(formula, EvalBool):
            state = self._state_value(formula.state, env)
            return self.model.interpreter.eval_formula(state, formula.formula, env)
        if isinstance(formula, Eq):
            return value_eq(self._expr(formula.lhs, env), self._expr(formula.rhs, env))
        if isinstance(formula, SPred):
            state = self._state_value(formula.state, env)
            values = [self._expr(a, env) for a in formula.args]
            return apply_predicate(self.model.interpreter, state, formula.symbol, values)
        if isinstance(formula, Pred):
            if formula.layer is Layer.SITUATIONAL:
                # Rigid predicate over situational values (e.g. the < of
                # ``age'(s1, e) < age'(s2, e)``).
                values = [self._expr(a, env) for a in formula.args]
                return apply_predicate(
                    self.model.interpreter, None, formula.symbol, values
                )
            # A fluent/rigid atom outside any w:: — evaluate at any state
            # (it must be rigid for the formula to be meaningful).
            states = self.model.states()
            if not states:
                raise EvaluationError("empty model cannot evaluate fluent atoms")
            return self.model.interpreter.eval_formula(states[0], formula, env)
        raise EvaluationError(f"cannot evaluate s-formula {type(formula).__name__}")

    def _quantified(self, var: Var, body: Formula, env: Env, universal: bool) -> bool:
        domain = self._domains.get(var)
        if domain is None:  # once per evaluator: the model does not change
            domain = self._domains[var] = list(self._domain(var))
        for value in domain:
            inner = env.bind(var, value)
            try:
                result = self._formula(body, inner)
            except TransitionInapplicable as exc:
                if exc.var != var:
                    raise  # an outer binding is at fault; let it handle this
                # Reachability semantics: an inapplicable binding is vacuous
                # for universals and a non-witness for existentials.
                result = universal
            if universal and not result:
                return False
            if not universal and result:
                return True
        return universal

    def _domain(self, var: Var) -> Iterable[object]:
        if var.is_state_var:
            return self.model.states()
        if var.is_transition_var:
            return self.model.all_transitions()
        if var.sort.is_tuple:
            return self.model.tuple_domain(var.sort.arity)
        if var.sort.is_atom:
            return self.model.atom_domain()
        if var.sort.is_set:
            domains = []
            for state in self.model.states():
                for name in state.relation_names():
                    rel = state.relation(name)
                    if rel.arity == var.sort.arity:
                        domains.append(rel.to_tuple_set())
            return domains
        raise EvaluationError(f"cannot enumerate situational domain of {var.sort}")

    # -- expressions --------------------------------------------------------------

    def _expr(self, expr: Expr, env: Env) -> Value | State:
        if isinstance(expr, Var):
            value = env.lookup(expr)
            return value  # type: ignore[return-value]
        if isinstance(expr, AtomConst):
            return expr.value
        if isinstance(expr, ConstExpr):
            if expr.const_sort.is_state:
                try:
                    return self.model.constants[expr.name]
                except KeyError:
                    raise EvaluationError(
                        f"state constant {expr.name} is not interpreted"
                    ) from None
            raise EvaluationError(f"uninterpreted constant {expr.name}")
        if isinstance(expr, EvalObj):
            state = self._state_value(expr.state, env)
            return self.model.interpreter.eval_object(state, expr.expr, env)
        if isinstance(expr, EvalState):
            return self._state_value(expr, env)
        if isinstance(expr, SApp):
            state = self._state_value(expr.state, env)
            values = [self._expr(a, env) for a in expr.args]
            return apply_function(self.model.interpreter, state, expr.symbol, values)
        if isinstance(expr, App) and expr.layer is Layer.SITUATIONAL:
            # Rigid function over situational values (``salary'(s, e) - v``).
            values = [self._expr(a, env) for a in expr.args]
            return apply_function(self.model.interpreter, None, expr.symbol, values)
        if expr.sort.is_state and expr.layer is not Layer.SITUATIONAL:
            # A transition-valued term (the δ translation's ``t1 ;; t2``).
            return self._transition_term(expr, env)  # type: ignore[return-value]
        if expr.layer is not Layer.SITUATIONAL:
            states = self.model.states()
            if not states:
                raise EvaluationError("empty model cannot evaluate fluent terms")
            return self.model.interpreter.eval_object(states[0], expr, env)
        raise EvaluationError(f"cannot evaluate s-expression {type(expr).__name__}")

    def _transition_term(self, expr: Expr, env: Env):
        """Evaluate a fluent state-sorted term to a :class:`Transition`.

        Composition with mismatched endpoints yields the never-equal
        :data:`NO_TRANSITION` sentinel (``t1 ;; t2`` denotes no recorded
        path, so it equals no quantified transition).
        """
        from repro.logic.fluents import Identity as FIdentity
        from repro.logic.fluents import Seq as FSeq

        if isinstance(expr, Var):
            value = env.lookup(expr)
            if isinstance(value, Transition):
                return value
            raise EvaluationError(f"transition variable bound to {value!r}")
        if isinstance(expr, FIdentity):
            return Transition(())
        if isinstance(expr, FSeq):
            first = self._transition_term(expr.first, env)
            second = self._transition_term(expr.second, env)
            if first is NO_TRANSITION or second is NO_TRANSITION:
                return NO_TRANSITION
            composed = first.then(second)
            return composed if composed is not None else NO_TRANSITION
        raise EvaluationError(
            f"cannot evaluate {type(expr).__name__} as a transition value"
        )

    def _state_value(self, expr: Expr, env: Env) -> State:
        if isinstance(expr, EvalState):
            base = self._state_value(expr.state, env)
            return self._apply_transition(base, expr.trans, env)
        value = self._expr(expr, env)
        if not isinstance(value, State):
            raise EvaluationError(f"expected a state, got {value!r}")
        return value

    def _apply_transition(self, state: State, trans: Expr, env: Env) -> State:
        if isinstance(trans, Var):
            value = env.lookup(trans)
            if isinstance(value, Transition):
                result = value.apply(state)
                if result is None:
                    raise TransitionInapplicable(
                        trans, f"transition {value.label} undefined at this state"
                    )
                return result
            if isinstance(value, State):
                return value
            raise EvaluationError(f"transition variable bound to {value!r}")
        # Concrete transaction term: execute it.
        return self.model.interpreter.run(state, trans, env)


# ---------------------------------------------------------------------------
# Primed symbol application (shared with the prover's ground evaluation)
# ---------------------------------------------------------------------------


def apply_function(interp: Interpreter, state: State, symbol, values: list):
    """Apply an f-function symbol to evaluated argument values at a state."""
    from repro.db.values import RelationId, TupleSet

    base = symbol.name.rstrip("0123456789")
    kind = symbol.kind.value
    if kind == "attribute":
        t = _as_tuple(values[0])
        return t.select(symbol.index)
    if base == "select":
        return _as_tuple(values[0]).select(int(values[1]))
    if base == "tuple":
        return DBTuple(None, tuple(values))
    if base == "id":
        return _as_tuple(values[0]).identifier()
    if kind == "state-changing":
        if base == "insert":
            rid = values[1]
            assert isinstance(rid, RelationId)
            new_state, _ = state.insert_tuple(rid.name, _as_tuple(values[0]))
            return new_state
        if base == "delete":
            rid = values[1]
            assert isinstance(rid, RelationId)
            return state.delete_tuple(rid.name, _as_tuple(values[0]))
        if base == "modify":
            return state.modify_tuple(_as_tuple(values[0]), int(values[1]), values[2])
        if base == "assign":
            rid = values[0]
            assert isinstance(rid, RelationId)
            target = state
            if not target.has_relation(rid.name):
                target = target.create_relation(rid.name, rid.arity)
            return target.assign_relation(rid.name, rid.arity, values[1])
    if kind == "arithmetic":
        if base in ("sum", "max", "min", "size"):
            ts = values[0]
            assert isinstance(ts, TupleSet)
            column = ts.first_column()
            if base == "size":
                return len(ts)
            if base == "sum":
                return sum(v for v in column if isinstance(v, int))
            numbers = [v for v in column if isinstance(v, int)]
            if not numbers:
                raise EvaluationError(f"{base} of empty set")
            return max(numbers) if base == "max" else min(numbers)
        a, c = int(values[0]), int(values[1])
        table = {
            "+": a + c, "-": max(0, a - c), "*": a * c,
            "max": max(a, c), "min": min(a, c),
        }
        if base in table:
            return table[base]
        if base == "div":
            return a // c
        if base == "mod":
            return a % c
    if kind == "set":
        ts = values[0]
        if base == "with":
            return ts.union(TupleSet.of(ts.arity, [_as_tuple(values[1])]))
        if base == "without":
            return ts.difference(TupleSet.of(ts.arity, [_as_tuple(values[1])]))
        other = values[1]
        ops = {
            "union": ts.union, "intersect": ts.intersect,
            "diff": ts.difference, "product": ts.product,
        }
        if base in ops:
            return ops[base](other)
    raise EvaluationError(f"no primed interpretation for {symbol.name}")


def apply_predicate(interp: Interpreter, state: State, symbol, values: list) -> bool:
    base = symbol.name.rstrip("0123456789")
    if base == "member":
        return values[1].contains(_as_tuple(values[0]))
    if base == "subset":
        return values[0].is_subset(values[1])
    if base in ("<", "<=", ">", ">="):
        a, c = int(values[0]), int(values[1])
        return {"<": a < c, "<=": a <= c, ">": a > c, ">=": a >= c}[base]
    raise EvaluationError(f"no primed interpretation for predicate {symbol.name}")


def _as_tuple(value) -> DBTuple:
    if isinstance(value, DBTuple):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return DBTuple(None, (value,))
    raise EvaluationError(f"expected a tuple, got {value!r}")
