"""Plan execution: hash joins behind the tree walk's value and error seams.

The executor computes *what* the tree walk computes (same value, same
canonical enumeration order, same representative identity, same error
classes) while reading relations *differently* (hash joins and cached
indexes instead of nested enumeration).  Its obligations:

1. **Result equality** — bit-for-bit, including :class:`TupleSet`
   representative order, which downstream ``==`` (the oracle
   cross-checks) observes.
2. **The read-set contract** — a plan's read set is the relations the
   plan names (its levels, its ``not exists``/union/``forall`` body
   levels, the relations its group-by sub-plans aggregate, the ``forall``
   arity class) plus the owners of the parameters it dereferences: a
   sound superset of the tree walk's touches, bounded
   above by a set computable from the plan alone.  :func:`_open` reports
   it through ``_touch`` before any join runs, so join order, pushdown
   and early exits never change it (DESIGN.md §7.6 says why a superset
   is all the scheduler's validation needs).  Two things make it
   larger than the tree walk's: a relation named behind a prefix that is
   empty on this state, and a parameter no row needed — in particular a
   tuple parameter whose identifier is dead, which ``_deref`` resolves
   by touching every relation (any of them could bring it back).
3. **Error equality** — a join tests predicates on other row
   combinations than the nested enumeration does, so the two can only
   agree on errors where no predicate can raise.
   :func:`_open` proves that from the column types (the compiler's
   ``checks``) before a plan runs and otherwise hands the node back to
   the tree walk.
4. **Budget metering** — evaluation charges the attached
   :class:`~repro.transactions.budget.Budget` through the same ``_touch``
   seam plus one tick per scanned and per probed candidate, so runaway
   queries still abort; tick *counts* are comparable, not identical (that
   difference is the speedup).

A *window plan* (:func:`run_window`) answers a closed s-formula over a
``PartialModel`` under the same four: it joins each tuple variable's
active-domain candidates, dereferenced once per state they are read at,
for every distinct applicable binding of the state terms; it reports every
relation of every window state as read; whatever could raise goes back.
A state term ``w;delete(v, R)`` the compiler regressed away runs only where
the delete axioms describe the interpreter (``_window_holds``); a prefix
with no tuple variable joins nothing and reads what its residuals read.
"""

from __future__ import annotations

import itertools

from repro.db.values import DBTuple, TupleSet
from repro.errors import (
    EvaluationError,
    PlannerMismatch,
    ResourceError,
    UnboundVariableError,
)
from repro.transactions.interpreter import Env, _tuple_order_key, value_eq

from repro.algebra.compiler import (
    AggQuery,
    ChainQuery,
    Cmp,
    ForallQuery,
    Level,
    ParamSel,
    RelQuery,
    SetOpQuery,
    WindowQuery,
)
from repro.algebra.ir import Arith, Col, Disj, GroupAgg, Lit, Member, ParamRef


class Unplannable(Exception):
    """Run-time fallback signal: the current state or environment does not
    match the plan (relation missing, arity drifted, parameter unbound).
    The planner catches it and hands the evaluation back to the tree walk,
    whose own error behavior is the contract for these cases."""


class Ctx:
    """Per-evaluation context: the interpreter seams plus the plan's
    parameters, dereferenced once by :func:`_open`, and its group-by tables
    (``params[agg]``).  For a window plan ``state`` is the tuple of states
    bound to its terms and the parameters are relation versions:
    ``params[term, rel]``, ``rel``'s value set there."""

    __slots__ = ("interp", "state", "params")

    def __init__(self, interp, state, params: dict) -> None:
        self.interp = interp
        self.state = state
        self.params = params


def _open(planner, interp, state, env, levels, q, *also: str) -> Ctx:
    """Report the plan's whole read set, up front: one ``_touch`` per
    relation named by ``levels`` and by ``q.aggs`` (and ``also``, the
    ``forall`` arity class), and every parameter of ``q`` dereferenced
    (which touches its owner).  Hands the node back to the tree walk when
    the state does not fit the plan, or when ``q.checks`` cannot rule out
    that a predicate raises on it
    (:func:`repro.algebra.compiler._totality_checks`)."""
    levels = [*levels, *q.aggs]
    for lv in levels:
        relation = state.relations.get(lv.rel)
        if relation is None or relation.arity != lv.arity:
            raise Unplannable(lv.rel)
    try:
        bound = [env.lookup(var) for var in q.params]
    except UnboundVariableError as exc:
        raise Unplannable(str(exc)) from None
    values = {var: interp._deref(state, v) for var, v in zip(q.params, bound)}
    ctx = Ctx(interp, state, values)
    for need, what in q.checks:
        try:
            if need == "column":
                rel, index = what
                ok = planner.int_columns(state.relations[rel])[index - 1]
            else:
                value = _value(ctx, (), what)
                ok = True  # "defined": evaluating it did not raise
                if need != "defined":
                    number = _as_int(value)
                    ok = need == "int" or number != 0
        except EvaluationError:
            ok = False
        if not ok:
            raise Unplannable(f"a predicate may raise: {need} {what}")
    for lv in levels:
        interp._touch(state, lv.rel)
    if also:
        interp._touch(state, *also)
    for agg in q.aggs:
        values[agg] = _group_table(planner, interp, state.relations[agg.rel], agg)
    return ctx


# ---------------------------------------------------------------------------
# value / predicate evaluation (replicating _obj on the compiled fragment)
# ---------------------------------------------------------------------------


def _value(ctx: Ctx, row, expr):
    if isinstance(expr, Col):
        t = row[expr.slot]
        return t if expr.index == 0 else t.select(expr.index)
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, ParamRef):
        return ctx.params[expr.var]
    if isinstance(expr, ParamSel):
        value = ctx.params[expr.var]
        if isinstance(value, DBTuple):
            return value.select(expr.index)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return DBTuple(None, (value,)).select(expr.index)
        raise EvaluationError(f"expected a tuple, got {value!r}")
    if isinstance(expr, Arith):
        # Replicates Interpreter._arithmetic on the binary fragment,
        # including truncated natural subtraction and the zero-divisor
        # error contract.
        a = _as_int(_value(ctx, row, expr.lhs))
        c = _as_int(_value(ctx, row, expr.rhs))
        if expr.op == "+":
            return a + c
        if expr.op == "-":
            return max(0, a - c)
        if expr.op == "*":
            return a * c
        if expr.op == "div":
            if c == 0:
                raise EvaluationError("division by zero")
            return a // c
        if expr.op == "mod":
            if c == 0:
                raise EvaluationError("modulo by zero")
            return a % c
        raise EvaluationError(f"unknown arithmetic function {expr.op}")
    if isinstance(expr, GroupAgg):
        key = tuple(_key_of(_value(ctx, row, other)) for other, _ in expr.keys)
        found = ctx.params[expr].get(key)
        if found is None:
            if expr.op in ("max", "min"):
                # The walk raises here, if it gets here: its call.
                raise Unplannable(f"{expr.op} of an empty group")
            return 0
        return found
    raise EvaluationError(f"unknown plan expression {expr!r}")


def _as_int(value) -> int:
    if isinstance(value, DBTuple):
        if value.arity == 1:
            value = value.values[0]
        else:
            raise EvaluationError(f"expected an atom, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise EvaluationError(f"expected an atom, got {value!r}")
    if not isinstance(value, int):
        raise EvaluationError(f"expected a number, got {value!r}")
    return value


def _holds(ctx: Ctx, row, p) -> bool:
    if not isinstance(p, Cmp):
        if isinstance(p, Disj):
            # Ordered short-circuit in both directions, like the tree walk's
            # any-over-all on the original Or/And.
            return any(
                all(_holds(ctx, row, c) for c in branch) for branch in p.branches
            )
        if isinstance(p, Member):
            return (row[p.slot].values in ctx.params[p.term, p.rel]) != p.negated
        # A window residual: the interpreter's own verdict at that state.
        env = Env({var: row[slot] for var, slot in p.binds})
        truth = ctx.interp.eval_formula(ctx.state[p.term], p.formula, env)
        return truth != p.negated
    a = _value(ctx, row, p.lhs)
    b = _value(ctx, row, p.rhs)
    if p.op == "eq":
        return value_eq(a, b)
    if p.op == "ne":
        return not value_eq(a, b)
    x = _as_int(a)
    y = _as_int(b)
    if p.op == "lt":
        return x < y
    if p.op == "le":
        return x <= y
    if p.op == "gt":
        return x > y
    return x >= y


def _key_of(value):
    """A hashable join key consistent with ``value_eq``."""
    if isinstance(value, DBTuple):
        return ("t", value.values)
    return value


def _expr_slots(e) -> set[int]:
    if isinstance(e, Col):
        return {e.slot}
    if isinstance(e, Arith):
        return _expr_slots(e.lhs) | _expr_slots(e.rhs)
    if isinstance(e, GroupAgg):
        return set().union(*(_expr_slots(other) for other, _ in e.keys))
    return set()


def _pred_slots(p) -> set[int]:
    if isinstance(p, Disj):
        slots: set[int] = set()
        for branch in p.branches:
            for c in branch:
                slots |= _pred_slots(c)
        return slots
    if isinstance(p, Member):
        return {p.slot}
    return _expr_slots(p.lhs) | _expr_slots(p.rhs)


def split_preds(preds, slots: set[int]):
    """Partition the predicates applied when a level — one slot, or the
    slots of one window variable — meets the rows already placed: ``local``
    ones mention only ``slots`` (pushed into its scan), equi ``keys`` pair a
    placed-side expression with a column of ``slots``, and ``residual`` ones
    filter the matches.  The one equi-key extractor — :func:`_probe_table`,
    :func:`window_stages` and the planner's explain tree all call it."""
    local, keys, residual = [], [], []
    for p in preds:
        if _pred_slots(p) <= slots:
            local.append(p)
            continue
        key = _equi_key(p, slots)
        if key is not None:
            keys.append(key)
        else:
            residual.append(p)
    return local, keys, residual


def staged_preds(preds, order):
    """Walk a join ``order``: yield each slot with the predicates that
    become applicable once it is placed, and the placed slots that
    predicates still pending mention."""
    pending = [(p, _pred_slots(p)) for p in preds]
    placed: set[int] = set()
    for slot in order:
        placed.add(slot)
        usable = [p for p, slots in pending if slots <= placed]
        pending = [(p, slots) for p, slots in pending if not slots <= placed]
        yield slot, usable, placed & set().union(*(s for _, s in pending))


def _equi_key(p, slots: set[int]):
    """``(other, mine)`` when ``p`` equates a column of ``slots`` with an
    expression that mentions none of them; else ``None``."""
    if isinstance(p, Cmp) and p.op == "eq":
        for mine, other in ((p.lhs, p.rhs), (p.rhs, p.lhs)):
            if (
                isinstance(mine, Col)
                and mine.slot in slots
                and not slots & _expr_slots(other)
            ):
                return other, mine
    return None


# ---------------------------------------------------------------------------
# scans and probe tables
# ---------------------------------------------------------------------------


def _group_table(planner, interp, relation, agg: GroupAgg) -> dict:
    """The decorrelated aggregate: group key to ``agg.op`` of the *set* of
    result tuples of the rows under that key (50 and 50 sum to 50, as
    ``TupleSet`` has it), built once per relation version.  The compiler's
    checks have run: the cells it folds are integers."""

    def build() -> dict:
        if len(relation) > interp.max_enumeration:
            raise Unplannable(f"enumeration of {agg.var.name} exceeds max_enumeration")
        ctx = Ctx(interp, None, {})
        groups: dict = {}
        try:
            for t in planner.reps_of(relation):
                if interp.budget is not None:
                    interp.budget.tick()
                row = (t,)
                if all(_holds(ctx, row, p) for p in agg.local):
                    key = tuple(_key_of(_value(ctx, row, mine)) for _, mine in agg.keys)
                    groups.setdefault(key, set()).add(_element(ctx, row, agg).values)
        except EvaluationError as exc:
            raise Unplannable(f"{agg.op}: {exc}") from None
        if agg.op == "size":
            return {key: len(elements) for key, elements in groups.items()}
        fold = {"sum": sum, "max": max, "min": min}[agg.op]
        return {key: fold(v[0] for v in elements) for key, elements in groups.items()}

    return planner._cached(relation, agg, build)


def _scan(planner, ctx: Ctx, level: Level, preds) -> list:
    """The level's representatives passing its local predicates, in
    canonical order.  Uses a cached hash index for single-column equality
    against a constant or parameter."""
    interp = ctx.interp
    relation = ctx.state.relations[level.rel]
    pool = planner.reps_of(relation)
    if len(pool) > interp.max_enumeration:
        raise EvaluationError(
            f"enumeration of {level.var.name} exceeds max_enumeration"
        )
    if not pool:
        return []
    slot = level.slot
    filters = list(preds)
    for p in preds:
        key = _equi_key(p, {slot})
        if key is not None and key[1].index > 0:
            other, mine = key
            wanted = _key_of(_value(ctx, (), other))
            pool = planner.index_of(relation, mine.index).get(wanted, ())
            filters.remove(p)
            break
    budget = interp.budget
    row = [None] * (slot + 1)
    kept = []
    for t in pool:
        if budget is not None:
            budget.tick()
        row[slot] = t
        if all(_holds(ctx, row, p) for p in filters):
            kept.append(t)
    return kept


def _probe_table(planner, ctx: Ctx, level: Level, preds):
    """The one hash-probe implementation (joins, anti joins, union
    branches and ``forall`` bodies all use it): scan ``level`` under its
    local predicates, key the survivors on the equi columns, and return
    ``probe(row)`` — an iterator over ``row`` extended with each match
    that passes the residual predicates.  Without equi keys the table has
    one bucket and the probe is a filtered cross product.

    The table is built when the first row probes it: a level no row
    reaches is never scanned, so — as in the tree walk — its size is not
    held against ``max_enumeration``."""
    slot = level.slot
    local, keys, residual = split_preds(preds, {slot})
    budget = ctx.interp.budget
    table = None

    def build() -> dict:
        built: dict = {}
        scratch = [None] * (slot + 1)
        for t in _scan(planner, ctx, level, local):
            scratch[slot] = t
            k = tuple(_key_of(_value(ctx, scratch, mine)) for _, mine in keys)
            built.setdefault(k, []).append(t)
        return built

    def probe(row):
        nonlocal table
        if table is None:
            table = build()
        k = tuple(_key_of(_value(ctx, row, other)) for other, _ in keys)
        for t in table.get(k, ()):
            if budget is not None:
                budget.tick()
            merged = list(row)
            merged[slot] = t
            if all(_holds(ctx, merged, p) for p in residual):
                yield merged

    return probe


# ---------------------------------------------------------------------------
# chain execution (set formers / exists chains)
# ---------------------------------------------------------------------------


def _join_levels(planner, ctx: Ctx, q: ChainQuery, order) -> list:
    """Left-deep hash-join pipeline over ``q.levels`` in ``order``.  Returns
    the surviving rows — lists indexed by slot, one spare slot wide so a
    trailing sub/branch level can extend them."""
    by_slot = {lv.slot: lv for lv in q.levels}
    # A bare exists only needs one witness per distinct binding of the
    # slots later predicates still mention.
    dedupe = q.kind == "exists" and q.sub is None and not q.alts
    rows = [[None] * (len(q.levels) + 1)]
    staged = staged_preds(q.preds, order)
    for placed, (slot, usable, needed) in enumerate(staged, 1):
        probe = _probe_table(planner, ctx, by_slot[slot], usable)
        rows = [merged for row in rows for merged in probe(row)]
        if not rows:
            break
        if dedupe and len(needed) < placed:
            cols = sorted(needed)
            seen_keys = set()
            kept = []
            for row in rows:
                k = tuple(row[s].values for s in cols)
                if k not in seen_keys:
                    seen_keys.add(k)
                    kept.append(row)
            rows = kept
    return rows


def _alt_filter(planner, ctx: Ctx, rows, alts):
    """Filter rows by the trailing ``or``: keep rows where some branch
    holds, trying branches in source order per row."""
    probes = [
        _probe_table(planner, ctx, branch.level, branch.inner_preds)
        if branch.level is not None
        else None
        for branch in alts
    ]

    def accepted(row) -> bool:
        for branch, probe in zip(alts, probes):
            if all(_holds(ctx, row, p) for p in branch.preds) and (
                probe is None or any(probe(row)) != branch.negated
            ):
                return True
        return False

    return [row for row in rows if accepted(row)]


def _chain_rows(planner, interp, state, env, q: ChainQuery):
    """Shared front half of chain evaluation: read-set report, positive
    join, union-branch filter, anti filter.  Returns the evaluation
    context and the surviving rows."""
    named = list(q.levels)
    if q.sub is not None:
        named.append(q.sub.level)
    named.extend(b.level for b in q.alts if b.level is not None)
    ctx = _open(planner, interp, state, env, named, q)
    rows = _join_levels(planner, ctx, q, planner.order_levels(state, q))
    if q.alts and rows:
        rows = _alt_filter(planner, ctx, rows, q.alts)
    if q.sub is not None and rows:
        # Trailing not-exists: drop rows with a match in its level.
        matches = _probe_table(planner, ctx, q.sub.level, q.sub.preds)
        rows = [row for row in rows if not any(matches(row))]
    return ctx, rows


def run_foreach_domain(planner, interp, state, env, q: ChainQuery) -> list:
    """The ``foreach`` satisfier list: value-distinct slot-0
    representatives with at least one surviving row, in the tree walk's
    canonical enumeration order."""
    ctx, rows = _chain_rows(planner, interp, state, env, q)
    relation = state.relations[q.levels[0].rel]
    survivors = {_key_of(row[0]) for row in rows}
    return [t for t in planner.reps_of(relation) if _key_of(t) in survivors]


def run_chain(planner, interp, state, env, q: ChainQuery):
    ctx, rows = _chain_rows(planner, interp, state, env, q)
    if q.kind == "exists":
        return bool(rows)
    # Set former: canonical enumeration order, then project.
    slots = [lv.slot for lv in q.levels]
    rows.sort(key=lambda r: tuple(_tuple_order_key(r[s]) for s in slots))
    budget = interp.budget
    collected: list[DBTuple] = []
    for row in rows:
        collected.append(_element(ctx, row, q.result))
        if budget is not None:
            budget.count_derived(1)
    return TupleSet.of(q.result.element_arity, collected)


def _element(ctx: Ctx, row, result) -> DBTuple:
    """One row's projection, as the tree walk's set former collects it."""
    if result.whole:
        return row[result.exprs[0].slot]
    if len(result.exprs) == 1 and not _is_mktuple(result):
        value = _value(ctx, row, result.exprs[0])
        if isinstance(value, DBTuple):
            return value
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return DBTuple(None, (value,))
        raise EvaluationError(
            f"set former result must be a tuple or atom, got {value!r}"
        )
    return DBTuple(None, tuple(_atom_of(_value(ctx, row, e)) for e in result.exprs))


def _is_mktuple(result) -> bool:
    # A multi-part projection is always a tuple constructor; a single Col
    # part is only a constructor when the compiler said so via whole=False
    # with element arity drawn from the constructor — we encode
    # constructors simply as len(exprs) != 1.
    return len(result.exprs) != 1


def _atom_of(value):
    """Replicates ``_atom_value``: atoms pass, 1-tuples coerce."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        if isinstance(value, DBTuple) and value.arity == 1:
            return value.values[0]
        raise EvaluationError(f"expected an atom, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# forall execution
# ---------------------------------------------------------------------------


def run_forall(planner, interp, state, env, q: ForallQuery) -> bool:
    guard = Level(q.var, 0, q.rel, q.arity)
    named = [guard] if q.body_level is None else [guard, q.body_level]
    # The unguarded forall domain: every tuple of the variable's arity.
    arity_names = [
        n
        for n in state.relation_names()
        if state.relations[n].arity == q.arity
    ]
    ctx = _open(planner, interp, state, env, named, q, *arity_names)
    domain_count = sum(len(state.relations[n]) for n in arity_names)
    if domain_count > interp.max_enumeration:
        raise EvaluationError(
            f"enumeration of {q.var.name} exceeds max_enumeration"
        )
    budget = interp.budget
    if budget is not None:
        for _ in range(domain_count):
            budget.tick()

    # Candidates outside R pass the guard's membership vacuously; the rest
    # are checked in canonical order, stopping at the first violation.
    rows = list(_probe_table(planner, ctx, guard, q.guard_preds)([None, None]))
    if not rows:
        return True
    body = None
    if q.body_level is not None:
        body = _probe_table(planner, ctx, q.body_level, q.body_preds)
    for row in rows:
        if not all(_holds(ctx, row, p) for p in q.pre_preds):
            return False
        if body is not None and any(body(row)) == q.negated:
            return False
    return True


# ---------------------------------------------------------------------------
# set expressions / aggregates
# ---------------------------------------------------------------------------


def run_set_query(planner, interp, state, env, q):
    if isinstance(q, RelQuery):
        relation = interp._relation(state, q.rel, q.arity)
        return relation.to_tuple_set()
    if isinstance(q, ChainQuery):
        return run_chain(planner, interp, state, env, q)
    if isinstance(q, SetOpQuery):
        left = run_set_query(planner, interp, state, env, q.left)
        right = run_set_query(planner, interp, state, env, q.right)
        if q.mode == "union":
            return left.union(right)
        if q.mode == "intersect":
            return left.intersect(right)
        return left.difference(right)
    raise Unplannable(repr(q))


def run_aggregate(planner, interp, state, env, q: AggQuery):
    value = run_set_query(planner, interp, state, env, q.child)
    if q.op == "size":
        return len(value)
    column = value.first_column()
    numbers = [v for v in column if isinstance(v, int)]
    if len(numbers) != len(column):
        raise EvaluationError(f"{q.op}: non-numeric attribute values")
    if q.op == "sum":
        return sum(numbers)
    if not numbers:
        raise EvaluationError(f"{q.op} of an empty set is undefined")
    return max(numbers) if q.op == "max" else min(numbers)


# ---------------------------------------------------------------------------
# window execution (closed s-formulas over a partial model)
# ---------------------------------------------------------------------------


def window_stages(q: WindowQuery) -> list:
    """Per tuple variable, in prefix order: :func:`split_preds` of the
    premise predicates that become applicable once its slots are placed."""
    order = [s.slot for group in q.groups for s in group]
    usable = {slot: preds for slot, preds, _ in staged_preds(q.preds, order)}
    return [
        split_preds([p for s in group for p in usable[s.slot]], {s.slot for s in group})
        for group in q.groups
    ]


def _assignments(model, states, terms) -> list:
    """Every *distinct applicable* binding of the plan's state terms: a
    state variable ranges over the model's states, ``w;t`` over the states
    a transition applicable at ``w`` reaches (``w`` itself through Λ).  A
    binding the walk visits with ``t`` inapplicable is vacuous, or decided
    before any ``w;t`` is read and then decided the same way under Λ."""
    reach = {
        s: list(dict.fromkeys(tr.apply(s) for tr in model.transitions_from(s)))
        for s in states
    }
    bounds = [()]
    for base, _ in terms:
        bounds = [
            (*bound, state)
            for bound in bounds
            for state in (states if base is None else reach[bound[base]])
        ]
    return bounds


def run_window(planner, interp, model, env, q: WindowQuery) -> bool:
    """Does the closed ``forall`` hold of ``model``?  Errors are the walk's
    to decide: a misfit relation or column, or *any* exception on the way —
    short of a spent budget or an inner plan's mismatch — hands it back."""
    try:
        return _window_holds(planner, interp, model, q)
    except (Unplannable, PlannerMismatch, ResourceError):
        raise
    except Exception as exc:
        raise Unplannable(f"{type(exc).__name__} in a window plan") from None


def _window_holds(planner, interp, model, q: WindowQuery) -> bool:
    states = model.states()
    members = [p for p in (*q.preds, *q.conclusion) if isinstance(p, Member)]
    for state in states:
        for p in members:
            relation = state.relations.get(p.rel)
            if relation is None or relation.arity != p.arity:
                raise Unplannable(p.rel)
        for _, (name, index) in q.checks:
            if not planner.int_columns(state.relations[name])[index - 1]:
                raise Unplannable(f"a predicate may raise: column {name}.{index}")
        if q.groups:
            # Candidates come from every relation of a variable's arity and
            # a dead identifier dereferences against all of them.
            interp._touch(state, *state.relation_names())
    # Each arity's active-domain candidates as they exist at each state:
    # dereferenced by identifier, the bound snapshot where it is dead —
    # ``Interpreter._deref`` once per (candidate, state), not per row.
    derefs: dict = {}
    domains = {a: model.tuple_domain(a) for a in {g[0].var.sort.arity for g in q.groups}}
    for arity, domain in domains.items():
        for state in states:
            found = [state.lookup_tuple(c.tid) or c for c in domain]
            if any(t.arity != arity for t in found):
                raise Unplannable("identifier reused across arities")
            if interp.budget is not None:
                for _ in found:
                    interp.budget.tick()
            derefs[state, arity] = found
    for state, (name, arity, label) in itertools.product(states, q.regressed):
        # Where the delete axioms are the interpreter: ``name`` is a set of
        # values (deleting one row removes its value), and the row that goes
        # reads the same dead — no candidate is an older copy of it.
        relation = state.relations.get(name)
        if relation is None:
            raise Unplannable(name)
        stale = (
            t.values != c.values and state.owner_of(c.tid) == name
            for c, t in zip(domains[arity], derefs[state, arity])
        )
        if len(planner.values_of(relation)) != len(relation) or any(stale):
            raise Unplannable(f"{label}: the delete axioms do not describe this state")
    stages = window_stages(q)
    holds = True
    for bound in _assignments(model, states, q.terms):
        versions = {
            (p.term, p.rel): planner.values_of(bound[p.term].relations[p.rel])
            for p in members
        }
        ctx = Ctx(interp, bound, versions)
        # Every row is tested, found violations or not: a residual can
        # raise, and the walk may meet that row before its first violation.
        for row in _window_rows(ctx, q, stages, derefs):
            if all(_holds(ctx, row, p) for p in q.residuals) and not all(
                _holds(ctx, row, p) for p in q.conclusion
            ):
                holds = False
    return holds


def _window_rows(ctx: Ctx, q: WindowQuery, stages, derefs) -> list:
    """The rows of one state assignment that pass the premise's memberships
    and pure predicates.  Per tuple variable: scan its candidates (one per
    slot from ``derefs``, local predicates pushed down), key the survivors
    on the equi columns, probe with the rows joined so far."""
    width = sum(len(group) for group in q.groups)
    rows = [[None] * width]
    for group, (local, keys, residual) in zip(q.groups, stages):
        columns = [derefs[ctx.state[s.term], s.var.sort.arity] for s in group]
        table: dict = {}
        scratch = [None] * width
        for found in zip(*columns):
            for s, t in zip(group, found):
                scratch[s.slot] = t
            if all(_holds(ctx, scratch, p) for p in local):
                k = tuple(_key_of(_value(ctx, scratch, mine)) for _, mine in keys)
                table.setdefault(k, []).append(found)
        joined = []
        for row in rows:
            k = tuple(_key_of(_value(ctx, row, other)) for other, _ in keys)
            for found in table.get(k, ()):
                merged = list(row)
                for s, t in zip(group, found):
                    merged[s.slot] = t
                if all(_holds(ctx, merged, p) for p in residual):
                    joined.append(merged)
        rows = joined
    return rows
