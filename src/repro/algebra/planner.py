"""Cost-based query planner: the interpreter-facing facade of the algebra
subsystem.

The planner sits behind four interpreter hooks (set formers, quantifiers,
``foreach`` domains, aggregates); every :class:`~repro.engine.Database`
built without an explicit interpreter installs one.  Each hook returns
``(handled, value)``: ``(False, None)`` hands the node back to the tree
walk (outside the compilable fragment, relation drifted from the plan, a
predicate that could raise on the current column types, or re-entry from
the verification oracle), ``(True, value)`` answers it from a relational-
algebra plan.  The quantifier hook has a second caller: the situational
:class:`~repro.constraints.semantics.Evaluator` passes a closed ``forall``
with its ``PartialModel`` in the state position and gets the verdict of a
*window plan* — a transaction constraint as a join across the versions of
a window, a static one as the degenerate plan with no join.  Every
evaluation counts in ``repro_planner_evals_total`` as
``outcome="planned"`` or ``"fallback"``; :meth:`QueryPlanner.plan` says why.
A window plan's run also counts in ``repro_planner_window_total`` as
``mode="shift"`` — it re-joined only what the window shift added — or
``"full"``, and in ``repro_planner_delta_total`` as ``plan="window"``,
``mode="seeded"`` when its head state was seeded from the previous head
(only rows whose inputs changed are evaluated there) or ``"full"``; a
``forall`` f-plan counts there as ``plan="forall"``, seeded from the last
state it held at or run in full.

Planning decisions — greedy join order, selection pushdown, hash-index
use — read the state being planned: its relations' row counts, and the
per-column distinct counts :class:`~repro.algebra.stats.StatsCatalog`
caches per relation version.  Decisions affect time only, never results
or read sets: the executor reports every relation the plan names before
it joins, whatever the physical join order (the read-set contract in
:mod:`repro.algebra.executor`, DESIGN.md §7.6).

``verify=True`` is a test seam: it cross-checks every planned answer
against the tree-walk oracle and raises
:class:`~repro.errors.PlannerMismatch` on a difference.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Optional

from repro.db.state import State
from repro.errors import PlanError, PlannerMismatch
from repro.logic.fluents import Foreach, SetFormer
from repro.logic.formulas import Exists, Forall
from repro.transactions.interpreter import _tuple_order_key

from repro.algebra import executor as _exec
from repro.algebra import ir
from repro.algebra.compiler import (
    AggQuery,
    ChainQuery,
    Cmp,
    ForallQuery,
    Incompilable,
    RelQuery,
    SetOpQuery,
    compile_exists,
    compile_forall,
    compile_foreach_domain,
    compile_set_expr,
    compile_set_former,
    compile_window,
)
from repro.algebra.executor import Unplannable
from repro.algebra.stats import StatsCatalog


class Plan:
    """A compiled, ordered operator tree with ``explain()`` rendering."""

    def __init__(self, query, root, annotate=None) -> None:
        self.query = query
        self.root = root
        self._annotate = annotate

    def explain(self) -> str:
        return "\n".join(ir.render(self.root, self._annotate))

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.explain()


class QueryPlanner:
    """Plan cache + statistics + execution entry points for one database."""

    def __init__(
        self,
        *,
        verify: bool = False,
        metrics=None,
        max_plans: int = 512,
    ) -> None:
        self.verify = verify
        self.metrics = metrics
        self.stats = StatsCatalog()
        self.max_plans = max_plans
        self._plans: OrderedDict = OrderedDict()
        self._plans_by_id: dict = {}
        self._derived: dict = {}
        self._held: dict = {}
        self._tids: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        # White-box test seam: when set, every planned result is corrupted
        # before the verify cross-check, proving a wrong plan is caught.
        self._chaos_corrupt = False
        # Plain counters (mirrored to the metrics registry when present).
        self.compiled_count = 0
        self.fallback_count = 0
        self.exec_count = 0
        self.mismatch_count = 0
        self.window_shift_count = 0
        self.window_full_count = 0
        self.delta_window_seeded_count = 0
        self.delta_window_full_count = 0
        self.delta_forall_seeded_count = 0
        self.delta_forall_full_count = 0

    # -- caches -------------------------------------------------------------

    def _weak(self, table: dict, obj, empty):
        """``table``'s entry for ``obj``, made by ``empty()`` and held for as
        long as ``obj`` is: ``table`` maps ``id(obj)`` to a weak reference
        and the entry, dropped with ``obj``.  Called under ``_lock``."""
        key = id(obj)
        entry = table.get(key)
        if entry is None:
            drop = lambda _, key=key, table=table: table.pop(key, None)
            entry = table[key] = (weakref.ref(obj, drop), empty())
        return entry[1]

    def _cached(self, relation, kind, build):
        """Data derived from one immutable relation object (states share
        unchanged relations structurally, so one entry serves every snapshot
        that didn't touch the relation), held for as long as the relation
        is: a ``{kind: data}`` table in ``_derived``, dropped when the last
        state holding that version is."""
        with self._lock:
            data = self._weak(self._derived, relation, dict)
            got = data.get(kind)
        if got is None:
            got = data[kind] = build()
        return got

    def held(self, q) -> list:
        """Where the executor keeps what the plan ``q`` last held over — a
        window plan weak references to its window's states, a closed
        ``forall`` a weak reference to its state: a one-element list in
        ``_held``, dropped with the compiled plan."""
        with self._lock:
            return self._weak(self._held, q, lambda: [None])

    def tids_of(self, state) -> dict:
        """``state``'s identifier → tuple table, equal to
        :meth:`State.lookup_tuple` on every identifier and held for as long
        as ``state`` is: the window plans' dereference prelude reads each
        state of a window through it, built once per state."""
        with self._lock:
            table = self._weak(self._tids, state, dict)
        if not table:
            built: dict = {}
            for relation in state.relations.values():
                built.update(relation.tuples)
            if len(built) != len(state.owner):  # relations and owners disagree
                built = {tid: state.lookup_tuple(tid) for tid in state.owner}
            table.update(built)
        return table

    def reps_of(self, relation):
        """The relation's value-distinct representatives in the tree walk's
        canonical enumeration order."""
        return self._cached(
            relation,
            "reps",
            lambda: sorted(
                relation.to_tuple_set().representatives, key=_tuple_order_key
            ),
        )

    def index_of(self, relation, index: int) -> dict:
        """Hash index over column ``index`` (1-based) of the relation's
        representatives."""

        def build() -> dict:
            table: dict = {}
            for t in self.reps_of(relation):
                table.setdefault(t.values[index - 1], []).append(t)
            return table

        return self._cached(relation, index, build)

    def int_columns(self, relation) -> tuple:
        """Per column: does it hold integers only?  What the executor needs
        to know that a comparison or arithmetic over it cannot raise."""
        return self._cached(
            relation,
            "int",
            lambda: tuple(
                all(type(v) is int for v in column)
                for column in zip(*(t.values for t in self.reps_of(relation)))
            )
            or (True,) * relation.arity,
        )

    def values_of(self, relation) -> frozenset:
        """The relation's value set — what ``member`` tests."""
        return self._cached(
            relation, "values", lambda: relation.to_tuple_set().elements
        )

    def _compiled(self, node, interp, compile_fn, window: bool = False):
        """Compile-or-fallback with a bounded plan cache; ``None`` means the
        node is outside the fragment (negatively cached; every evaluation
        counts as a fallback).  An identity table fronts the structural one:
        a node evaluated again is found by ``id`` — its entry holds the
        node, so the id cannot be recycled — and only a new node object pays
        the structural hash that lets an equal node share a plan.  ``window``
        keeps an s-formula's plan apart from the f-layer hooks' entries."""
        found = self._plans_by_id.get((id(node), window))
        if found is None:
            key = (node, window)
            with self._lock:
                compiled = self._plans.get(key)
            if compiled is None:
                try:
                    compiled = compile_fn()
                    self._count("repro_planner_compiled_total", "compiled")
                except Incompilable as exc:
                    compiled = exc.reason  # negative-cache the reason string
            with self._lock:
                self._plans[key] = compiled
                self._plans.move_to_end(key)
                while len(self._plans) > self.max_plans:
                    self._plans.popitem(last=False)
                if len(self._plans_by_id) >= self.max_plans:
                    self._plans_by_id.clear()
                self._plans_by_id[id(node), window] = found = (node, compiled)
        if isinstance(found[1], str):
            self._count("repro_planner_evals_total", "fallback", outcome="fallback")
            return None
        return found[1]

    def invalidate_negative(self) -> None:
        """Drop negatively-cached ``Incompilable`` reasons.

        A structural schema change (``register_*`` replacing the head
        state, a commit creating or dropping relations) can move a node
        into the compilable fragment — e.g. a membership over a relation
        that did not exist at first evaluation.  Positive plans stay: they
        are state-independent shapes whose run-time binding check already
        falls back when a relation drifts."""
        with self._lock:
            for key in [k for k, v in self._plans.items() if isinstance(v, str)]:
                del self._plans[key]
            for key in [
                k for k, (_, v) in self._plans_by_id.items() if isinstance(v, str)
            ]:
                del self._plans_by_id[key]

    def _delta(self, plan: str, seeded: bool) -> None:
        mode = "seeded" if seeded else "full"
        attr = f"delta_{plan}_{mode}"
        self._count("repro_planner_delta_total", attr, plan=plan, mode=mode)

    def _count(self, metric: str, attr: str, **labels) -> None:
        with self._lock:  # threads share one planner: no lost increments
            setattr(self, attr + "_count", getattr(self, attr + "_count") + 1)
        if self.metrics is not None:
            self.metrics.counter(
                metric, f"planner {attr} events", **labels
            ).inc()

    # -- cost model ---------------------------------------------------------

    def _level_estimate(self, state, lv, local_eq_cols) -> float:
        est = float(_rows(state, lv.rel))
        for col in local_eq_cols:
            est *= self.stats.selectivity(state, lv.rel, col)
        return max(est, 0.001)

    def order_levels(self, state, q: ChainQuery) -> list[int]:
        """Greedy cost-based join order (smallest estimated intermediate
        first, cross products last); deterministic for a given state."""
        levels = q.levels
        if len(levels) <= 1:
            return [lv.slot for lv in levels]
        by_slot = {lv.slot: lv for lv in levels}
        local_eq: dict[int, list[int]] = {lv.slot: [] for lv in levels}
        joins: list[tuple[int, int, int, int]] = []  # slotA, colA, slotB, colB
        for p in q.preds:
            if not isinstance(p, Cmp) or p.op != "eq":
                continue
            lhs, rhs = p.lhs, p.rhs
            l_col = isinstance(lhs, ir.Col)
            r_col = isinstance(rhs, ir.Col)
            if l_col and r_col and lhs.slot != rhs.slot:
                joins.append((lhs.slot, lhs.index, rhs.slot, rhs.index))
            elif l_col and not r_col:
                local_eq[lhs.slot].append(lhs.index or None)
            elif r_col and not l_col:
                local_eq[rhs.slot].append(rhs.index or None)
        est = {
            lv.slot: self._level_estimate(state, lv, [c for c in local_eq[lv.slot] if c])
            for lv in levels
        }
        order = [min(est, key=lambda s: (est[s], s))]
        placed = set(order)
        while len(order) < len(levels):
            best = None
            for slot in sorted(est):
                if slot in placed:
                    continue
                factor = None
                for a, ca, b, cb in joins:
                    if a in placed and b == slot:
                        col = cb
                    elif b in placed and a == slot:
                        col = ca
                    else:
                        continue
                    d = self.stats.distinct(state, by_slot[slot].rel, col) if col else 1
                    f = 1.0 / max(d, 1)
                    factor = f if factor is None else min(factor, f)
                connected = factor is not None
                cost = est[slot] * (factor if connected else 1.0)
                rank = (not connected, cost, slot)
                if best is None or rank < best[0]:
                    best = (rank, slot)
            order.append(best[1])
            placed.add(best[1])
        return order

    # -- explain ------------------------------------------------------------

    def plan(self, node, state, interp=None) -> Plan:
        """Compile ``node`` (raising :class:`~repro.errors.PlanError` when it
        is outside the fragment) and build the physical operator tree the
        executor would run at ``state``, annotated with row estimates.  With
        a ``PartialModel`` as ``state`` the tree is ``node``'s window plan."""
        try:
            if not isinstance(state, State):
                q = compile_window(node, interp)
                return Plan(q, self._window_op(q))
            if isinstance(node, SetFormer):
                q = compile_set_former(node, interp)
            elif isinstance(node, Forall):
                q = compile_forall(node, interp)
            elif isinstance(node, Exists):
                q = compile_exists(node, interp)
            elif isinstance(node, Foreach):
                q = compile_foreach_domain(node, interp)
            else:
                q = compile_set_expr(node, interp)
        except Incompilable as exc:
            raise PlanError(exc.reason) from None
        root = self._build_op(q, state)
        notes: dict[int, str] = {}

        def walk(op):
            if isinstance(op, ir.Scan):
                notes[id(op)] = f"~{_rows(state, op.rel)} rows"
            for attr in ("left", "right", "child"):
                sub = getattr(op, attr, None)
                if sub is not None:
                    walk(sub)

        walk(root)
        return Plan(q, root, annotate=lambda op: notes.get(id(op)))

    def _window_op(self, q):
        """A window plan as the executor joins it: one scan per tuple
        variable (its slots side by side), hash-joined in prefix order; the
        root keeps the rows that fail the conclusion — the violations.  With
        no tuple variable the join is the one empty row of each state."""
        states = "/".join(label for _, label in q.terms)
        root = None if q.groups else ir.Scan("states", 0, 0, states)
        for group, (local, keys, residual) in zip(q.groups, _exec.window_stages(q)):
            *head, last = group
            names = " ".join([f"{s.var.name}(#{s.slot})" for s in head] + [last.var.name])
            arity = last.var.sort.arity
            scan = ir.Scan(f"tup({arity})", arity, last.slot, names, tuple(local))
            root = scan if root is None else ir.HashJoin(
                root,
                scan,
                tuple(other for other, _ in keys),
                tuple(mine for _, mine in keys),
                tuple(residual),
            )
        if q.residuals:
            root = ir.Select(root, q.residuals)
        root = ir.Select(root, q.conclusion, negated=True)
        for _, _, label in q.regressed:
            root = ir.Regress(root, label)
        return root

    def _build_op(self, q, state):
        if isinstance(q, RelQuery):
            return ir.Scan(q.rel, q.arity, 0, "*")
        if isinstance(q, SetOpQuery):
            return ir.Union(
                q.mode, self._build_op(q.left, state), self._build_op(q.right, state)
            )
        if isinstance(q, AggQuery):
            return ir.Aggregate(q.op, self._build_op(q.child, state))
        if isinstance(q, ForallQuery):
            left = ir.Scan(
                q.rel, q.arity, 0, q.var.name, q.guard_preds + q.pre_preds
            )
            if q.body_level is None:
                return _group_ops(left, q)
            cls = ir.SemiJoin if q.negated else ir.AntiJoin
            return _group_ops(_join_op(cls, left, q.body_level, q.body_preds), q)
        assert isinstance(q, ChainQuery)
        by_slot = {lv.slot: lv for lv in q.levels}
        root = None
        order = self.order_levels(state, q)
        for slot, usable, _ in _exec.staged_preds(q.preds, order):
            root = _join_op(ir.HashJoin, root, by_slot[slot], usable)
        if q.alts:
            # Union plan: one branch per disjunct over the shared positive
            # join, combined left-to-right in source order.
            base = root
            root = None
            for branch in q.alts:
                b = base
                if branch.preds:
                    b = ir.Select(b, tuple(branch.preds))
                if branch.level is not None:
                    cls = ir.AntiJoin if branch.negated else ir.SemiJoin
                    b = _join_op(cls, b, branch.level, branch.inner_preds)
                root = b if root is None else ir.Union("union", root, b)
        if q.sub is not None:
            root = _join_op(ir.AntiJoin, root, q.sub.level, q.sub.preds)
        if q.kind in ("setformer", "foreach") and q.result is not None:
            root = ir.Project(
                root,
                q.result.exprs,
                q.result.element_arity,
                whole=q.result.whole,
            )
        return _group_ops(root, q)

    # -- interpreter hooks ---------------------------------------------------

    def _active(self) -> bool:
        return not getattr(self._local, "in_oracle", False)

    def eval_set_former(self, interp, state, former, env):
        if not self._active():
            return False, None
        q = self._compiled(former, interp, lambda: compile_set_former(former, interp))
        if q is None:
            return False, None
        return self._execute(
            interp,
            state,
            env,
            label="set-former",
            runner=lambda: _exec.run_chain(self, interp, state, env, q),
            oracle=lambda: interp._set_former(state, former, env),
        )

    def eval_quantifier(self, interp, state, formula, env):
        """A quantifier at ``state`` — or, with a ``PartialModel`` in the
        state position, a closed s-formula over its whole window."""
        if not self._active():
            return False, None
        window = not isinstance(state, State)
        if window:
            from repro.constraints.semantics import Evaluator

            label, compile_fn, run = "window", compile_window, _exec.run_window
            oracle = lambda: Evaluator(state).holds(formula)
        else:
            if isinstance(formula, Forall):
                label, compile_fn, run = "forall", compile_forall, _exec.run_forall
            else:
                label, compile_fn, run = "exists", compile_exists, _exec.run_chain
            oracle = lambda: interp._bool(state, formula, env)
        q = self._compiled(
            formula, interp, lambda: compile_fn(formula, interp), window
        )
        if q is None:
            return False, None
        return self._execute(
            interp,
            state,
            env,
            label=label,
            runner=lambda: run(self, interp, state, env, q),
            oracle=oracle,
        )

    def eval_foreach_domain(self, interp, state, fluent, env):
        """The satisfier list of a ``foreach`` — same contract as the other
        hooks, but the value is a *list* (the fold order is semantic)."""
        if not self._active():
            return False, None
        q = self._compiled(
            fluent, interp, lambda: compile_foreach_domain(fluent, interp)
        )
        if q is None:
            return False, None
        return self._execute(
            interp,
            state,
            env,
            label="foreach",
            runner=lambda: _exec.run_foreach_domain(self, interp, state, env, q),
            oracle=lambda: [
                inner.lookup(fluent.var)
                for inner in interp._enumerate(
                    state, (fluent.var,), fluent.cond, env
                )
            ],
        )

    def eval_aggregate(self, interp, state, base, expr, env):
        if not self._active():
            return False, None
        q = self._compiled(
            expr,
            interp,
            lambda: AggQuery(base, compile_set_expr(expr.args[0], interp)),
        )
        if q is None:
            return False, None
        return self._execute(
            interp,
            state,
            env,
            label=f"agg-{base}",
            runner=lambda: _exec.run_aggregate(self, interp, state, env, q),
            oracle=lambda: interp._arithmetic(state, base, expr, env),
        )

    # -- execution / verification -------------------------------------------

    def _execute(self, interp, state, env, *, label, runner, oracle):
        tracer = interp.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.start("plan", label, 0)
        try:
            try:
                value = runner()
            except Unplannable:
                self._count("repro_planner_evals_total", "fallback", outcome="fallback")
                return False, None
            self._count("repro_planner_evals_total", "exec", outcome="planned")
            if self._chaos_corrupt:
                value = _corrupt(value)
            if self.verify:
                self._local.in_oracle = True
                try:
                    expected = oracle()
                finally:
                    self._local.in_oracle = False
                if not _agree(value, expected):
                    detail = (
                        f"{label}: planner={value!r} oracle={expected!r}"
                    )[:400]
                    self._count("repro_planner_mismatch_total", "mismatch")
                    raise PlannerMismatch(detail)
            return True, value
        finally:
            if tracer is not None:
                tracer.finish(span)


def _rows(state, name: str) -> int:
    """Row count of relation ``name`` in ``state`` (0 when absent)."""
    rel = state.relations.get(name)
    return 0 if rel is None else len(rel)


def _group_ops(root, q):
    """``root`` under one ``GroupBy`` per aggregate sub-plan of ``q``: the
    relation it scans is part of the plan's read set."""
    for agg in q.aggs:
        root = ir.GroupBy(root, ir.Scan(agg.rel, agg.arity, 0, agg.var.name), agg)
    return root


def _join_op(cls, left, lv, preds):
    """``left ⋈ Scan(lv)`` as the executor's probe table will run it: local
    predicates pushed into the scan, equi keys, residual filters.  With no
    ``left`` (the first level placed) it is the bare scan."""
    local, keys, residual = _exec.split_preds(preds, {lv.slot})
    scan = ir.Scan(lv.rel, lv.arity, lv.slot, lv.var.name, tuple(local))
    if left is None:
        return scan
    return cls(
        left,
        scan,
        tuple(other for other, _ in keys),
        tuple(mine for _, mine in keys),
        tuple(residual),
    )


def _agree(value, expected) -> bool:
    if type(value) is not type(expected):
        return False
    return value == expected


def _corrupt(value):
    """Test-seam corruption: wrong in an obvious, typed way."""
    from repro.db.values import TupleSet

    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, TupleSet) and value.representatives:
        return TupleSet.of(value.arity, value.representatives[:-1])
    return value
