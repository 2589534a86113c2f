"""Relational-algebra compiler, cost-based planner, and executor.

The tree-walk interpreter of :mod:`repro.transactions.interpreter` is the
semantics; this package is an *accelerator* for its read-only fragment:
set formers, ``exists`` chains, guarded ``forall`` constraints,
aggregates (also under a comparison: a group-by hash aggregate per relation
version) and the paper's closed transaction constraints compile to
hash-join plans that answer in O(n + m) where the tree walk nests
enumerations.  Values, canonical enumeration order,
``Budget`` enforcement and error classes replicate the tree walk; the
``_touch`` read set follows one contract instead — the relations the plan
names plus the owners of its parameters, a superset of the tree walk's
reads bounded by the plan itself (:mod:`repro.algebra.executor`,
DESIGN.md §7.6).  Anything the compiler cannot express, and any node with
a predicate that could raise on the current column types, falls back to
the tree walk silently.

Every :class:`repro.engine.Database`, :class:`repro.sharding.
ShardedDatabase` and :class:`repro.sharding.Replica` built without an
explicit interpreter installs a planner
(:meth:`~repro.engine.Database.enable_planner` installs a fresh one,
optionally with the ``verify`` test seam); inspect plans via
:meth:`QueryPlanner.plan` / :meth:`Plan.explain`.
"""

from repro.algebra.compiler import (
    AggQuery,
    AltBranch,
    ChainQuery,
    ForallQuery,
    Incompilable,
    RelQuery,
    SetOpQuery,
    compile_exists,
    compile_forall,
    compile_foreach_domain,
    compile_set_expr,
    compile_set_former,
)
from repro.algebra.ir import (
    Aggregate,
    AntiJoin,
    Arith,
    Cmp,
    Col,
    Disj,
    GroupAgg,
    GroupBy,
    HashJoin,
    Lit,
    ParamRef,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
    render,
)
from repro.algebra.planner import Plan, QueryPlanner
from repro.algebra.stats import StatsCatalog

__all__ = [
    "AggQuery",
    "Aggregate",
    "AltBranch",
    "AntiJoin",
    "Arith",
    "ChainQuery",
    "Cmp",
    "Col",
    "compile_exists",
    "compile_forall",
    "compile_foreach_domain",
    "compile_set_expr",
    "compile_set_former",
    "Disj",
    "ForallQuery",
    "GroupAgg",
    "GroupBy",
    "HashJoin",
    "Incompilable",
    "Lit",
    "ParamRef",
    "Plan",
    "Project",
    "QueryPlanner",
    "RelQuery",
    "render",
    "Scan",
    "Select",
    "SemiJoin",
    "SetOpQuery",
    "StatsCatalog",
    "Union",
]
