"""repro — a reproduction of "A Transaction Logic for Database Specification"
(Xiaolei Qian & Richard Waldinger, SIGMOD 1988).

A situational transaction logic in which database states and state
transitions are explicit objects: integrity constraints and transactions are
uniformly expressible; constraints classify as static / transaction /
dynamic with analyzable checkability; transactions verify against
constraints by regression + resolution + model checking, and synthesize from
declarative specifications by goal planning with constraint repairs.

Quick tour::

    from repro import Database, make_domain

    domain = make_domain()
    domain.install_constraints()
    db = Database(domain.schema, window=2, initial=domain.sample_state())
    db.execute(domain.hire, "erin", "cs", 90, 25, "S")   # raises: unallocated!

Subsystem map (see DESIGN.md):

* :mod:`repro.logic` — the many-sorted two-layer logic (S1)
* :mod:`repro.theory` — axioms, rewriting, regression (S2)
* :mod:`repro.db` — states, relations, evolution graphs (S3)
* :mod:`repro.transactions` — programs and the interpreter (S4)
* :mod:`repro.constraints` — classification, checking, checkability (S5)
* :mod:`repro.temporal` — FO temporal logic and the δ embedding (S6)
* :mod:`repro.prover` — resolution with answers, tableau, model finding (S7)
* :mod:`repro.verification` — constraint-preservation verification (S8)
* :mod:`repro.synthesis` — transaction synthesis with repairs (S9)
* :mod:`repro.domains` — the paper's employee database (S10)
* :mod:`repro.lang` — the surface syntax (S11)
* :mod:`repro.concurrent` — optimistic parallel scheduling + serial replay (S12)
* :mod:`repro.storage` — write-ahead journal, checkpoints, crash recovery (S13)
* :mod:`repro.obs` — tracing, metrics, profiling hooks (S14)
* :mod:`repro.server` — the multi-tenant wire server, client, and REPL (S17)
* :mod:`repro.sharding` — footprint-routed shards, 2PC, read replicas (S19)
"""

from repro.concurrent import (
    AdmissionController,
    CircuitBreaker,
    CommitRecord,
    ConcurrencyStats,
    Deadline,
    ReadWriteSet,
    RetryPolicy,
    TrackingInterpreter,
    TransactionManager,
    TransactionOutcome,
    TransactionStatus,
    states_equivalent,
)

from repro.constraints import (
    Constraint,
    ConstraintKind,
    Window,
    analyze,
    check_history,
    check_state,
    check_transition,
    classify,
    constraint,
    validate_window,
)
from repro.db import (
    DBTuple,
    EvolutionGraph,
    History,
    Relation,
    RelationSchema,
    Schema,
    State,
    Transition,
    TupleSet,
    chain_graph,
    initial_state,
    make_tuple,
    state_from_rows,
)
from repro.domains import EmployeeDomain, make_domain
from repro.engine import Database, UnenforcedConstraintWarning
from repro.errors import (
    BudgetExceeded,
    Cancelled,
    CheckabilityError,
    CircuitOpen,
    ConstraintViolation,
    EvaluationError,
    ExecutabilityError,
    Fenced,
    InDoubt,
    OrderDependenceError,
    Overloaded,
    ParseError,
    PlanError,
    PlannerMismatch,
    ProofError,
    ProtocolError,
    ReplicaLagExceeded,
    ReproError,
    ResourceError,
    RetryExhausted,
    SchedulerClosed,
    SchemaError,
    SessionClosed,
    ShardError,
    ShardUnavailable,
    SortError,
    SynthesisError,
    TransactionConflict,
    UnboundVariableError,
    UndefinedFluentError,
)
from repro.algebra import Plan, QueryPlanner
from repro.lang import parse, parse_formula, parse_transaction
from repro.obs import (
    MetricsRegistry,
    Profile,
    Span,
    Tracer,
    profile_from_json,
)
from repro.server import Client, ClientRetry, TenantConfig, TransactionServer
from repro.sharding import (
    Coordinator,
    Replica,
    ShardPlan,
    ShardedDatabase,
    TwoPhaseFaults,
    plan_placement,
    resolve_in_doubt,
)
from repro.storage import (
    Journal,
    JournalRecord,
    Recovery,
    Store,
    state_digest,
)
from repro.transactions import (
    Budget,
    CancelToken,
    DatabaseProgram,
    Env,
    Interpreter,
    evaluate,
    execute,
    is_executable,
    query,
    satisfies,
    transaction,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "SortError", "EvaluationError", "ExecutabilityError",
    "UndefinedFluentError", "UnboundVariableError", "OrderDependenceError",
    "ConstraintViolation", "CheckabilityError", "ProofError",
    "SynthesisError", "ParseError", "SchemaError",
    "TransactionConflict", "RetryExhausted",
    "ResourceError", "BudgetExceeded", "Cancelled",
    "Overloaded", "CircuitOpen", "SchedulerClosed",
    "ProtocolError", "SessionClosed",
    "PlanError", "PlannerMismatch",
    "ShardError", "InDoubt", "ReplicaLagExceeded",
    "Fenced", "ShardUnavailable",
    # db
    "Schema", "RelationSchema", "State", "Relation", "DBTuple", "TupleSet",
    "make_tuple", "initial_state", "state_from_rows",
    "History", "EvolutionGraph", "Transition", "chain_graph",
    # transactions
    "DatabaseProgram", "transaction", "query", "Interpreter", "Env",
    "evaluate", "satisfies", "execute", "is_executable",
    # constraints
    "Constraint", "ConstraintKind", "Window", "constraint", "classify",
    "analyze", "check_state", "check_history", "check_transition",
    "validate_window",
    # engine, domain, lang
    "Database", "UnenforcedConstraintWarning", "EmployeeDomain", "make_domain",
    "parse", "parse_formula", "parse_transaction",
    # concurrent
    "TransactionManager", "TransactionOutcome", "TransactionStatus",
    "RetryPolicy", "Deadline", "CommitRecord",
    "TrackingInterpreter", "ReadWriteSet", "ConcurrencyStats",
    "states_equivalent",
    "AdmissionController", "CircuitBreaker",
    # governance
    "Budget", "CancelToken",
    # storage
    "Store", "Recovery", "Journal", "JournalRecord", "state_digest",
    # algebra / planning
    "QueryPlanner", "Plan",
    # observability
    "MetricsRegistry", "Tracer", "Span", "Profile", "profile_from_json",
    # server
    "TransactionServer", "TenantConfig", "Client", "ClientRetry",
    # sharding
    "ShardedDatabase", "Replica", "ShardPlan", "plan_placement",
    "Coordinator", "TwoPhaseFaults", "resolve_in_doubt",
]
