"""Exception hierarchy for the transaction-logic reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Subclasses mirror the subsystems:
sort checking, evaluation, executability, constraint checking, proving,
synthesis, and parsing.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SortError(ReproError):
    """An expression is not well-sorted (wrong argument sort, arity, ...)."""


class EvaluationError(ReproError):
    """An expression could not be evaluated at a state."""


class UnboundVariableError(EvaluationError):
    """A free variable had no binding in the environment."""


class UndefinedFluentError(EvaluationError):
    """A fluent is undefined at the given state.

    The paper makes iteration fluents undefined when the bound set is
    infinite or the result is order-dependent; evaluation raises this.
    """


class OrderDependenceError(UndefinedFluentError):
    """A ``foreach`` fluent's result depends on the enumeration order."""


class ExecutabilityError(ReproError):
    """A program is not an executable transaction (not a sound f-term)."""


class ConstraintViolation(ReproError):
    """A state or transition violates an integrity constraint."""

    def __init__(self, constraint_name: str, message: str = "") -> None:
        self.constraint_name = constraint_name
        detail = f": {message}" if message else ""
        super().__init__(f"integrity constraint {constraint_name!r} violated{detail}")


class CheckabilityError(ReproError):
    """A constraint cannot be checked with the maintained history."""


class TransactionConflict(ReproError):
    """An optimistically executed transaction could not commit: its read or
    write footprint overlaps a write set committed since its snapshot."""

    def __init__(self, label: str, relations=(), message: str = "") -> None:
        self.label = label
        self.relations = frozenset(relations)
        rels = ", ".join(sorted(self.relations)) or "?"
        detail = f": {message}" if message else ""
        super().__init__(
            f"transaction {label!r} conflicts on {{{rels}}}{detail}"
        )


class RetryExhausted(TransactionConflict):
    """A conflicted transaction ran out of retry budget (attempts or
    deadline) and was permanently aborted."""

    def __init__(self, label: str, relations=(), attempts: int = 0) -> None:
        self.attempts = attempts
        super().__init__(
            label, relations, f"gave up after {attempts} attempt(s)"
        )


class ResourceError(ReproError):
    """Resource governance rejected or interrupted work.

    The branch of the taxonomy for *graceful degradation*: nothing is wrong
    with the program's logic — the engine refused to spend (more) resources
    on it.  Subclasses say which governor fired: an evaluation budget
    (:class:`BudgetExceeded`), a cooperative cancellation
    (:class:`Cancelled`), admission control (:class:`Overloaded`), the
    conflict-storm circuit breaker (:class:`CircuitOpen`), or a scheduler
    that is no longer accepting work (:class:`SchedulerClosed`).
    """


class BudgetExceeded(ResourceError, EvaluationError):
    """An evaluation ran past its :class:`~repro.transactions.budget.Budget`.

    Also an :class:`EvaluationError`: the interpreter raises it *mid-
    evaluation* (at the ``_touch``/span seams), so a runaway ``foreach`` or
    a combinatorial set former aborts instead of pinning a worker.
    ``resource`` names the exhausted dimension (``steps``, ``foreach``,
    ``derived-set``, or ``deadline``).
    """

    def __init__(self, resource: str, limit: float, used: float) -> None:
        self.resource = resource
        self.limit = limit
        self.used = used
        super().__init__(
            f"evaluation budget exceeded: {resource} used {used:g} "
            f"of {limit:g}"
        )


class Cancelled(ResourceError, EvaluationError):
    """A cooperative :class:`~repro.transactions.budget.CancelToken` fired.

    Raised at the next budget checkpoint after the token was cancelled —
    evaluation stops cleanly between steps, never mid-action.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        self.reason = reason
        super().__init__(f"evaluation cancelled: {reason}")


class Overloaded(ResourceError):
    """Admission control shed this submission: the pending queue is full.

    Carries the observed queue ``depth``, the configured ``limit``, and a
    ``retry_after`` hint (seconds) for the client's backoff.
    """

    def __init__(self, depth: int, limit: int, retry_after: float = 0.0) -> None:
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"scheduler overloaded: {depth} pending (limit {limit}); "
            f"retry after {retry_after:.3f}s"
        )


class CircuitOpen(ResourceError):
    """The conflict-storm circuit breaker is open: submissions are refused
    until the cooldown elapses and half-open probes succeed.

    ``retry_after`` hints when the breaker will admit probes again.
    """

    def __init__(self, retry_after: float = 0.0, detail: str = "") -> None:
        self.retry_after = retry_after
        extra = f" ({detail})" if detail else ""
        super().__init__(
            f"circuit breaker open{extra}; retry after {retry_after:.3f}s"
        )


class SchedulerClosed(ResourceError):
    """A transaction was submitted to a closed :class:`~repro.concurrent.
    scheduler.TransactionManager` — closing is final; make a new manager."""

    def __init__(self, message: str = "transaction manager is closed") -> None:
        super().__init__(message)


class ProtocolError(ReproError):
    """A wire frame or message violated the transaction-server protocol.

    Raised for a bad frame marker, a CRC mismatch, an implausible length,
    an undecodable payload, a message of unknown type, or a handshake with
    an incompatible protocol version.  The server answers with a structured
    error frame and closes *that* connection only — a garbage frame never
    poisons other sessions.
    """


class SessionClosed(ResourceError):
    """The server session ended while a request was in flight.

    Raised client-side when the server shut down (it resolves every
    in-flight request with this error before closing the socket) or when
    the connection was lost mid-request — never surfaced as a bare
    ``ConnectionResetError``.  A :class:`ResourceError` because nothing is
    wrong with the request itself: reconnect and resubmit.
    """

    def __init__(self, message: str = "server session closed") -> None:
        super().__init__(message)


class ShardError(ReproError):
    """A sharded-database operation failed at the sharding layer.

    The base of the horizontal-scale branch: routing refusals, allocator
    exhaustion, a coordinator that is no longer usable after a simulated
    crash, or a cross-shard apply that diverged from its rehearsal.  The
    two interesting subclasses are :class:`InDoubt` (a two-phase commit
    interrupted between PREPARE and the applied decision) and
    :class:`ReplicaLagExceeded` (a stale read outside its freshness bound).
    """


class InDoubt(ShardError):
    """A cross-shard transaction crashed mid-2PC; its fate is on disk, not
    in this process.

    Raised when a (simulated or real) coordinator crash interrupts the
    prepare→decide→apply window.  **Not** a :class:`ResourceError`: the
    client must not blindly resubmit — the transaction may have committed.
    ``recover()`` resolves it deterministically from the decision journal
    (decision record ⇒ follow it; no decision ⇒ presumed abort), after
    which ``resolved_decision`` of the recovery report says what happened.
    """

    def __init__(self, txid: str, point: str = "", decided: bool = False) -> None:
        self.txid = txid
        self.point = point
        self.decided = decided
        where = f" at {point}" if point else ""
        fate = (
            "decision durable; recovery will commit it"
            if decided
            else "no durable decision; recovery will presume abort"
        )
        super().__init__(
            f"transaction {txid!r} in doubt{where} ({fate})"
        )


class Fenced(ShardError):
    """A deposed shard primary's write was refused by the fencing token.

    When a replica is promoted (:meth:`repro.sharding.replica.Replica.
    promote`), it bumps the shard's durable *fence epoch*; every journal
    append and 2PC PREPARE from then on must carry at least that epoch.
    A zombie old primary — a process that lost the shard but does not yet
    know it — fails the fence check and gets this error instead of
    silently diverging the journal.

    **Not** a :class:`ResourceError`: retrying cannot succeed.  The writer
    has been deposed; the only correct reaction is to stop serving the
    shard and re-route to the new primary.
    """

    def __init__(
        self, path: str, writer_epoch: int, fence_epoch: int
    ) -> None:
        self.path = path
        self.writer_epoch = writer_epoch
        self.fence_epoch = fence_epoch
        super().__init__(
            f"store {path} is fenced at epoch {fence_epoch}; this writer "
            f"holds deposed epoch {writer_epoch} — a replica was promoted"
        )


class ShardUnavailable(ShardError, ResourceError):
    """A transaction touched a shard whose primary is unavailable.

    Raised by routing while the failure detector holds the shard SUSPECT
    or DOWN, and by a cross-shard 2PC that discovered a dead participant
    *before* the decision point (the coordinator presumed abort durably
    first, so resubmitting is safe).  Also a :class:`ResourceError`:
    nothing is wrong with the transaction — retry after ``retry_after``
    seconds, by which time failover has usually promoted a replica.
    """

    def __init__(
        self, shard: int, retry_after: float = 0.0, state: str = "down"
    ) -> None:
        self.shard = shard
        self.retry_after = retry_after
        self.state = state
        super().__init__(
            f"shard {shard} unavailable ({state}); "
            f"retry after {retry_after:.3f}s"
        )


class ReplicaLagExceeded(ShardError, ResourceError):
    """A replica's snapshot is staler than the query's freshness bound.

    Also a :class:`ResourceError`: nothing is wrong with the query — the
    replica has fallen behind its primary's journal.  Retry after the
    replica catches up (``poll()``), or re-route to the primary.  Carries
    the replica's applied sequence, the primary sequence it knows about,
    and the bound that was violated.
    """

    def __init__(self, applied: int, primary: int, max_lag: int) -> None:
        self.applied = applied
        self.primary = primary
        self.max_lag = max_lag
        super().__init__(
            f"replica lag {primary - applied} records (applied {applied}, "
            f"primary {primary}) exceeds bound {max_lag}"
        )


class ProofError(ReproError):
    """The prover failed (resource limits, malformed input, ...)."""


class SynthesisError(ReproError):
    """No transaction could be synthesized from the specification."""


class ParseError(ReproError):
    """The surface syntax could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        where = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{where}")


class SchemaError(ReproError):
    """A relation schema is malformed or inconsistent with its use."""


class PlanError(ReproError):
    """A query could not be compiled to a relational-algebra plan.

    Raised by :mod:`repro.algebra` when compilation is *requested* (e.g.
    ``compile_query(..., require=True)`` or ``plan.explain()`` on an
    inexpressible formula) rather than attempted opportunistically — the
    interpreter's planner hook never raises it, it silently falls back to
    tree-walk evaluation.  Carries the first blocking ``reason``.
    """

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(f"not compilable to algebra: {reason}")


class PlannerMismatch(PlanError):
    """Verify mode caught the planner disagreeing with the tree-walk oracle.

    Raised only by a planner installed with ``verify=True``
    (:meth:`Database.enable_planner`) — the test seam that runs the walk
    behind every planned answer.  Production databases plan without it;
    the agreement tests referee the planner against the walk instead.
    """

    def __init__(self, detail: str) -> None:
        self.detail = detail
        self.reason = detail
        ReproError.__init__(self, f"planner/tree-walk mismatch: {detail}")
