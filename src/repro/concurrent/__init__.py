"""Optimistic concurrency over first-class immutable states (S12).

The paper's evolution-graph view makes states values; this subsystem makes
*schedules* values.  Workers evaluate transactions against snapshots with no
locking (:mod:`tracking`), a validate-at-commit scheduler serializes them
(:mod:`scheduler`) with retry/backoff on conflict (:mod:`retry`), every
commit carries a replayable record (:mod:`log`), a metrics surface
watches it all (:mod:`stats`), and admission control plus a conflict-storm
circuit breaker keep it standing under overload (:mod:`admission`).  Entry
point: :meth:`repro.engine.Database.concurrent`.
"""

from repro.concurrent.admission import (
    AdmissionController,
    AdmissionTicket,
    CircuitBreaker,
)
from repro.concurrent.log import CommitRecord, replay_states, states_equivalent
from repro.concurrent.retry import Deadline, RetryPolicy
from repro.concurrent.scheduler import (
    TransactionManager,
    TransactionOutcome,
    TransactionStatus,
)
from repro.concurrent.stats import ConcurrencyStats, StatsSnapshot, quantile
from repro.concurrent.tracking import (
    ReadWriteSet,
    TrackingInterpreter,
    written_relations,
)

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "CircuitBreaker",
    "CommitRecord",
    "ConcurrencyStats",
    "Deadline",
    "ReadWriteSet",
    "RetryPolicy",
    "StatsSnapshot",
    "TrackingInterpreter",
    "TransactionManager",
    "TransactionOutcome",
    "TransactionStatus",
    "quantile",
    "replay_states",
    "states_equivalent",
    "written_relations",
]
