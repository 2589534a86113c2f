"""A lightweight metrics surface for the optimistic scheduler.

Counters and commit-latency quantiles, safely updatable from many worker
threads and snapshottable without stopping the world.  The numbers mirror
the knobs an operator tunes: a high conflict rate means the workload's
footprints overlap (shrink transactions or partition relations), rising
retries mean backoff is too aggressive or too timid, and the latency tail
shows what validation plus constraint checking cost under contention.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry


def quantile(
    values: Sequence[float], q: float, default: Optional[float] = None
) -> float:
    """Nearest-rank quantile of an (unsorted) sequence.

    Small windows are well-defined at every ``q``: one sample is every
    quantile of itself, two samples split at ``q = 0.5`` (nearest-rank
    rounds up).  An empty sequence has no quantiles — it returns
    ``default`` when one is given, else raises.  Callers with a latency
    window that may not have filled yet (a p95/p99 of "no commits so far")
    should pass ``default=0.0`` rather than special-casing emptiness.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not values:
        if default is None:
            raise ValueError("quantile of an empty sequence")
        return default
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable point-in-time view of the scheduler's counters."""

    commits: int
    conflicts: int
    retries: int
    aborts: int
    failures: int
    conflict_rate: float
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float = 0.0
    top_conflicts: tuple[tuple[str, int], ...] = field(default=())
    """The most conflicted-on relations as ``(name, count)``, hottest first
    — the operator's partitioning hint (count ties break alphabetically)."""

    def summary(self) -> str:
        text = (
            f"commits={self.commits} conflicts={self.conflicts} "
            f"retries={self.retries} aborts={self.aborts} "
            f"failures={self.failures} "
            f"conflict_rate={self.conflict_rate:.1%} "
            f"latency(mean/p50/p95/p99)="
            f"{self.mean_latency * 1e3:.2f}/"
            f"{self.p50_latency * 1e3:.2f}/"
            f"{self.p95_latency * 1e3:.2f}/"
            f"{self.p99_latency * 1e3:.2f} ms"
        )
        if self.top_conflicts:
            hot = ", ".join(f"{name}:{n}" for name, n in self.top_conflicts)
            text += f" hot_relations=[{hot}]"
        return text


class ConcurrencyStats:
    """Thread-safe counters for commits, conflicts, retries, and latency.

    * **commit** — a transaction validated cleanly and advanced the database.
    * **conflict** — one attempt failed validation (footprint overlapped a
      committed write set).
    * **retry** — a conflicted attempt that was rescheduled.
    * **abort** — a transaction that gave up (retry budget or deadline).
    * **failure** — a non-conflict failure (precondition, evaluation, or
      constraint violation); never retried.
    * **backoff** — time a conflicted transaction slept before retrying.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is attached, every
    event is mirrored into it (``repro_commits_total``,
    ``repro_conflicts_total{relation=...}``,
    ``repro_txn_latency_seconds``, ``repro_backoff_seconds``, ...) so the
    scheduler shares one exposition surface with the journal and store.
    Latency lives in one ring-windowed
    :class:`~repro.obs.metrics.Histogram` — the registry's
    ``repro_txn_latency_seconds`` when attached, else a private one — so
    the quantiles cover its most recent window and memory stays flat.
    """

    def __init__(
        self, *, top_k: int = 5, metrics: "Optional[MetricsRegistry]" = None
    ) -> None:
        self._lock = threading.Lock()
        self._commits = 0
        self._conflicts = 0
        self._retries = 0
        self._aborts = 0
        self._failures = 0
        self._backoffs = 0
        self._backoff_total = 0.0
        self._conflict_relations: Counter[str] = Counter()
        self._top_k = top_k
        self.metrics = metrics
        from repro.obs.metrics import Histogram  # import cycle guard

        self._latency = (
            metrics.histogram(
                "repro_txn_latency_seconds", "submit-to-commit wall time"
            )
            if metrics is not None
            else Histogram()
        )

    # -- recording ---------------------------------------------------------

    def record_commit(self, latency: float) -> None:
        with self._lock:
            self._commits += 1
        self._latency.observe(latency)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_commits_total", "transactions committed"
            ).inc()

    def record_conflict(self, relations: Iterable[str] = ()) -> None:
        """Count one failed validation; ``relations`` are the footprint
        members that collided with a committed write set."""
        relations = tuple(relations)
        with self._lock:
            self._conflicts += 1
            self._conflict_relations.update(relations)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_conflicts_total", "validation failures"
            ).inc()
            for name in sorted(set(relations)):
                self.metrics.counter(
                    "repro_relation_conflicts_total",
                    "validation failures by colliding relation",
                    relation=name,
                ).inc()

    def record_retry(self) -> None:
        with self._lock:
            self._retries += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_retries_total", "conflicted attempts rescheduled"
            ).inc()

    def record_backoff(self, pause: float) -> None:
        """One backoff sleep of ``pause`` seconds before a retry."""
        with self._lock:
            self._backoffs += 1
            self._backoff_total += pause
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_backoff_seconds", "retry backoff sleeps"
            ).observe(pause)

    def record_abort(self) -> None:
        with self._lock:
            self._aborts += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_aborts_total", "transactions out of retry budget"
            ).inc()

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_failures_total", "non-conflict transaction failures"
            ).inc()

    # -- reading -----------------------------------------------------------

    @property
    def commits(self) -> int:
        with self._lock:
            return self._commits

    @property
    def conflicts(self) -> int:
        with self._lock:
            return self._conflicts

    def conflicts_by_relation(self) -> dict[str, int]:
        """Per-relation conflict counts (every relation, not just the top),
        name-sorted so callers render identically under any hash seed."""
        with self._lock:
            return dict(sorted(self._conflict_relations.items()))

    @property
    def backoffs(self) -> tuple[int, float]:
        """(count, total seconds) of backoff sleeps so far."""
        with self._lock:
            return self._backoffs, self._backoff_total

    def snapshot(self) -> StatsSnapshot:
        with self._lock:
            commits = self._commits
            conflicts = self._conflicts
            retries = self._retries
            aborts = self._aborts
            failures = self._failures
            by_relation = dict(self._conflict_relations)
        validations = commits + conflicts
        rate = conflicts / validations if validations else 0.0
        latency = self._latency.to_doc()
        observed = latency["count"]
        mean = latency["sum"] / observed if observed else 0.0
        return StatsSnapshot(
            commits=commits,
            conflicts=conflicts,
            retries=retries,
            aborts=aborts,
            failures=failures,
            conflict_rate=rate,
            mean_latency=mean,
            p50_latency=latency["quantiles"]["p50"],
            p95_latency=latency["quantiles"]["p95"],
            p99_latency=latency["quantiles"]["p99"],
            top_conflicts=tuple(
                sorted(by_relation.items(), key=lambda kv: (-kv[1], kv[0]))[
                    : self._top_k
                ]
            ),
        )

    def summary(self) -> str:
        return self.snapshot().summary()
