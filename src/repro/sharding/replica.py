"""WAL-shipped read replicas: serve stale snapshots from a shard's journal.

A :class:`Replica` opens a shard's store directory **read-only** and tails
its write-ahead journal — the same "WAL shipping" real systems do, except
the filesystem is the ship.  Each :meth:`Replica.poll` re-scans the journal
and folds the new records into the
:class:`~repro.storage.store.ReplayFold` that
:meth:`~repro.storage.store.Store.recover` runs: commits apply, PREPAREs
are stashed and resolved only at their OUTCOME (so an uncommitted 2PC write
is never exposed, even transiently), and a journal the primary truncated
past the replica's position re-bases it on the newest valid snapshot.

The replica is therefore always a *prefix* of the primary's run — the
freshness contract is bounded staleness, not recency.  :meth:`Replica.lag`
measures the gap in journal records; :meth:`Replica.query` refuses with the
typed :class:`~repro.errors.ReplicaLagExceeded` when the gap exceeds the
caller's bound, instead of silently answering from the distant past.
Queries evaluate as on a :class:`~repro.engine.Database`: through an
interpreter that plans by default (``interpreter=Interpreter()`` walks).

>>> import tempfile
>>> from repro.domains import make_domain
>>> from repro.engine import Database
>>> from repro.logic import builder as b
>>> from repro.transactions.program import query
>>> domain = make_domain()
>>> db = Database(domain.schema, initial=domain.sample_state())
>>> path = tempfile.mkdtemp()
>>> _ = db.durable(path)
>>> replica = Replica(path)
>>> _ = db.execute(domain.create_project, "web", 50)
>>> replica.lag()
1
>>> _ = replica.poll()
>>> replica.lag()
0
>>> n_projects = query("n_projects", (), b.size_of(b.rel("PROJ", 2)))
>>> replica.query(n_projects)
4
>>> replica.query(n_projects, max_lag=0)
4
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.algebra.planner import QueryPlanner
from repro.db.state import State
from repro.errors import ReplicaLagExceeded, ReproError, ShardError
from repro.obs.metrics import MetricsRegistry
from repro.storage.journal import JournalScan, read_journal
from repro.storage.snapshot import newest_snapshot, snapshot_files
from repro.storage.store import JOURNAL_NAME, ReplayFold, Store
from repro.transactions.interpreter import Interpreter
from repro.transactions.program import DatabaseProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sharding.twopc import Coordinator

#: Default staleness bound: how many journal records a replica may trail
#: the primary by before queries refuse (override per-query via
#: ``max_lag``).
DEFAULT_MAX_LAG = 1024


@dataclass(frozen=True)
class Promotion:
    """What :meth:`Replica.promote` produced: the shard's new primary run.

    ``store`` is an open :class:`~repro.storage.Store` holding the new
    fence epoch — hand it to the router as the shard's journal.  ``state``
    / ``seq`` are the post-resolution head; ``resolutions`` records each
    stashed prepare's fate as ``(txid, decision, why)``, in stash order.
    """

    path: str
    epoch: int
    seq: int
    state: State
    resolutions: tuple[tuple[str, str, str], ...]
    store: Store

    def summary(self) -> str:
        fates = ", ".join(
            f"{txid}:{decision}" for txid, decision, _ in self.resolutions
        ) or "none"
        return (
            f"promoted {self.path} to epoch {self.epoch} at seq={self.seq} "
            f"(in-doubt: {fates})"
        )


class Replica:
    """A read-only follower of one store directory.

    The replica never writes to the store: it shares the directory with a
    live primary (same filesystem) or a shipped copy of it, and relies on
    the journal's prefix property for consistency — every state it serves
    is a state the primary actually committed.
    """

    def __init__(
        self,
        path: str,
        *,
        max_lag: int = DEFAULT_MAX_LAG,
        interpreter: Optional[Interpreter] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.max_lag = max_lag
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if interpreter is None:
            interpreter = Interpreter(planner=QueryPlanner(metrics=self.metrics))
        self.interpreter = interpreter
        try:
            base = newest_snapshot(self.path)
        except FileNotFoundError:
            raise ShardError(f"no store directory at {self.path}") from None
        if base is None:
            raise ShardError(
                f"replica found no valid snapshot under {self.path}"
            )
        self._fold = ReplayFold(base[1], base[0])
        self._scan: Optional[JournalScan] = None
        self.poll()

    # -- plumbing ----------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.path, JOURNAL_NAME)

    @property
    def state(self) -> State:
        return self._fold.state

    @property
    def applied_seq(self) -> int:
        return self._fold.seq

    @property
    def journal_epoch(self) -> int:
        """Highest journal epoch replayed so far."""
        return self._fold.epoch

    # -- following ---------------------------------------------------------

    def poll(self) -> int:
        """Scan the journal and apply everything new; returns the number of
        records applied.  Safe to call from a timer at any frequency.  A
        record the fold refuses stops replay before it, as in recovery."""
        self.metrics.counter(
            "repro_replica_polls_total", "replica journal scans"
        ).inc()
        scan = read_journal(self.journal_path)
        first = scan.records[0].seq if scan.records else None
        if (first is None or first > self.applied_seq + 1) and self._ahead():
            # The journal does not reach back to our position (the primary
            # checkpointed and truncated it): re-base on the newer snapshot,
            # then fold in whatever tail remains.
            base = newest_snapshot(self.path)
            if base is not None and base[0] > self.applied_seq:
                self._fold = ReplayFold(base[1], base[0])
        applied, _ = self._fold.replay(scan.records)
        self._scan = scan
        if applied:
            self.metrics.counter(
                "repro_replica_applied_total", "journal records applied"
            ).inc(len(applied))
        self.metrics.gauge(
            "repro_replica_lag_records",
            "journal records the replica trails the primary by",
        ).set(float(self.lag(_scan=scan)))
        return len(applied)

    def lag(self, *, _scan: Optional[JournalScan] = None) -> int:
        """How many durable journal records the replica has not applied."""
        scan = _scan if _scan is not None else read_journal(self.journal_path)
        if not scan.records:
            # Journal truncated past us entirely: the newest snapshot's
            # sequence bounds how far behind we are.
            return self._ahead()
        return sum(1 for r in scan.records if r.seq > self.applied_seq)

    def _ahead(self) -> int:
        """How many commits the newest snapshot on disk is past us."""
        newest = snapshot_files(self.path)
        return max(0, newest[0][0] - self.applied_seq) if newest else 0

    def pending(self) -> tuple[str, ...]:
        """Txids of stashed PREPAREs still awaiting an outcome record, in
        journal order.  Non-empty means the primary (or its promotion) has
        an in-doubt window the replica is faithfully *not* serving."""
        return tuple(self._fold.pending)

    # -- serving -----------------------------------------------------------

    def query(
        self,
        program: DatabaseProgram,
        *args: object,
        max_lag: Optional[int] = None,
        budget=None,
    ) -> object:
        """Answer ``program`` from the replica's snapshot.

        ``max_lag`` bounds acceptable staleness in journal records
        (defaulting to the replica's configured bound); exceeding it raises
        :class:`~repro.errors.ReplicaLagExceeded` rather than answering.
        The replica polls before checking, so a bound of 0 means "only if
        fully caught up *now*"."""
        self.poll()
        bound = self.max_lag if max_lag is None else max_lag
        behind = self.lag(_scan=self._scan)
        if behind > bound:
            self._count_query("refused")
            raise ReplicaLagExceeded(
                applied=self.applied_seq,
                primary=self.applied_seq + behind,
                max_lag=bound,
            )
        try:
            value = program.query(
                self.state, *args, interpreter=self.interpreter.metered(budget)
            )
        except ReproError:
            self._count_query("error")
            raise
        self._count_query("ok")
        return value

    def _count_query(self, status: str) -> None:
        self.metrics.counter(
            "repro_replica_queries_total",
            "replica queries by outcome",
            status=status,
        ).inc()

    # -- promotion ---------------------------------------------------------

    def promote(
        self,
        *,
        coordinator: "Optional[Coordinator]" = None,
        decisions: Optional[dict] = None,
        applied: Optional[dict] = None,
        sync: str = "commit",
        checkpoint_every: int = 64,
        keep_snapshots: int = 2,
    ) -> Promotion:
        """Become the shard's new primary: fence, drain, resolve, re-seed.

        The handoff is logical-time, not a data copy — a replica that has
        replayed the journal prefix *is* the state machine.  Steps:

        1. **Fence** (:meth:`~repro.storage.store.Store.advance_fence`):
           from here on every append by the old primary raises
           :class:`~repro.errors.Fenced`.
        2. **Drain.**  Re-poll to the journal's durable end, then truncate
           the journal to the applied prefix, as recovery would stop.
        3. **Resolve** each stashed PREPARE with
           :func:`~repro.sharding.twopc.resolve_pending`, the resolver
           :meth:`ShardedDatabase.recover` runs.
        4. **Re-seed.**  A checkpoint at the resolved head becomes the
           snapshot fresh replicas re-base from.

        Returns a :class:`Promotion` whose open ``store`` is the shard's
        new journal writer at the new epoch.
        """
        from repro.sharding.twopc import resolve_pending

        store = Store(
            self.path,
            checkpoint_every=checkpoint_every,
            sync=sync,
            keep_snapshots=keep_snapshots,
            metrics=self.metrics,
        )
        # 1. Fence: depose every older writer before reading the final tail.
        new_epoch = store.advance_fence()

        # 2. Drain to the durable end, then truncate to the applied prefix.
        self.poll()
        store.journal.replace_with(
            tuple(r for r in self._scan.records if r.seq <= self.applied_seq)
        )

        # 3. Resolve every stashed prepare, durably, in journal order.
        state, seq, resolutions = resolve_pending(
            store,
            self.state,
            self.applied_seq,
            self._fold.pending.values(),
            applied=dict(applied or {}),
            metrics=self.metrics,
            coordinator=coordinator,
            decisions=decisions,
        )
        self._fold = ReplayFold(state, seq)
        self._fold.epoch = new_epoch

        # 4. First checkpoint of the new epoch: the snapshot fresh replicas
        # re-seed from (and the truncation that retires the old journal).
        store.checkpoint(state, seq)
        self.metrics.counter(
            "repro_failover_promotions_total",
            "replicas promoted to shard primary",
        ).inc()
        return Promotion(
            path=self.path,
            epoch=new_epoch,
            seq=seq,
            state=state,
            resolutions=tuple(resolutions),
            store=store,
        )
