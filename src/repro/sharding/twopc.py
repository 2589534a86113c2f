"""The two-phase-commit coordinator: a durable decision journal.

The protocol (driven by :class:`~repro.sharding.sharded.ShardedDatabase`,
which holds every participant's commit lock for the whole window):

1. **Rehearse** — every participant validates its slice of the post-state
   (:meth:`repro.engine.Database.rehearse`) before anything touches disk.
   A constraint violation aborts here, with nothing journaled anywhere.
2. **Prepare** — each writing participant journals a PREPARE record
   (staged delta, integrity digest) to its *own* CRC journal.  A prepare is
   a promise: the participant can no longer unilaterally abort.
3. **Decide** — the coordinator appends a DECISION record to its own
   journal and fsyncs it.  This single append is the commit point of the
   whole distributed transaction.
4. **Apply** — each participant's ``Database.apply(prepared=...)`` commits
   the staged delta and journals an OUTCOME referencing its prepare.

Crash anywhere and :meth:`ShardedDatabase.recover` resolves every in-doubt
prepare by the prefix property of the journals: a durable decision record
(or an already-applied outcome on any sibling shard) dictates the fate;
**no decision means presumed abort**, which is sound because step 4 never
starts before step 3's fsync returns — an applied outcome without a
durable decision cannot exist.

Fault injection for the chaos harness and the recovery tests goes through
:class:`TwoPhaseFaults`: named crash points (``prepare:<k>``,
``before-decision``, ``after-decision``, ``outcome:<k>``) raise
:class:`SimulatedCrash` inside the window, which the sharded database
converts into :class:`~repro.errors.InDoubt` after marking itself dead —
exactly the observable contract of a real process kill.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.db.state import State
from repro.errors import ReproError, ShardError
from repro.storage.journal import Journal, JournalRecord, read_journal
from repro.storage.serialize import apply_delta
from repro.storage.store import Store, prepare_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

DECISIONS_NAME = "decisions.log"
EPOCH_NAME = "epoch"


class SimulatedCrash(Exception):
    """A test-injected process death inside the 2PC window.

    Deliberately **not** a :class:`~repro.errors.ReproError`: it models the
    process vanishing, not the engine answering.  The sharded database
    catches it at the 2PC boundary, marks itself crashed, and surfaces the
    typed :class:`~repro.errors.InDoubt` to the caller.
    """

    def __init__(self, point: str) -> None:
        self.point = point
        super().__init__(f"simulated crash at {point}")


@dataclass
class TwoPhaseFaults:
    """Deterministic crash points for one cross-shard commit window.

    ``crash_at`` names the point to die at: ``prepare:<k>`` (after the
    k-th participant's PREPARE reached its journal), ``before-decision``,
    ``after-decision`` (decision durable, nothing applied), or
    ``outcome:<k>`` (after the k-th participant applied and journaled its
    outcome).  ``abort_txn`` forces the coordinator to decide ``abort``
    after all prepares — exercising the abort-outcome path without any
    constraint violation.

    ``kill_primary_at`` is the failover layer's fault: instead of the
    whole process dying, one shard *primary* dies at the named point —
    the sharded database detaches that shard's engine and store in place
    (:meth:`~repro.sharding.sharded.ShardedDatabase.kill_shard`) and
    appends the zombie handle to ``killed``.  ``kill_writer`` picks which
    writer's primary dies (clamped to the writer list).  Unlike
    ``crash_at``, the surviving process keeps running: the 2PC window
    finishes by presumed abort (before the decision) or commits on the
    live writers (after it), and the dead shard heals by promotion.
    """

    crash_at: Optional[str] = None
    abort_txn: bool = False
    fired: list[str] = field(default_factory=list)
    kill_primary_at: Optional[str] = None
    kill_writer: int = 0
    killed: list = field(default_factory=list)

    def reach(self, point: str) -> None:
        self.fired.append(point)
        if self.crash_at == point:
            raise SimulatedCrash(point)


class Coordinator:
    """Owns transaction identity and the durable decision journal.

    ``path`` is a directory; decisions append to ``decisions.log`` using
    the same CRC framing as the shard journals, so a torn decision record
    truncates to a valid prefix exactly like a torn commit.  A coordinator
    opened over an existing journal re-reads every decision and starts a
    fresh *epoch* (one EPOCH record per open), so transaction ids are
    unique across crashes — a stale decision record can never resolve a
    later transaction that happened to reuse a counter.

    With ``path=None`` the coordinator is in-memory: cross-shard commits
    still two-phase through it, but nothing survives the process (matching
    a non-durable :class:`~repro.sharding.sharded.ShardedDatabase`).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        sync: str = "commit",
        metrics=None,
    ) -> None:
        self.path = path
        self.metrics = metrics
        self._decisions: dict[str, str] = {}
        self._journal: Optional[Journal] = None
        self._seq = 0
        self._counter = 0
        if path is not None:
            os.makedirs(path, exist_ok=True)
            journal_path = os.path.join(path, DECISIONS_NAME)
            scan = read_journal(journal_path)
            for record in scan.records:
                self._seq = max(self._seq, record.seq)
                if record.kind == "decision" and record.txid is not None:
                    self._decisions[record.txid] = record.delta.get(
                        "decision", "abort"
                    )
            self._journal = Journal(journal_path, sync=sync, metrics=metrics)
            # The epoch lives in its own atomically-replaced file, NOT in
            # the journal's max sequence: a torn journal tail would roll a
            # seq-derived epoch back and let txids collide across crashes,
            # at which point a stale outcome record could resolve a later
            # in-doubt transaction the wrong way.
            self.epoch = max(self._read_epoch(), self._seq) + 1
            self._write_epoch(self.epoch)
            self._append("epoch", txid=None, delta={}, label="epoch")
        else:
            self.epoch = 1

    @property
    def _epoch_path(self) -> str:
        return os.path.join(self.path, EPOCH_NAME)

    def _read_epoch(self) -> int:
        try:
            with open(self._epoch_path, "r", encoding="ascii") as fh:
                return int(fh.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def _write_epoch(self, epoch: int) -> None:
        tmp = self._epoch_path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(str(epoch))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._epoch_path)

    # -- identity ----------------------------------------------------------

    def next_txid(self, label: str = "tx") -> str:
        """A transaction id unique across every epoch of this coordinator."""
        self._counter += 1
        return f"e{self.epoch}-{self._counter}-{label}"

    # -- decisions ---------------------------------------------------------

    def decide(
        self, txid: str, decision: str, *, shards: tuple[int, ...] = ()
    ) -> None:
        """Durably record the fate of ``txid`` — the 2PC commit point."""
        if decision not in ("commit", "abort"):
            raise ReproError(f"unknown 2PC decision {decision!r}")
        existing = self._decisions.get(txid)
        if existing is not None and existing != decision:
            raise ShardError(
                f"transaction {txid!r} already decided {existing!r}; "
                f"refusing contradictory {decision!r}"
            )
        if existing is None:
            self._append(
                "decision",
                txid=txid,
                delta={"decision": decision, "shards": list(shards)},
                label=f"decide-{decision}",
            )
            self._decisions[txid] = decision
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_shard_decisions_total",
                    "2PC decision records written",
                    decision=decision,
                ).inc()

    def decision_for(self, txid: str) -> Optional[str]:
        return self._decisions.get(txid)

    def decisions(self) -> dict[str, str]:
        return dict(self._decisions)

    # -- plumbing ----------------------------------------------------------

    def _append(self, kind: str, *, txid, delta, label) -> None:
        self._seq += 1
        if self._journal is None:
            return
        record = JournalRecord(
            seq=self._seq,
            label=label,
            program=None,
            args=(),
            snapshot_version=None,
            delta=delta,
            post_digest=prepare_digest(delta),
            kind=kind,
            txid=txid,
        )
        self._journal.append(record)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()


def resolve_in_doubt(
    txid: str,
    coordinator_decisions: dict[str, str],
    applied_outcomes: dict[str, str],
) -> tuple[str, str]:
    """The in-doubt resolution rule (DESIGN.md §7.7), as a pure function.

    Returns ``(decision, why)``.  Priority: the coordinator's durable
    decision record; else any sibling shard's already-applied outcome for
    the same transaction (only possible if a decision *was* durable and the
    decision journal was later lost — the outcomes are its witnesses); else
    presumed abort.

    >>> resolve_in_doubt("t1", {"t1": "commit"}, {})
    ('commit', 'coordinator decision record')
    >>> resolve_in_doubt("t2", {}, {"t2": "commit"})
    ('commit', 'applied outcome on a sibling shard')
    >>> resolve_in_doubt("t3", {}, {})
    ('abort', 'presumed abort (no durable decision)')
    """
    decided = coordinator_decisions.get(txid)
    if decided is not None:
        return decided, "coordinator decision record"
    applied = applied_outcomes.get(txid)
    if applied is not None:
        return applied, "applied outcome on a sibling shard"
    return "abort", "presumed abort (no durable decision)"


def applied_outcomes(records: Iterable[JournalRecord]) -> dict[str, str]:
    """Evidence rule 2: the decision each OUTCOME in ``records`` applied.
    An outcome some shard already applied proves the decision was durable,
    even if the decision journal was later lost."""
    return {
        record.txid: record.delta.get("decision", "abort")
        for record in records
        if record.kind == "outcome" and record.txid is not None
    }


def resolve_pending(
    store: Store,
    state: State,
    pending: Iterable[JournalRecord],
    *,
    applied: dict[str, str],
    metrics: "MetricsRegistry",
    coordinator: Optional[Coordinator] = None,
    decisions: Optional[dict[str, str]] = None,
    shards: tuple[int, ...] = (),
) -> tuple[State, list[tuple[str, str, str]]]:
    """Settle one shard's in-doubt prepares in journal order — the resolver
    :meth:`ShardedDatabase.recover` and
    :meth:`~repro.sharding.replica.Replica.promote` share.  Per prepare:
    :func:`resolve_in_doubt`, the decision made durable *first* (so a crash
    re-resolves identically), the delta applied on ``commit``, an OUTCOME
    journaled (``store`` numbers it, and takes no checkpoint while a
    prepare is pending).  Returns the resolved head and one
    ``(txid, decision, why)`` each; ``applied`` gains every settled txid.
    """
    known = coordinator.decisions() if coordinator is not None else decisions
    resolutions: list[tuple[str, str, str]] = []
    for prep in pending:
        decision, why = resolve_in_doubt(prep.txid, known or {}, applied)
        if coordinator is not None:
            coordinator.decide(prep.txid, decision, shards=shards)
        if decision == "commit":
            state = apply_delta(state, prep.delta)
        store.log_outcome(state, prep, decision)
        applied[prep.txid] = decision
        resolutions.append((prep.txid, decision, why))
        metrics.counter(
            "repro_shard_in_doubt_resolved_total",
            "in-doubt 2PC transactions resolved during recovery",
            decision=decision,
        ).inc()
    return state, resolutions
