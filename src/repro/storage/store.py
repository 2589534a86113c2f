"""The durable store: a directory holding one journal plus checkpoints.

Layout of a store directory::

    wal.log                     the write-ahead journal (repro.storage.journal)
    snap-<seq>.ckpt             checkpointed snapshots (repro.storage.snapshot)

The store's contract is the paper's evolution-graph view made persistent: a
database run is a sequence of states ``s0, s1, ..., sn``; the newest valid
snapshot pins some ``sk`` and the journal tail carries the physical deltas
``k+1 .. n``.  :meth:`Store.recover` therefore always re-derives a **prefix
of the run** — committed transactions reappear in commit order, a torn or
corrupt journal tail only shortens the prefix, and nothing outside the
committed chain can ever be produced (each record's ``post_digest`` is
checked as the delta is replayed).

The :class:`Store` numbers the run — every append (COMMIT, PREPARE or
OUTCOME) takes the next :attr:`Store.seq` — and owns the checkpoint
cadence: once ``checkpoint_every`` records were appended since the newest
snapshot, the next COMMIT or OUTCOME that leaves no PREPARE pending (a
snapshot would truncate it) writes a snapshot atomically and truncates the
journal to the records it does not cover (normally none).  Crashing
between those two steps is safe — recovery skips journal records at or
below the snapshot's sequence.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

from repro.db.state import State
from repro.errors import Fenced, ReproError
from repro.storage.journal import Journal, JournalRecord, read_journal
from repro.storage.serialize import (
    SerializationError,
    apply_delta,
    canonical_bytes,
    delta_touched,
    encode_args,
    state_delta,
    touched_digest,
)
from repro.storage.snapshot import (
    newest_snapshot,
    snapshot_filename,
    snapshot_files,
    write_snapshot,
)

JOURNAL_NAME = "wal.log"
FENCE_NAME = "fence"


def read_fence(path: str | os.PathLike) -> int:
    """The store directory's durable fence epoch (1 when no fence file
    exists — plain stores never create one, so the check is one failed
    ``open`` for every database that has never seen a failover)."""
    try:
        with open(
            os.path.join(os.fspath(path), FENCE_NAME), "r", encoding="ascii"
        ) as fh:
            return max(1, int(fh.read().strip() or 1))
    except (OSError, ValueError):
        return 1


def write_fence(path: str | os.PathLike, epoch: int) -> None:
    """Durably set the store's fence epoch (atomic tmp + fsync + replace —
    the same pattern as the coordinator's epoch file).  This single write
    is the fencing point: once it lands, every append from a writer
    holding a smaller epoch is refused with :class:`~repro.errors.Fenced`.
    """
    fence_path = os.path.join(os.fspath(path), FENCE_NAME)
    tmp = fence_path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(str(epoch))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, fence_path)


def prepare_digest(delta: dict) -> str:
    """The integrity digest of a PREPARE record.

    A prepare stages a delta without applying it, so there is no post-state
    to digest; instead the digest covers the staged delta itself, making a
    corrupted prepare detectable before recovery ever considers resolving
    it.
    """
    return hashlib.sha256(canonical_bytes({"prepare": delta})).hexdigest()


class ReplayFold:
    """The run re-derived one journal record at a time — the one reading of
    the journal that :meth:`Store.recover` and
    :class:`~repro.sharding.replica.Replica` share, so a replica that has
    replayed a journal holds exactly the state recovery derives from it.

    ``state`` is the run's state after commit ``seq``.  ``pending`` holds
    the PREPAREs (by txid, in journal order) whose OUTCOME has not been
    folded in: their deltas are **not** in ``state``.  ``epoch`` is the
    highest journal epoch folded in (1 for pre-failover journals); epochs
    never regress, since a smaller one is a deposed primary's zombie.
    """

    def __init__(self, state: State, seq: int) -> None:
        self.state = state
        self.seq = seq
        self.epoch = 1
        self.pending: dict[str, JournalRecord] = {}

    def step(self, record: JournalRecord) -> Optional[str]:
        """Fold in the record after ``seq``: ``None`` when it was applied,
        else why replay must stop before it (nothing is changed then)."""
        if record.seq != self.seq + 1:
            return (
                f"sequence gap: journal resumes at {record.seq} "
                f"but recovery reached {self.seq}"
            )
        record_epoch = record.epoch if record.epoch is not None else 1
        if record_epoch < self.epoch:
            # A frame from a deposed epoch after a newer one: a zombie
            # primary's append that raced the fence.  Never replay it.
            return (
                f"record {record.seq} carries deposed epoch "
                f"{record_epoch} after epoch {self.epoch} (fenced "
                f"zombie append)"
            )
        state = self.state
        if record.kind == "prepare":
            # A staged 2PC delta: verify its integrity, remember it, but
            # do not apply — its fate is the matching outcome's.
            if record.txid is None or record.txid in self.pending:
                return (
                    f"record {record.seq} prepare with "
                    f"{'duplicate' if record.txid else 'missing'} txid"
                )
            if prepare_digest(record.delta) != record.post_digest:
                return f"record {record.seq} prepare digest mismatch"
            self.pending[record.txid] = record
        elif record.kind in ("commit", "outcome"):
            delta, decision, what = record.delta, "commit", "delta"
            if record.kind == "outcome":
                prep = self.pending.get(record.txid or "")
                if prep is None:
                    return (
                        f"record {record.seq} outcome without a pending "
                        f"prepare for txid {record.txid!r}"
                    )
                delta, what = prep.delta, "prepared delta"
                decision = record.delta.get("decision")
                if decision not in ("commit", "abort"):
                    return (
                        f"record {record.seq} outcome with unknown "
                        f"decision {decision!r}"
                    )
            if decision == "commit":
                try:
                    state = apply_delta(state, delta)
                except SerializationError as err:
                    return f"record {record.seq} {what} unreplayable: {err}"
            digest = touched_digest(state, delta_touched(delta))
            if digest != record.post_digest:
                return f"record {record.seq} post-state digest mismatch"
            if record.kind == "outcome":
                del self.pending[record.txid]
        else:
            return f"record {record.seq} has unknown kind {record.kind!r}"
        self.state = state
        self.seq = record.seq
        self.epoch = record_epoch
        return None

    def replay(
        self, records: Iterable[JournalRecord]
    ) -> tuple[list[JournalRecord], Optional[str]]:
        """Fold in every record past ``seq`` (those at or below it are
        already in the state — a snapshot covers them); returns the records
        applied and the stop reason, ``None`` when all of them applied."""
        applied: list[JournalRecord] = []
        for record in records:
            if record.seq <= self.seq:
                continue
            reason = self.step(record)
            if reason is not None:
                return applied, reason
            applied.append(record)
        return applied, None


@dataclass(frozen=True)
class Recovery:
    """What :meth:`Store.recover` re-derived from disk.

    ``state`` equals the run's state after commit ``seq`` —
    ``snapshot_seq`` commits came from the snapshot and
    ``len(replayed)`` more from the journal tail.  ``clean`` is True when
    the journal ended at a frame boundary with no sequence gap or digest
    mismatch; otherwise ``reason`` says where and why replay stopped.

    ``pending`` (in-doubt PREPAREs, their deltas not applied) and
    ``epoch`` are the :class:`ReplayFold`'s at the stop point; the sharding
    layer's ``recover()`` resolves each pending prepare (see
    :mod:`repro.sharding.twopc`).
    """

    state: State
    seq: int
    snapshot_seq: int
    replayed: tuple[JournalRecord, ...]
    clean: bool
    reason: str
    pending: tuple[JournalRecord, ...] = field(default=())
    epoch: int = 1

    def summary(self) -> str:
        status = "clean" if self.clean else f"stopped: {self.reason}"
        in_doubt = (
            f", {len(self.pending)} in-doubt prepare(s)" if self.pending else ""
        )
        return (
            f"recovered to seq={self.seq} "
            f"(snapshot {self.snapshot_seq} + {len(self.replayed)} journal "
            f"records, {status}{in_doubt})"
        )


class Store:
    """A durable home for one database's run, and its one journal writer:
    :meth:`initialize`, :meth:`recover` and :meth:`truncate` set
    :attr:`seq`, and each append advances it by one.

    >>> import tempfile
    >>> from repro.domains import make_domain
    >>> from repro.engine import Database
    >>> domain = make_domain()
    >>> db = Database(domain.schema, initial=domain.sample_state())
    >>> path = tempfile.mkdtemp()
    >>> _ = db.durable(path)                # checkpoint 0 + journal from here
    >>> _ = db.execute(domain.create_project, "web", 50)
    >>> db.close()
    >>> recovery = Store(path).recover()    # e.g. after a crash
    >>> recovery.state == db.current
    True
    >>> recovery.seq
    1
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        checkpoint_every: int = 64,
        sync: str = "commit",
        keep_snapshots: int = 2,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ReproError("checkpoint_every must be at least 1")
        if keep_snapshots < 1:
            raise ReproError("keep_snapshots must be at least 1")
        self.path = os.fspath(path)
        self.checkpoint_every = checkpoint_every
        self.keep_snapshots = keep_snapshots
        self.metrics = metrics
        os.makedirs(self.path, exist_ok=True)
        self.journal = Journal(self.journal_path, sync=sync, metrics=metrics)
        #: The journal epoch this writer holds — the fence epoch read at
        #: open.  Stamped into every frame; re-checked against disk before
        #: every append so a promoted replica's fence bump deposes us.
        self.epoch = read_fence(self.path)
        #: Sequence number of the newest journaled record.
        self.seq = self._snapshot_seq = 0
        #: Txids of journaled PREPAREs whose OUTCOME has not landed.
        self._pending: set[str] = set()

    # -- paths -------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.path, JOURNAL_NAME)

    def snapshot_files(self) -> list[tuple[int, str]]:
        """(seq, path) of every snapshot on disk, newest first."""
        return snapshot_files(self.path)

    def is_fresh(self) -> bool:
        """True when nothing has ever been persisted here."""
        return not self.snapshot_files() and not read_journal(
            self.journal_path
        ).records

    # -- fencing -----------------------------------------------------------

    def check_fence(self) -> None:
        """Refuse to write if a newer epoch has fenced this store.

        Called before every append and checkpoint.  The read is one tiny
        file; stores that never saw a failover have no fence file and pay
        a single failed ``open``.  (The check-then-append pair is not
        atomic — a real deployment fences at the storage layer — but the
        race window is one append, and recovery's epoch-monotonicity check
        still refuses any zombie frame that slips through.)
        """
        fence = read_fence(self.path)
        if fence > self.epoch:
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_failover_fenced_total",
                    "writes refused because the store was fenced",
                ).inc()
            raise Fenced(self.path, self.epoch, fence)

    def advance_fence(self) -> int:
        """Bump the fence past every epoch any earlier writer could hold
        and adopt the new epoch ourselves.  Used by recovery and promotion
        so a zombie of the pre-crash process cannot append.  A writer's
        epoch is never below one its journal carries (a shipped copy may
        lack the fence file): replay would refuse its commits as a zombie's.
        """
        records = read_journal(self.journal_path).records
        new_epoch = max(
            [read_fence(self.path)] + [r.epoch or 1 for r in records]
        ) + 1
        write_fence(self.path, new_epoch)
        self.epoch = new_epoch
        return new_epoch

    # -- writing -----------------------------------------------------------

    def initialize(self, state: State) -> None:
        """Record the run's base state as checkpoint 0 (fresh stores only)."""
        if not self.is_fresh():
            raise ReproError(f"store {self.path} already holds a run")
        write_snapshot(os.path.join(self.path, snapshot_filename(0)), 0, state)
        self.seq = self._snapshot_seq = 0

    def truncate(self, seq: int) -> None:
        """Cut the journal back to ``seq`` and number on from there (a
        promoted replica's applied prefix); unresolved PREPAREs stay pending."""
        keep = [r for r in read_journal(self.journal_path).records if r.seq <= seq]
        self.journal.replace_with(tuple(keep))
        newest = self.snapshot_files()
        self.seq, self._snapshot_seq = seq, newest[0][0] if newest else 0
        self._pending = {r.txid for r in keep if r.kind == "prepare"}
        self._pending -= {r.txid for r in keep if r.kind == "outcome"}

    def log_commit(
        self,
        before: State,
        after: State,
        *,
        label: str,
        program: Optional[str] = None,
        args: tuple[object, ...] = (),
        snapshot_version: Optional[int] = None,
    ) -> JournalRecord:
        """Journal one commit (and checkpoint when the cadence is due).

        Called by the engine inside the commit critical section, so appends
        are naturally serialized in commit order.
        """
        self.check_fence()
        delta = state_delta(before, after)
        record = self._append(
            label=label,
            program=program,
            args=tuple(encode_args(tuple(args))),
            snapshot_version=snapshot_version,
            delta=delta,
            post_digest=touched_digest(after, delta_touched(delta)),
        )
        self._checkpoint_if_due(after)
        return record

    def log_prepare(
        self,
        before: State,
        staged: State,
        *,
        txid: str,
        label: str,
        program: Optional[str] = None,
        args: tuple[object, ...] = (),
        snapshot_version: Optional[int] = None,
    ) -> JournalRecord:
        """Journal a two-phase-commit PREPARE: the delta to ``staged`` is
        durable but **not applied** until a matching OUTCOME record lands.

        The caller (the sharding layer's coordinator) holds this shard's
        commit lock for the whole prepare→decide→apply window; the store
        itself takes no checkpoint while the prepare is pending.
        """
        self.check_fence()
        delta = state_delta(before, staged)
        record = self._append(
            label=label,
            program=program,
            args=tuple(encode_args(tuple(args))),
            snapshot_version=snapshot_version,
            delta=delta,
            post_digest=prepare_digest(delta),
            kind="prepare",
            txid=txid,
        )
        self._pending.add(txid)
        return record

    def log_outcome(
        self,
        state: State,
        prepare: JournalRecord,
        decision: str,
    ) -> JournalRecord:
        """Journal the decision for a pending ``prepare`` (and checkpoint
        when the cadence is due and no other prepare is pending).

        ``state`` is the shard state *after* honoring the decision (the
        prepared delta applied for ``"commit"``, unchanged for
        ``"abort"``); the record's digest covers the prepare's touched
        relations in that state, so recovery re-verifies that replaying its
        own resolution reproduces exactly what the live process had.
        """
        if decision not in ("commit", "abort"):
            raise ReproError(f"unknown 2PC decision {decision!r}")
        self.check_fence()
        record = self._append(
            label=prepare.label,
            program=prepare.program,
            args=prepare.args,
            snapshot_version=prepare.snapshot_version,
            delta={"decision": decision},
            post_digest=touched_digest(state, delta_touched(prepare.delta)),
            kind="outcome",
            txid=prepare.txid,
        )
        self._pending.discard(prepare.txid)
        self._checkpoint_if_due(state)
        return record

    def _append(self, **fields) -> JournalRecord:
        """Journal one record at the next ``seq``, stamped with this
        writer's epoch (omitted on implicit epoch 1, so pre-failover
        journals stay byte-compatible).  Callers check the fence first."""
        record = JournalRecord(
            seq=self.seq + 1,
            epoch=self.epoch if self.epoch > 1 else None,
            **fields,
        )
        self.journal.append(record)
        self.seq = record.seq
        return record

    def _checkpoint_if_due(self, state: State) -> None:
        """The cadence: checkpoint ``state`` once ``checkpoint_every``
        records have been appended since the newest snapshot, unless a
        PREPARE is pending (the snapshot would cover and truncate it)."""
        due = self.seq - self._snapshot_seq >= self.checkpoint_every
        if due and not self._pending:
            self.checkpoint(state)

    def checkpoint(self, state: State) -> None:
        """Write ``state`` as the snapshot for :attr:`seq` and truncate the
        journal to the records it does not cover."""
        self.check_fence()
        started = time.perf_counter() if self.metrics is not None else 0.0
        seq = self.seq
        write_snapshot(
            os.path.join(self.path, snapshot_filename(seq)), seq, state
        )
        scan = read_journal(self.journal_path)
        keep = tuple(r for r in scan.records if r.seq > seq)
        self.journal.replace_with(keep)
        self._snapshot_seq = seq
        self._prune_snapshots()
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_checkpoint_seconds",
                "snapshot write + journal truncation latency",
            ).observe(time.perf_counter() - started)
            self.metrics.counter(
                "repro_checkpoints_total", "checkpoints taken"
            ).inc()

    def _prune_snapshots(self) -> None:
        for _, stale in self.snapshot_files()[self.keep_snapshots :]:
            try:
                os.remove(stale)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recovery ----------------------------------------------------------

    def recover(self) -> Recovery:
        """Re-derive the longest provable prefix of the persisted run.

        Loads the newest *valid* snapshot (corrupt ones fall back to older
        ones), then replays journal records in sequence order, stopping
        cleanly at the first torn/corrupt frame, sequence gap, or post-state
        digest mismatch.  The store numbers on from the recovered head.
        """
        base = newest_snapshot(self.path)
        if base is None:
            raise ReproError(
                f"store {self.path} has no valid snapshot — not initialized, "
                f"or every checkpoint is corrupt"
            )
        snapshot_at, state, skipped = base
        scan = read_journal(self.journal_path)
        fold = ReplayFold(state, snapshot_at)
        replayed, stopped = fold.replay(scan.records)
        reason = scan.reason
        if skipped:
            reason = f"{skipped} corrupt snapshot(s) skipped; {reason}"
        self.seq, self._snapshot_seq = fold.seq, snapshot_at
        self._pending = set(fold.pending)
        return Recovery(
            state=fold.state,
            seq=fold.seq,
            snapshot_seq=snapshot_at,
            replayed=tuple(replayed),
            clean=scan.clean and not skipped and stopped is None,
            reason=stopped or reason,
            pending=tuple(fold.pending.values()),
            epoch=fold.epoch,
        )
