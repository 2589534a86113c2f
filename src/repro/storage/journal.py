"""The write-ahead journal: one CRC-framed record per commit.

File layout::

    REPROWAL1\\n                          10-byte file header
    frame*                               zero or more frames, marker b"RJ"

The frame is :func:`repro.storage.serialize.frame` (layout in its
docstring); the payload is one :class:`JournalRecord` as canonical JSON.

Append is the only write operation; a record is durable once its frame is on
disk (``sync="commit"`` fsyncs every append, ``sync="os"`` leaves flushing
to the OS — that still survives a process kill, just not a power cut).

Reading is **prefix-safe by construction**: :func:`scan_journal` walks frames
from the start and stops at the first incomplete header, short payload, bad
marker, CRC mismatch, or undecodable payload.  Everything before the stop
point is exactly the sequence of commits that reached disk — a torn tail or
a flipped bit can only shorten the recovered prefix, never corrupt it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ReproError
from repro.storage.serialize import canonical_bytes, frame, read_frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

FILE_MAGIC = b"REPROWAL1\n"
FRAME_MAGIC = b"RJ"
_MAX_PAYLOAD = 1 << 28  # 256 MiB: anything larger is corruption, not data


@dataclass(frozen=True)
class JournalRecord:
    """One committed transaction as it lands on disk.

    ``delta`` is the physical layer recovery replays; ``label`` /
    ``program`` / ``args`` / ``snapshot_version`` are the logical layer —
    the run's commit history (the database keeps none in memory), enough
    to read its tail and to re-run registered programs
    (:mod:`repro.transactions.library`) for diagnostics.
    ``post_digest`` is the SHA-256 of the post-commit content of the
    relations this commit touched (plus the allocator) — an O(|delta|)
    check chaining each record to the exact state it produced.

    ``kind`` distinguishes record types since the sharding layer landed:
    ``"commit"`` (the default — a fully applied transaction), ``"prepare"``
    (a two-phase-commit participant's promise: the delta is staged but not
    applied), and ``"outcome"`` (the participant learned the coordinator's
    decision; ``delta`` holds ``{"decision": "commit"|"abort"}``).  The
    coordinator's own journal additionally uses ``"decision"`` and
    ``"epoch"`` records.  ``txid`` correlates prepare/outcome/decision
    records of one distributed transaction across journals.  Both fields
    are omitted from the wire encoding for plain commits, so journals
    written before the sharding layer decode unchanged.

    ``epoch`` is the journal epoch the record was written under — the
    failover layer's fencing token.  A store whose fence file says epoch
    ``e`` stamps ``e`` into every frame; a record carrying a *smaller*
    epoch than one already replayed is a deposed primary's zombie append
    and stops recovery/replication at the safe prefix before it.  ``None``
    (omitted on the wire) means the pre-failover implicit epoch 1, so
    journals written before this layer decode unchanged.
    """

    seq: int
    label: str
    program: Optional[str]
    args: tuple
    snapshot_version: Optional[int]
    delta: dict
    post_digest: str
    kind: str = "commit"
    txid: Optional[str] = None
    epoch: Optional[int] = None

    def to_doc(self) -> dict:
        doc = {
            "seq": self.seq,
            "label": self.label,
            "program": self.program,
            "args": list(self.args),
            "snapshot_version": self.snapshot_version,
            "delta": self.delta,
            "post_digest": self.post_digest,
        }
        if self.kind != "commit":
            doc["kind"] = self.kind
        if self.txid is not None:
            doc["txid"] = self.txid
        if self.epoch is not None and self.epoch != 1:
            doc["epoch"] = self.epoch
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "JournalRecord":
        if not isinstance(doc["delta"], dict):
            raise TypeError("record delta is not an object")
        return JournalRecord(
            seq=int(doc["seq"]),
            label=doc["label"],
            program=doc.get("program"),
            args=tuple(doc.get("args", ())),
            snapshot_version=doc.get("snapshot_version"),
            delta=doc["delta"],
            post_digest=doc["post_digest"],
            kind=doc.get("kind", "commit"),
            txid=doc.get("txid"),
            epoch=doc.get("epoch"),
        )


def encode_frame(record: JournalRecord) -> bytes:
    return frame(FRAME_MAGIC, canonical_bytes(record.to_doc()))


@dataclass(frozen=True)
class JournalScan:
    """The result of reading a journal file defensively.

    ``clean`` is True when the file ended exactly at a frame boundary;
    ``valid_bytes`` is the offset of the last good frame's end (the point a
    repair tool would truncate to); ``reason`` says why the scan stopped.
    ``boundaries`` holds the byte offset after the header and after each
    good frame — the crash points :mod:`repro.storage.faults` enumerates.
    """

    records: tuple[JournalRecord, ...]
    clean: bool
    valid_bytes: int
    reason: str
    boundaries: tuple[int, ...]


def scan_journal(data: bytes) -> JournalScan:
    """Parse journal bytes, stopping cleanly at the first bad frame."""
    if len(data) == 0:
        # A zero-length file is an *empty* journal, not a torn one: the
        # writer creates the file before the header reaches disk (and
        # ``Journal`` itself treats a 0-byte file as fresh), so recovery
        # must treat it as "nothing was ever journaled".
        return JournalScan((), True, 0, "empty journal file", ())
    if len(data) < len(FILE_MAGIC):
        return JournalScan((), False, 0, "torn or missing file header", ())
    if data[: len(FILE_MAGIC)] != FILE_MAGIC:
        return JournalScan((), False, 0, "bad file magic", ())
    records: list[JournalRecord] = []
    offset = len(FILE_MAGIC)
    boundaries = [offset]

    def stop(clean: bool, reason: str) -> JournalScan:
        return JournalScan(
            tuple(records), clean, boundaries[-1], reason, tuple(boundaries)
        )

    while offset < len(data):
        read = read_frame(data, offset, FRAME_MAGIC, _MAX_PAYLOAD)
        if isinstance(read, str):
            return stop(False, f"{read} at offset {offset}")
        payload, end = read
        try:
            record = JournalRecord.from_doc(json.loads(payload))
        except (ValueError, KeyError, TypeError, OverflowError):
            return stop(False, f"undecodable payload at offset {offset}")
        records.append(record)
        offset = end
        boundaries.append(offset)
    return stop(True, "end of journal")


def read_journal(path: str | os.PathLike) -> JournalScan:
    """Scan the journal at ``path`` (a missing file is an empty, clean
    journal — checkpoint truncation replaces the file atomically, so absence
    means nothing was ever journaled)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return JournalScan((), True, 0, "no journal file", ())
    return scan_journal(data)


class Journal:
    """Append-only writer over the frame format.

    Not thread-safe by itself: the engine appends inside the commit critical
    section, which already serializes writers.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        sync: str = "commit",
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        if sync not in ("commit", "os"):
            raise ReproError(f"unknown journal sync policy {sync!r}")
        self.path = os.fspath(path)
        self.sync = sync
        self.metrics = metrics
        self._fh = None

    def _ensure_open(self):
        if self._fh is None:
            fresh = (
                not os.path.exists(self.path)
                or os.path.getsize(self.path) == 0
            )
            self._fh = open(self.path, "ab")
            if fresh:
                self._fh.write(FILE_MAGIC)
                self._fh.flush()
                if self.sync == "commit":
                    os.fsync(self._fh.fileno())
        return self._fh

    def append(self, record: JournalRecord) -> None:
        fh = self._ensure_open()
        metrics = self.metrics
        if metrics is None:
            fh.write(encode_frame(record))
            fh.flush()
            if self.sync == "commit":
                os.fsync(fh.fileno())
            return
        started = time.perf_counter()
        fh.write(encode_frame(record))
        fh.flush()
        if self.sync == "commit":
            sync_started = time.perf_counter()
            os.fsync(fh.fileno())
            metrics.histogram(
                "repro_journal_fsync_seconds", "per-commit fsync latency"
            ).observe(time.perf_counter() - sync_started)
        metrics.histogram(
            "repro_journal_append_seconds", "frame encode+write+sync latency"
        ).observe(time.perf_counter() - started)
        metrics.counter(
            "repro_journal_appends_total", "journal records written"
        ).inc()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def replace_with(self, records: tuple[JournalRecord, ...]) -> None:
        """Atomically rewrite the journal to contain only ``records`` —
        checkpoint truncation.  Either the old journal or the new one exists
        at every instant (temp file + fsync + rename)."""
        self.close()
        directory = os.path.dirname(self.path) or "."
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(FILE_MAGIC)
            for record in records:
                fh.write(encode_frame(record))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(directory)


def _fsync_dir(directory: str) -> None:
    """Persist a rename by fsyncing the containing directory (best-effort
    on platforms whose directories cannot be opened)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
