"""Checkpointed snapshots: one atomic file per checkpoint.

A snapshot is the full canonical serialization of a state together with the
commit sequence number it reflects: the whole file is one
:func:`repro.storage.serialize.frame` whose marker is the 10-byte file magic
``REPROCKP1\\n`` and whose payload is ``{"seq", "digest", "state"}``.

Writes are atomic — temp file in the same directory, flush, fsync, rename,
directory fsync — so a crash mid-checkpoint leaves the previous snapshot
untouched and at most a stray ``*.tmp`` that loaders ignore.  Loads are
defensive: any truncation, CRC mismatch, or digest disagreement makes the
snapshot invalid (returns ``None``) rather than yielding a wrong state, and
recovery falls back to the next-older snapshot.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.db.state import State
from repro.storage.journal import _fsync_dir
from repro.storage.serialize import (
    canonical_bytes,
    doc_to_state,
    frame,
    read_frame,
    state_digest,
    state_to_doc,
    SerializationError,
)

SNAP_MAGIC = b"REPROCKP1\n"
SNAP_PREFIX = "snap-"
SNAP_SUFFIX = ".ckpt"


def snapshot_filename(seq: int) -> str:
    return f"{SNAP_PREFIX}{seq:012d}{SNAP_SUFFIX}"


def snapshot_seq(filename: str) -> Optional[int]:
    """The sequence number encoded in a snapshot filename, else ``None``."""
    if not (filename.startswith(SNAP_PREFIX) and filename.endswith(SNAP_SUFFIX)):
        return None
    middle = filename[len(SNAP_PREFIX) : -len(SNAP_SUFFIX)]
    return int(middle) if middle.isdigit() else None


def write_snapshot(path: str | os.PathLike, seq: int, state: State) -> str:
    """Atomically write ``state`` as the checkpoint for commit ``seq``;
    returns the state digest recorded in the file."""
    path = os.fspath(path)
    digest = state_digest(state)
    payload = canonical_bytes(
        {"seq": seq, "digest": digest, "state": state_to_doc(state)}
    )
    blob = frame(SNAP_MAGIC, payload)
    directory = os.path.dirname(path) or "."
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(directory)
    return digest


def load_snapshot(path: str | os.PathLike) -> Optional[tuple[int, State]]:
    """Load and validate a snapshot; ``None`` for any corruption."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    read = read_frame(data, 0, SNAP_MAGIC, len(data))
    if isinstance(read, str) or read[1] != len(data):
        return None
    payload = read[0]
    try:
        doc = json.loads(payload)
        state = doc_to_state(doc["state"])
        seq = int(doc["seq"])
        recorded = doc["digest"]
    except (ValueError, KeyError, TypeError, SerializationError):
        return None
    if state_digest(state) != recorded:
        return None
    return seq, state


def snapshot_files(directory: str | os.PathLike) -> list[tuple[int, str]]:
    """(seq, path) of every snapshot in ``directory``, newest first."""
    names = os.listdir(directory)
    found = [(snapshot_seq(n), os.path.join(directory, n)) for n in names]
    return sorted((f for f in found if f[0] is not None), reverse=True)


def newest_snapshot(
    directory: str | os.PathLike,
) -> Optional[tuple[int, State, int]]:
    """``(seq, state, skipped)`` of the newest *valid* snapshot in
    ``directory`` — ``skipped`` newer ones were corrupt — or ``None`` when
    none is valid.  The base every replay of the run starts from."""
    for skipped, (_, path) in enumerate(snapshot_files(directory)):
        loaded = load_snapshot(path)
        if loaded is not None:
            return loaded[0], loaded[1], skipped
    return None
