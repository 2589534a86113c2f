"""A persistent tuple-ownership index.

``State.owner`` maps every live tuple identifier to the name of the
relation holding it.  Identifiers are not dense: a sharded database hands
each shard and each cross-shard transaction its own block of identifiers,
so the live ones are scattered over an id space that grows with every
block granted.  The index is therefore a **persistent sparse chunk map**
``{tid // CHUNK: CHUNK-slot tuple}`` that holds only chunks with at least
one live identifier: an update copies one 64-slot chunk plus the chunk
table (never anything proportional to the largest identifier), lookups are
one dict probe and one tuple indexing, and the number of chunks never
exceeds the number of live entries.

This matters because states are persistent values: a plain ``dict`` copied
every entry on every single-tuple insert (O(N²) for N inserts), and a
dense vector padded every unallocated identifier below the high-water
mark.  Empty slots hold ``None``; ``None`` is never a legal relation name.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, Optional

#: Slots per chunk.  Updates copy one chunk, so this bounds the per-update
#: copy; lookups are O(1) regardless.
CHUNK = 64

_EMPTY = (None,) * CHUNK


def _check_tid(tid: object) -> int:
    if not isinstance(tid, int) or isinstance(tid, bool) or tid < 0:
        raise ValueError(f"owner map: bad tuple identifier {tid!r}")
    return tid


class OwnerMap(Mapping):
    """An immutable ``tid -> relation name`` mapping with cheap updates.

    Behaves as a standard :class:`~collections.abc.Mapping` (so
    ``dict(owner)``, ``tid in owner``, ``owner.get(tid)`` all work; iteration
    is in ascending identifier order), plus the persistent update operations
    :meth:`set` and :meth:`discard`, which return a new map sharing all
    untouched chunks with the old one.
    """

    __slots__ = ("_chunks", "_count")

    def __init__(self, chunks: Optional[dict] = None, count: int = 0) -> None:
        self._chunks: dict[int, tuple] = {} if chunks is None else chunks
        self._count = count  # live (non-None) entries

    @classmethod
    def wrap(cls, mapping: Mapping) -> "OwnerMap":
        """``mapping`` as an :class:`OwnerMap` in one pass over its entries;
        the identity when it already is one."""
        if isinstance(mapping, cls):
            return mapping
        slots: dict[int, list] = {}
        for tid, name in mapping.items():
            if name is None:
                raise ValueError("owner map: relation name may not be None")
            i, j = divmod(_check_tid(tid), CHUNK)
            chunk = slots.get(i)
            if chunk is None:
                chunk = slots[i] = [None] * CHUNK
            chunk[j] = name
        return cls({i: tuple(chunk) for i, chunk in slots.items()}, len(mapping))

    # -- reads ---------------------------------------------------------------

    def _slot(self, tid: object) -> Optional[str]:
        if not isinstance(tid, int) or isinstance(tid, bool):
            return None
        i, j = divmod(tid, CHUNK)  # a negative tid lands in a negative chunk
        chunk = self._chunks.get(i)
        return None if chunk is None else chunk[j]

    def __getitem__(self, tid: int) -> str:
        value = self._slot(tid)
        if value is None:
            raise KeyError(tid)
        return value

    def get(self, tid: object, default: object = None) -> object:
        value = self._slot(tid)
        return default if value is None else value

    def __contains__(self, tid: object) -> bool:
        return self._slot(tid) is not None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        for i in sorted(self._chunks):
            base = i * CHUNK
            for j, value in enumerate(self._chunks[i]):
                if value is not None:
                    yield base + j

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OwnerMap({dict(self)!r})"

    # -- persistent updates --------------------------------------------------

    def set(self, tid: int, name: str) -> "OwnerMap":
        """A new map with ``tid`` owned by ``name``."""
        if name is None:
            raise ValueError("owner map: relation name may not be None")
        i, j = divmod(_check_tid(tid), CHUNK)
        chunk = self._chunks.get(i, _EMPTY)
        old = chunk[j]
        if old == name:
            return self
        chunks = dict(self._chunks)
        chunks[i] = chunk[:j] + (name,) + chunk[j + 1 :]
        return OwnerMap(chunks, self._count + (old is None))

    def discard(self, tid: object) -> "OwnerMap":
        """A new map without ``tid``; the identity when it is absent.  A
        chunk left empty is dropped."""
        if self._slot(tid) is None:
            return self
        i, j = divmod(tid, CHUNK)
        chunk = self._chunks[i]
        replaced = chunk[:j] + (None,) + chunk[j + 1 :]
        chunks = dict(self._chunks)
        if replaced == _EMPTY:
            del chunks[i]
        else:
            chunks[i] = replaced
        return OwnerMap(chunks, self._count - 1)
