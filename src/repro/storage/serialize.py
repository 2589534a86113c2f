"""Canonical, deterministic serialization of database states and deltas.

Durability needs two byte-exact guarantees the in-memory layer never had to
provide:

* **Canonical bytes** — the same :class:`~repro.db.state.State` value must
  serialize to the same byte string in every process, so CRCs, SHA-256
  digests, and cross-process comparisons are meaningful.  We use JSON with
  sorted keys, minimal separators, and ASCII escapes; relations and tuples
  are emitted in sorted order (name, then tuple identifier).
* **Exact physical deltas** — the journal records what a commit *did* to the
  state (tuples inserted / deleted / modified by identifier, relations
  created / dropped, the allocator), not how it was computed.  Replaying a
  delta is therefore independent of the interpreter, of ``foreach``
  enumeration order, and of which programs are importable at recovery time;
  ``apply_delta(before, state_delta(before, after)) == after`` holds
  tuple-for-tuple, identifier-for-identifier.

The owner map is not serialized: it is, by construction of every state
operation, exactly the inverse of the relations' tuple-identifier keying,
and is rebuilt on load.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from repro.db.relation import Relation, empty_relation
from repro.db.state import State
from repro.db.values import Atom, DBTuple, TupleId
from repro.errors import ReproError

SERIAL_VERSION = 1


class SerializationError(ReproError):
    """A document does not decode to a valid state or delta."""


def canonical_bytes(doc: object) -> bytes:
    """The canonical byte encoding of a JSON-compatible document."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def _rows(rel: Relation) -> list[list]:
    return [
        [tid, list(rel.tuples[tid].values)] for tid in sorted(rel.tuples)
    ]


def state_to_doc(state: State) -> dict:
    """A JSON-compatible document capturing the full state content."""
    return {
        "v": SERIAL_VERSION,
        "next_tid": state.next_tid,
        "relations": {
            name: {"arity": rel.arity, "rows": _rows(rel)}
            for name, rel in sorted(state.relations.items())
        },
    }


def _check_atom_doc(value: object) -> Atom:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SerializationError(f"not an atom in document: {value!r}")
    return value


def doc_to_state(doc: dict) -> State:
    """Rebuild a state from :func:`state_to_doc` output.

    The owner map is reconstructed from the relations; malformed documents
    raise :class:`SerializationError` rather than producing a bad state.
    """
    try:
        relations: dict[str, Relation] = {}
        owner: dict[TupleId, str] = {}
        for name, body in doc["relations"].items():
            arity = int(body["arity"])
            tuples: dict[TupleId, DBTuple] = {}
            for tid, values in body["rows"]:
                tid = int(tid)
                t = DBTuple(tid, tuple(_check_atom_doc(v) for v in values))
                if t.arity != arity:
                    raise SerializationError(
                        f"relation {name}: row arity {t.arity} != {arity}"
                    )
                tuples[tid] = t
                owner[tid] = name
            relations[name] = Relation(name, arity, tuples)
        return State(relations, owner, int(doc["next_tid"]))
    except (KeyError, TypeError, ValueError) as err:
        raise SerializationError(f"malformed state document: {err}") from err


def state_bytes(state: State) -> bytes:
    """The canonical byte serialization of a state."""
    return canonical_bytes(state_to_doc(state))


def state_digest(state: State) -> str:
    """SHA-256 hex digest of the canonical serialization — stable across
    processes, unlike ``hash()``."""
    return hashlib.sha256(state_bytes(state)).hexdigest()


# ---------------------------------------------------------------------------
# physical deltas
# ---------------------------------------------------------------------------


def state_delta(before: State, after: State) -> dict:
    """The physical difference ``after - before`` as a journalable document.

    Tuple-identifier granularity: for each relation, which identifiers were
    inserted, deleted, or had their value modified; plus relations created or
    dropped, and the post-commit allocator value.
    """
    created: list[list] = []
    dropped: list[str] = []
    changes: dict[str, dict] = {}
    for name in sorted(after.relations):
        arel = after.relations[name]
        brel = before.relations.get(name)
        if arel is brel:
            # Persistent updates share unchanged Relation objects between
            # states, so identity means untouched — the common case costs
            # O(1) per relation instead of a tuple scan.
            continue
        if brel is None:
            created.append([name, arel.arity])
            rows = _rows(arel)
            if rows:
                changes[name] = {"ins": rows}
            continue
        ins: list[list] = []
        mod: list[list] = []
        dels: list[int] = []
        for tid in sorted(arel.tuples):
            t = arel.tuples[tid]
            old = brel.tuples.get(tid)
            if old is None:
                ins.append([tid, list(t.values)])
            elif old.values != t.values:
                mod.append([tid, list(t.values)])
        for tid in sorted(brel.tuples):
            if tid not in arel.tuples:
                dels.append(tid)
        ops = {
            key: val
            for key, val in (("ins", ins), ("mod", mod), ("del", dels))
            if val
        }
        if ops:
            changes[name] = ops
    for name in sorted(before.relations):
        if name not in after.relations:
            dropped.append(name)
    return {
        "next_tid": after.next_tid,
        "created": created,
        "dropped": dropped,
        "changes": changes,
    }


def apply_delta(state: State, delta: dict) -> State:
    """Replay a physical delta onto ``state``; the exact inverse of
    :func:`state_delta` at its recording site."""
    try:
        relations = dict(state.relations)
        owner = state.owner
        for name in delta.get("dropped", ()):
            gone = relations.pop(name, None)
            if gone is not None:
                for t in gone:
                    owner = owner.discard(t.tid)
        for name, arity in delta.get("created", ()):
            relations[name] = empty_relation(name, int(arity))
        for name, ops in delta.get("changes", {}).items():
            rel = relations[name]
            tuples = dict(rel.tuples)
            for tid in ops.get("del", ()):
                tuples.pop(int(tid), None)
                owner = owner.discard(int(tid))
            for tid, values in list(ops.get("ins", ())) + list(ops.get("mod", ())):
                tid = int(tid)
                tuples[tid] = DBTuple(
                    tid, tuple(_check_atom_doc(v) for v in values)
                )
                owner = owner.set(tid, name)
            relations[name] = Relation(rel.name, rel.arity, tuples)
        return State(relations, owner, int(delta["next_tid"]))
    except (KeyError, TypeError, ValueError) as err:
        raise SerializationError(f"malformed delta document: {err}") from err


def delta_touched(delta: dict) -> set[str]:
    """The relation names a delta creates, drops, or changes."""
    return (
        set(delta.get("dropped", ()))
        | {name for name, _ in delta.get("created", ())}
        | set(delta.get("changes", {}))
    )


def touched_digest(state: State, names: Iterable[str]) -> str:
    """SHA-256 over the canonical content of just the named relations plus
    the allocator.

    This is the journal's per-record integrity check: hashing only the
    relations a commit touched keeps the commit path O(|delta|) instead of
    O(|state|), while still pinning the applied result exactly — untouched
    relations are covered inductively by the record that last touched them
    (or by the snapshot's full :func:`state_digest`).
    """
    doc: dict = {"touched": {}, "next_tid": state.next_tid}
    for name in sorted(set(names)):
        rel = state.relations.get(name)
        doc["touched"][name] = (
            None if rel is None else {"arity": rel.arity, "rows": _rows(rel)}
        )
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


# ---------------------------------------------------------------------------
# argument metadata (logical journal layer)
# ---------------------------------------------------------------------------


def encode_args(args: tuple[object, ...]) -> list:
    """Encode transaction arguments for the journal's logical metadata.

    Atoms pass through; identified tuples keep identifier and values; other
    values degrade to a tagged ``repr`` — recovery replays physical deltas,
    so argument round-tripping is diagnostic, not load-bearing.
    """
    encoded: list = []
    for a in args:
        if isinstance(a, bool):
            encoded.append({"r": repr(a)})
        elif isinstance(a, (int, str)):
            encoded.append(a)
        elif isinstance(a, DBTuple):
            encoded.append({"t": [a.tid, list(a.values)]})
        else:
            encoded.append({"r": repr(a)})
    return encoded


def decode_args(doc: list) -> tuple[object, ...]:
    """Decode :func:`encode_args` output (repr-fallbacks stay strings)."""
    decoded: list[object] = []
    for item in doc:
        if isinstance(item, dict) and "t" in item:
            tid, values = item["t"]
            decoded.append(
                DBTuple(None if tid is None else int(tid), tuple(values))
            )
        elif isinstance(item, dict) and "r" in item:
            decoded.append(item["r"])
        else:
            decoded.append(item)
    return tuple(decoded)
