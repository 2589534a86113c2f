"""The wire protocol: length-prefixed, CRC-framed JSON messages.

Every message is one :func:`repro.storage.serialize.frame` with the marker
``b"RT"`` — the journal's frame (layout in that function's docstring),
applied to a socket.

Unlike the journal there is no file header: a connection is a stream of
frames in both directions, and the **handshake is versioned in-band** — the
first request must be a ``HELLO`` carrying :data:`PROTOCOL_VERSION`, and the
server answers ``WELCOME`` (or a structured error and a close).

Request types: ``HELLO``, ``EXECUTE``, ``QUERY``, ``BATCH``, ``CANCEL``,
``CLOSE``.  Response types: ``WELCOME``, ``RESULT``, ``BATCH_RESULT``,
``ERROR``, ``BYE``.  Every message is a JSON object with a ``type`` and an
``id`` (the client's request identifier; responses echo it, so replies may
arrive out of order and still correlate).

Errors cross the wire **structurally**, never as bare strings:
:func:`error_to_doc` captures the typed taxonomy of :mod:`repro.errors`
(``Overloaded`` keeps its ``retry_after``/``depth``, ``BudgetExceeded`` its
meter reading, ...) and :func:`error_from_doc` rebuilds the same exception
class client-side — ``except Overloaded`` works identically in-process and
across the network.

Decoding is defensive: :class:`FrameDecoder` raises a typed
:class:`~repro.errors.ProtocolError` on a bad marker, CRC mismatch,
implausible length, or undecodable payload.  The server answers with an
error frame and closes that connection only; the client treats it as a
poisoned connection and reconnects.
"""

from __future__ import annotations

import json

from repro.errors import (
    BudgetExceeded,
    Cancelled,
    CheckabilityError,
    CircuitOpen,
    ConstraintViolation,
    EvaluationError,
    ExecutabilityError,
    Fenced,
    InDoubt,
    Overloaded,
    ParseError,
    ProtocolError,
    ReplicaLagExceeded,
    ReproError,
    ResourceError,
    RetryExhausted,
    SchedulerClosed,
    SchemaError,
    SessionClosed,
    ShardError,
    ShardUnavailable,
    SortError,
    TransactionConflict,
)
from repro.db.values import DBTuple, RelationId, TupleSet
from repro.storage.serialize import (
    BAD_MARKER,
    CRC_MISMATCH,
    IMPLAUSIBLE_LENGTH,
    canonical_bytes,
    frame,
    read_frame,
)
from repro.transactions.interpreter import _tuple_order_key

PROTOCOL_VERSION = 1

FRAME_MAGIC = b"RT"
#: Frames above this are refused as corruption, not data — a transaction
#: request is a program name plus atom arguments, never megabytes.
MAX_FRAME_PAYLOAD = 1 << 24  # 16 MiB

REQUEST_TYPES = ("HELLO", "EXECUTE", "QUERY", "BATCH", "CANCEL", "CLOSE")
RESPONSE_TYPES = ("WELCOME", "RESULT", "BATCH_RESULT", "ERROR", "BYE")


def encode_message(doc: dict) -> bytes:
    """One message as a complete wire frame."""
    payload = canonical_bytes(doc)
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte frame limit"
        )
    return frame(FRAME_MAGIC, payload)


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte stream.

    Feed whatever the socket produced — any split, including mid-header —
    and get back the complete messages it contained.  A malformed frame
    raises :class:`~repro.errors.ProtocolError`; the decoder is then
    poisoned (the stream has lost frame alignment and cannot be trusted
    again), matching the server's close-this-connection-only policy.

    >>> decoder = FrameDecoder()
    >>> data = encode_message({"type": "CLOSE", "id": 7})
    >>> decoder.feed(data[:5])
    []
    >>> decoder.feed(data[5:])
    [{'id': 7, 'type': 'CLOSE'}]
    """

    def __init__(self, max_payload: int = MAX_FRAME_PAYLOAD) -> None:
        self.max_payload = max_payload
        self._buffer = bytearray()
        self._poisoned = False

    def _fail(self, reason: str) -> ProtocolError:
        self._poisoned = True
        return ProtocolError(reason)

    def feed(self, data: bytes) -> list[dict]:
        """Consume bytes; return every complete message they finish."""
        if self._poisoned:
            raise ProtocolError("frame stream already poisoned")
        self._buffer += data
        messages: list[dict] = []
        while True:
            buf = self._buffer
            read = read_frame(buf, 0, FRAME_MAGIC, self.max_payload)
            if isinstance(read, str):
                if read == BAD_MARKER:
                    raise self._fail(f"bad frame marker {bytes(buf[:2])!r}")
                if read == IMPLAUSIBLE_LENGTH:
                    length = int.from_bytes(buf[2:6], "big")
                    raise self._fail(f"implausible frame length {length}")
                if read == CRC_MISMATCH:
                    raise self._fail("frame CRC mismatch")
                return messages  # torn: the rest of the frame is in flight
            payload, end = read
            del self._buffer[:end]
            try:
                message = json.loads(payload)
            except ValueError:
                raise self._fail("undecodable frame payload") from None
            if not isinstance(message, dict) or not isinstance(
                message.get("type"), str
            ):
                raise self._fail("frame payload is not a typed message")
            messages.append(message)


# ---------------------------------------------------------------------------
# values on the wire
# ---------------------------------------------------------------------------


def value_to_doc(value: object) -> dict:
    """A query result as a tagged JSON document.

    Atoms, tuples, tuple sets, and relation identifiers all cross the wire;
    tuple identifiers survive, so "the same employee" stays the same tuple
    on the client side.
    """
    if isinstance(value, DBTuple):
        return {"k": "tuple", "tid": value.tid, "values": list(value.values)}
    if isinstance(value, TupleSet):
        return {
            "k": "set",
            "arity": value.arity,
            "rows": [
                [t.tid, list(t.values)]
                for t in sorted(value, key=_tuple_order_key)
            ],
        }
    if isinstance(value, RelationId):
        return {"k": "rid", "name": value.name, "arity": value.arity}
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ProtocolError(f"value {value!r} has no wire encoding")
    return {"k": "atom", "v": value}


def _tid(raw) -> "int | None":
    """A tuple identifier off the wire; constructed tuples carry none."""
    return None if raw is None else int(raw)


def value_from_doc(doc: dict) -> object:
    """Rebuild a query result from :func:`value_to_doc` output."""
    try:
        kind = doc["k"]
        if kind == "atom":
            return doc["v"]
        if kind == "tuple":
            return DBTuple(_tid(doc["tid"]), tuple(doc["values"]))
        if kind == "set":
            tuples = [
                DBTuple(_tid(tid), tuple(values)) for tid, values in doc["rows"]
            ]
            return TupleSet.of(int(doc["arity"]), tuples)
        if kind == "rid":
            return RelationId(doc["name"], int(doc["arity"]))
    except (KeyError, TypeError, ValueError) as err:
        raise ProtocolError(f"malformed value document: {err}") from err
    raise ProtocolError(f"unknown value kind {kind!r}")


# ---------------------------------------------------------------------------
# errors on the wire
# ---------------------------------------------------------------------------


def error_to_doc(err: BaseException) -> dict:
    """A structured error frame payload for any library exception.

    The typed attributes clients act on (``retry_after``, budget meter
    readings, the violated constraint's name) are explicit fields, so
    governance errors round-trip the wire without parsing messages.
    """
    doc: dict = {"kind": "error", "message": str(err)}
    if isinstance(err, Overloaded):
        doc.update(
            kind="overloaded",
            depth=err.depth,
            limit=err.limit,
            retry_after=err.retry_after,
        )
    elif isinstance(err, CircuitOpen):
        doc.update(kind="circuit-open", retry_after=err.retry_after)
    elif isinstance(err, ShardUnavailable):
        doc.update(
            kind="shard-unavailable",
            shard=err.shard,
            retry_after=err.retry_after,
            state=err.state,
        )
    elif isinstance(err, Fenced):
        doc.update(
            kind="fenced",
            path=err.path,
            writer_epoch=err.writer_epoch,
            fence_epoch=err.fence_epoch,
        )
    elif isinstance(err, InDoubt):
        doc.update(
            kind="in-doubt",
            txid=err.txid,
            point=err.point,
            decided=err.decided,
        )
    elif isinstance(err, ReplicaLagExceeded):
        doc.update(
            kind="replica-lag",
            applied=err.applied,
            primary=err.primary,
            max_lag=err.max_lag,
        )
    elif isinstance(err, BudgetExceeded):
        doc.update(
            kind="budget-exceeded",
            resource=err.resource,
            limit=err.limit,
            used=err.used,
        )
    elif isinstance(err, Cancelled):
        doc.update(kind="cancelled", reason=err.reason)
    elif isinstance(err, SessionClosed):
        doc.update(kind="session-closed")
    elif isinstance(err, SchedulerClosed):
        doc.update(kind="scheduler-closed")
    elif isinstance(err, ConstraintViolation):
        doc.update(kind="constraint-violation", constraint=err.constraint_name)
    elif isinstance(err, RetryExhausted):
        doc.update(
            kind="retry-exhausted",
            label=err.label,
            relations=sorted(err.relations),
            attempts=err.attempts,
        )
    elif isinstance(err, TransactionConflict):
        doc.update(
            kind="conflict", label=err.label, relations=sorted(err.relations)
        )
    elif isinstance(err, ProtocolError):
        doc.update(kind="protocol-error")
    else:
        for cls, kind in _SIMPLE_KINDS.items():
            if isinstance(err, cls):
                doc.update(kind=kind)
                break
    return doc


# Message-only errors: the class is the payload.  Subclasses first — the
# encoder takes the first match.
_SIMPLE_KINDS: dict[type, str] = {
    ExecutabilityError: "executability-error",
    CheckabilityError: "checkability-error",
    ParseError: "parse-error",
    SchemaError: "schema-error",
    SortError: "sort-error",
    EvaluationError: "evaluation-error",
    ShardError: "shard-error",
    ResourceError: "resource-error",
}


def error_from_doc(doc: dict) -> ReproError:
    """Rebuild the typed exception a structured error frame carries.

    Unknown kinds (a newer server) degrade to :class:`ReproError` with the
    message preserved — never to a silent drop.
    """
    kind = doc.get("kind", "error")
    message = doc.get("message", "")
    try:
        if kind == "overloaded":
            return Overloaded(
                depth=int(doc["depth"]),
                limit=int(doc["limit"]),
                retry_after=float(doc["retry_after"]),
            )
        if kind == "circuit-open":
            return CircuitOpen(retry_after=float(doc["retry_after"]))
        if kind == "shard-unavailable":
            return ShardUnavailable(
                shard=int(doc["shard"]),
                retry_after=float(doc["retry_after"]),
                state=doc.get("state", "down"),
            )
        if kind == "fenced":
            return Fenced(
                doc.get("path", "?"),
                int(doc["writer_epoch"]),
                int(doc["fence_epoch"]),
            )
        if kind == "in-doubt":
            return InDoubt(
                doc["txid"],
                doc.get("point", ""),
                decided=bool(doc.get("decided", False)),
            )
        if kind == "replica-lag":
            return ReplicaLagExceeded(
                int(doc["applied"]), int(doc["primary"]), int(doc["max_lag"])
            )
        if kind == "budget-exceeded":
            return BudgetExceeded(
                doc["resource"], float(doc["limit"]), float(doc["used"])
            )
        if kind == "cancelled":
            return Cancelled(doc.get("reason", "cancelled"))
        if kind == "session-closed":
            return SessionClosed(message or "server session closed")
        if kind == "scheduler-closed":
            return SchedulerClosed(message or "transaction manager is closed")
        if kind == "constraint-violation":
            return ConstraintViolation(doc["constraint"], "rejected by server")
        if kind == "retry-exhausted":
            return RetryExhausted(
                doc["label"], doc.get("relations", ()), int(doc["attempts"])
            )
        if kind == "conflict":
            return TransactionConflict(
                doc["label"], doc.get("relations", ()), message
            )
        if kind == "protocol-error":
            return ProtocolError(message)
    except (KeyError, TypeError, ValueError):
        return ProtocolError(f"malformed {kind!r} error frame: {message}")
    for cls, simple_kind in _SIMPLE_KINDS.items():
        if kind == simple_kind:
            return cls(message)
    return ReproError(message or f"server error ({kind})")
