"""Span recorder, wrapper installer, and self-time calculator.

The traced run wraps the public entry points of each layer from *outside*
(attribute patches applied by this module in the traced child and, for the
client side, in the driver); nothing in ``src/`` knows about it.  A span is
``(id, parent, op, name, layer, start, end)``; spans of one request share
``op``.  The current ``(op, span)`` pair lives in a context variable, and
:func:`propagate_context_to_threads` makes ``ThreadPoolExecutor.submit``
carry it across the server's worker threads, so a request that hops from
the event loop to a scheduler worker is still one tree.

Spans stay in memory and are written out once, at exit.  A span's *self
time* is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional

#: (op id, span id) of the innermost open span in this context, or None.
_CURRENT: contextvars.ContextVar[Optional[tuple[int, int]]] = contextvars.ContextVar(
    "ledger_span", default=None
)

now = time.perf_counter

Span = tuple  # (id, parent, op, name, layer, start, end)


class Recorder:
    """Collects spans; every method is safe to call from any thread
    (``list.append`` and ``next(count)`` are atomic under the GIL)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._open_roots: dict[int, tuple] = {}
        self._lock = threading.Lock()
        #: plain sums kept at the same boundaries as the spans (bytes written)
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- recording -----------------------------------------------------------

    def add(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a finished span under the current context."""
        op, parent = _CURRENT.get() or (None, None)
        self.spans.append((next(self._ids), parent, op, name, layer, start, end))

    def begin_root(self, name: str, layer: str, start: float) -> None:
        """Open a request root: a new op whose span ends at
        :meth:`end_root`.  The context is left pointing at it, so tasks and
        threads started from here inherit the op."""
        sid, op = next(self._ids), next(self._ops)
        with self._lock:
            self._open_roots[op] = (sid, name, layer, start)
        _CURRENT.set((op, sid))

    def end_root(self, end: float) -> None:
        """Close the root of the op this context belongs to (idempotent)."""
        current = _CURRENT.get()
        if current is None:
            return
        with self._lock:
            root = self._open_roots.pop(current[0], None)
        if root is not None:
            sid, name, layer, start = root
            self.spans.append((sid, None, current[0], name, layer, start, end))

    def _enter(self):
        """Make a new span current; returns what :meth:`_leave` and the
        final record need: ``(span id, parent id, op, context token)``."""
        op, parent = _CURRENT.get() or (None, None)
        sid = next(self._ids)
        return sid, parent, op, _CURRENT.set((op, sid))

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span."""
        sid, parent, op, token = self._enter()
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = now()
            _CURRENT.reset(token)
            self.spans.append((sid, parent, op, name, layer, start, end))

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` (a function on a class or module) with a
        version that runs inside a ``name`` span."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return recorder.call(name, layer, original, *args, **kwargs)

        self.patch(owner, attr, traced)

    def wrap_future(self, owner: object, attr: str, name: str, layer: str) -> None:
        """Like :meth:`wrap` for a method returning a ``Future``: the span
        runs from the call until the future resolves, and work the call
        hands to other threads nests under it."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent, op, token = recorder._enter()
            start = now()

            def finish(_future=None):
                recorder.spans.append((sid, parent, op, name, layer, start, now()))

            try:
                future = original(*args, **kwargs)
            except BaseException:
                finish()
                raise
            finally:
                _CURRENT.reset(token)
            future.add_done_callback(finish)
            return future

        self.patch(owner, attr, traced)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        # Look the raw attribute up so a staticmethod is restored as one.
        raw = owner.__dict__[attr] if attr in getattr(owner, "__dict__", {}) \
            else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(replacement)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def propagate_context_to_threads(self) -> None:
        """Make ``ThreadPoolExecutor.submit`` run its callable in a copy of
        the submitter's context (asyncio tasks already do)."""
        original = ThreadPoolExecutor.submit

        @functools.wraps(original)
        def submit(pool, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()
            return original(pool, ctx.run, fn, *args, **kwargs)

        self.patch(ThreadPoolExecutor, "submit", submit)

    # -- output --------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up)."""
        self.spans = []
        with self._lock:
            self.counters = {}

    def dump(self, path: str, **header) -> None:
        with open(path, "w") as fh:
            json.dump(
                {**header,
                 "fields": ["id", "parent", "op", "name", "layer", "start", "end"],
                 "spans": self.spans},
                fh,
            )


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, edge), min(hi, end)
        if hi > lo:
            total += hi - lo
            edge = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id → duration minus the part its children cover.

    Children may overlap each other (parallel workers) or outlive the
    parent (a future resolved after its submitter returned); only the part
    of the parent's own interval that some child covers is subtracted.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _op, _name, _layer, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, []))
        for sid, _parent, _op, _name, _layer, start, end in spans
    }


def aggregate(spans: Iterable[Span]) -> dict:
    """Totals the per-layer metrics are derived from::

        {"by_name":  {name:  {"layer", "count", "total_s", "self_s"}},
         "by_layer": {layer: self_s}}
    """
    spans = list(spans)
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = {}
    for sid, _parent, _op, name, layer, start, end in spans:
        row = by_name.setdefault(
            name, {"layer": layer, "count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[sid]
    return {"by_name": by_name, "by_layer": by_layer}


def intervals(spans: Iterable[Span], name: str) -> list[tuple[float, float]]:
    return [(s[5], s[6]) for s in spans if s[3] == name]


# ---------------------------------------------------------------------------
# the wrapper sets
# ---------------------------------------------------------------------------

_REQUESTS = ("EXECUTE", "QUERY", "BATCH")
_REPLIES = ("RESULT", "ERROR", "BATCH_RESULT")


def install_server_side(rec: Recorder) -> None:
    """Wrap the layers of the serving process (the traced child).

    A request's root span opens when ``FrameDecoder.feed`` yields its frame
    and closes when its reply has been encoded, so the root's self time is
    the event loop, the session and the thread hand-offs.
    """
    import os

    import repro.engine as engine
    import repro.server.server as server
    import repro.sharding.sharded as sharded
    import repro.storage.journal as journal
    import repro.storage.serialize as serialize
    import repro.storage.store as store_module
    from repro.algebra.planner import QueryPlanner
    from repro.concurrent.admission import AdmissionController
    from repro.concurrent.scheduler import TransactionManager
    from repro.eval.cache import QueryCache
    from repro.server.protocol import FrameDecoder
    from repro.sharding.replica import Replica
    from repro.sharding.twopc import Coordinator
    from repro.storage.store import Store
    from repro.transactions.program import DatabaseProgram

    rec.propagate_context_to_threads()

    feed = FrameDecoder.feed

    @functools.wraps(feed)
    def traced_feed(decoder, data):
        start = now()
        messages = feed(decoder, data)
        end = now()
        if messages and messages[-1].get("type") in _REQUESTS:
            rec.begin_root("server.request", "server", start)
            rec.add("server.decode", "server", start, end)
        return messages

    rec.patch(FrameDecoder, "feed", traced_feed)

    encode = server.encode_message

    @functools.wraps(encode)
    def traced_encode(doc):
        frame = rec.call("server.encode", "server", encode, doc)
        if doc.get("type") in _REPLIES:
            rec.end_root(now())
        return frame

    rec.patch(server, "encode_message", traced_encode)
    rec.wrap(server, "value_to_doc", "server.value_to_doc", "server")

    rec.wrap(AdmissionController, "request", "concurrent.admission", "concurrent")
    rec.wrap_future(TransactionManager, "submit", "concurrent.submit", "concurrent")
    rec.wrap(TransactionManager, "run_batch", "concurrent.run_batch", "concurrent")

    rec.wrap(engine.Database, "apply", "engine.apply", "engine")
    rec.wrap(engine.Database, "query", "engine.query", "engine")
    rec.wrap(engine.Database, "rehearse", "engine.rehearse", "engine")
    rec.wrap(DatabaseProgram, "run", "transactions.run", "transactions")
    rec.wrap(DatabaseProgram, "query", "transactions.query", "transactions")
    # check_history is patched where the engine looks it up.
    rec.wrap(engine, "check_history", "constraints.check_history", "constraints")

    for method in ("eval_set_former", "eval_quantifier", "eval_foreach_domain",
                   "eval_aggregate"):
        rec.wrap(QueryPlanner, method, f"algebra.{method}", "algebra")

    # engine._commit imports state_delta from the module at call time.
    rec.wrap(serialize, "state_delta", "eval.state_delta", "eval")
    rec.wrap(QueryCache, "evaluate", "eval.cache_evaluate", "eval")
    rec.wrap(QueryCache, "invalidate", "eval.cache_invalidate", "eval")

    rec.wrap(Store, "log_commit", "storage.log_commit", "storage")
    rec.wrap(Store, "checkpoint", "storage.checkpoint", "storage")
    rec.wrap(Store, "recover", "storage.recover", "storage")
    rec.wrap(os, "fsync", "storage.fsync", "storage")

    # Bytes written: every journal frame (checkpoint rewrites included) and
    # every snapshot file.
    encode_frame = journal.encode_frame

    @functools.wraps(encode_frame)
    def counted_frame(record):
        frame = encode_frame(record)
        rec.count("storage.frame_bytes", len(frame))
        return frame

    rec.patch(journal, "encode_frame", counted_frame)
    write_snapshot = store_module.write_snapshot

    @functools.wraps(write_snapshot)
    def counted_snapshot(path, *args, **kwargs):
        result = write_snapshot(path, *args, **kwargs)
        rec.count("storage.snapshot_bytes", os.path.getsize(path))
        return result

    rec.patch(store_module, "write_snapshot", counted_snapshot)

    rec.wrap(sharded.ShardedDatabase, "execute_outcome",
             "sharding.execute_outcome", "sharding")
    rec.wrap(sharded.ShardedDatabase, "query", "sharding.query", "sharding")
    rec.wrap(Store, "log_prepare", "sharding.log_prepare", "sharding")
    rec.wrap(Store, "log_outcome", "sharding.log_outcome", "sharding")
    rec.wrap(Coordinator, "decide", "sharding.decide", "sharding")
    rec.wrap(Replica, "poll", "sharding.replica_poll", "sharding")
    rec.wrap(Replica, "promote", "sharding.replica_promote", "sharding")


def install_client_side(rec: Recorder) -> None:
    """Wrap the client (in the driver process): each ``execute`` / ``query``
    / ``batch`` call is a root span whose self time is the socket plus the
    whole server-side residence."""
    import repro.server.client as client
    from repro.server.protocol import FrameDecoder

    for method in ("execute", "query", "batch"):
        original = getattr(client.Client, method)

        def traced(self, *args, _original=original, **kwargs):
            rec.begin_root("client.request", "server", now())
            try:
                return _original(self, *args, **kwargs)
            finally:
                rec.end_root(now())

        rec.patch(client.Client, method, functools.wraps(original)(traced))

    rec.wrap(client, "encode_message", "client.encode", "server")
    rec.wrap(FrameDecoder, "feed", "client.decode", "server")
    rec.wrap(client, "value_from_doc", "client.value_from_doc", "server")
    rec.wrap(client, "error_from_doc", "client.error_from_doc", "server")
