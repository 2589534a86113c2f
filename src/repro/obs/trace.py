"""Structured tracing: one span per interpreter step.

The paper makes every state transition an explicit object (``w;e``); the
tracer makes every *evaluation step* one too.  When a tracer is attached to
an :class:`~repro.transactions.interpreter.Interpreter`, executing a
transaction emits a tree of :class:`Span` objects — one span per
composition segment, condition branch, ``foreach`` iteration, and atomic
action — each carrying:

* ``kind`` / ``label`` — what step it was (``seq``, ``cond``,
  ``foreach-iter``, ``action:insert``, ...);
* ``version`` — the entry state's identifier allocator (``next_tid``), the
  cheap monotone version stamp of the run;
* ``touched`` — the relations the step's evaluation depended on, reported
  through the interpreter's ``_touch`` seam (always sorted, so traces are
  stable across processes and hash seeds);
* ``duration`` and nested ``children``;
* on a root span opened by a scheduler attempt, ``txn`` and ``attempt`` —
  the transaction it belongs to and which of its attempts it was, so a
  retried transaction is one transaction with two attempts, not two
  (:meth:`Tracer.attempt`).

Tracing is explicitly opt-in and the disabled path is a single attribute
check in the interpreter (``tracer is None``), so an untraced database pays
(near) nothing — the contract the overhead benchmark
(``benchmarks/test_bench_obs.py``) checks.

Thread model: span stacks are per-thread (the optimistic scheduler traces
many workers into one tracer), completed roots are collected under a lock,
and ``max_spans`` bounds memory — when the cap trips, further spans are
counted in ``dropped`` rather than silently vanishing.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Span:
    """One step of a traced evaluation."""

    kind: str
    label: str
    version: int
    start: float = 0.0
    duration: float = 0.0
    touched: tuple[str, ...] = ()
    children: list["Span"] = field(default_factory=list)
    txn: Optional[int] = None
    attempt: int = 1
    _touch_acc: Optional[set] = field(default=None, repr=False, compare=False)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def self_duration(self) -> float:
        """Time spent in this step excluding child steps."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def to_doc(self) -> dict:
        doc = {
            "kind": self.kind,
            "label": self.label,
            "version": self.version,
            "duration": self.duration,
            "touched": list(self.touched),
            "children": [c.to_doc() for c in self.children],
        }
        if self.txn is not None:
            doc["txn"], doc["attempt"] = self.txn, self.attempt
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "Span":
        return Span(
            kind=doc["kind"],
            label=doc["label"],
            version=int(doc["version"]),
            duration=float(doc["duration"]),
            touched=tuple(doc["touched"]),
            children=[Span.from_doc(c) for c in doc.get("children", [])],
            txn=doc.get("txn"),
            attempt=int(doc.get("attempt", 1)),
        )


class Tracer:
    """Collects span trees from (possibly many) interpreter threads.

    ``enabled`` can be flipped at any time; a disabled tracer attached to an
    interpreter behaves exactly like no tracer at all.
    """

    def __init__(self, *, enabled: bool = True, max_spans: int = 100_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: list[Span] = []
        self._span_count = 0
        self._dropped = 0
        self.clock = time.perf_counter

    # -- recording (interpreter-facing) ------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, kind: str, label: str, version: int) -> Optional[Span]:
        """Open a span; returns None when the span budget is exhausted
        (the drop is counted, never silent)."""
        with self._lock:
            if self._span_count >= self.max_spans:
                self._dropped += 1
                return None
            self._span_count += 1
        span = Span(kind=kind, label=label, version=version, start=self.clock())
        span._touch_acc = set()
        stack = self._stack()
        if not stack:
            span.txn, span.attempt = getattr(self._local, "tag", None) or (None, 1)
        stack.append(span)
        return span

    @contextmanager
    def attempt(self, txn: int, attempt: int) -> Iterator[None]:
        """Tag the root spans this thread opens inside the block as attempt
        ``attempt`` of transaction ``txn``."""
        self._local.tag = (txn, attempt)
        try:
            yield
        finally:
            self._local.tag = None

    def finish(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span.duration = self.clock() - span.start
        if span._touch_acc:
            span.touched = tuple(sorted(span._touch_acc))
        span._touch_acc = None
        stack = self._stack()
        assert stack and stack[-1] is span, "span finished out of order"
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    def record(
        self,
        kind: str,
        label: str,
        version: int,
        *,
        start: float,
        duration: float,
        touched: tuple[str, ...] = (),
    ) -> Optional[Span]:
        """Record an already-timed root span.

        The :meth:`start`/:meth:`finish` pair assumes strictly nested spans
        per thread; callers that interleave many timed operations on one
        thread — an event loop serving overlapping requests — report
        completed spans here instead.  Subject to the same ``max_spans``
        budget (drops are counted, never silent).
        """
        with self._lock:
            if self._span_count >= self.max_spans:
                self._dropped += 1
                return None
            self._span_count += 1
        span = Span(kind=kind, label=label, version=version, start=start)
        span.duration = duration
        if touched:
            span.touched = tuple(sorted(touched))
        with self._lock:
            self._roots.append(span)
        return span

    def relabel(self, label: str) -> None:
        """Replace the innermost open span's label — used once the step
        knows its outcome (e.g. which condition branch was taken)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].label = label

    def touch(self, names: tuple[str, ...]) -> None:
        """Attribute touched relations to the innermost open span (the
        interpreter's ``_touch`` seam reports here)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            acc = stack[-1]._touch_acc
            if acc is not None:
                acc.update(names)

    # -- reading -----------------------------------------------------------

    def roots(self) -> tuple[Span, ...]:
        """Completed top-level spans, in completion order."""
        with self._lock:
            return tuple(self._roots)

    def spans(self) -> Iterator[Span]:
        """Every completed span, preorder across all roots."""
        for root in self.roots():
            yield from root.walk()

    @property
    def span_count(self) -> int:
        with self._lock:
            return self._span_count

    @property
    def dropped(self) -> int:
        """Spans not recorded because ``max_spans`` tripped."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()
            self._span_count = 0
            self._dropped = 0

    def to_doc(self) -> dict:
        return {
            "dropped": self.dropped,
            "roots": [root.to_doc() for root in self.roots()],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)


NULL_TRACER = Tracer(enabled=False)
"""A shared always-disabled tracer, for call sites that want an object
rather than ``None``."""
