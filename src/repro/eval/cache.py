"""A tabled query cache for pure-fluent evaluations.

Queries (object-sorted database programs, paper Definition 3) are pure:
their value is a function of the argument values and of the relations the
evaluation reads.  That makes them memoizable — the tabling technique of
the transaction-logic literature — provided the cache key pins down
everything the value can depend on:

* **program + arguments** — the lookup key proper, via the journal's
  canonical argument encoding;
* **content of the relations the evaluation read** — captured as a
  :func:`~repro.storage.serialize.touched_digest` over the read set the
  :class:`~repro.concurrent.tracking.TrackingInterpreter` observed through
  the ``_touch`` seam (which reports every relation lookup, dereference,
  active-domain enumeration, and *missing-relation probe*);
* **the state's relation signature** (names and arities) — an evaluation's
  read set is complete only for states with the same relation layout: a
  relation created later can enlarge an active-domain enumeration that the
  original run never knew to touch.

Deliberately **not** part of the key: the interpreter's tracer.  Whether
:meth:`Database.profile` is active must never change what a query returns
or whether it hits the cache — spans are observation, not input.  (The
regression test ``tests/test_eval_cache.py`` pins this.)

Per-relation invalidation (:meth:`QueryCache.invalidate`) is driven by the
physical :func:`~repro.storage.serialize.state_delta` of each commit: an
entry dies when a commit touches a relation it read.  The digest check
makes correctness independent of invalidation — invalidation is hygiene
(it keeps dead entries from occupying LRU slots), the digest is the proof.

The cache is **planner-agnostic by construction**: nothing here knows
whether an answer came from the tree walk or from a compiled
relational-algebra plan.  Each entry stores *its own* read set and proves
validity with a digest over exactly those relations, so any sound
superset of what the answer depends on works — and that is the planner's
read-set contract (DESIGN §7.6): a plan reports every relation it names,
which covers everything the tree walk would have read.  A planned entry
may therefore name a relation the tree walk never reached; the only cost
is that a write to it invalidates the entry needlessly
(``tests/test_algebra_touch.py`` pins the soundness direction).

>>> from repro.domains import make_domain
>>> from repro.logic import builder as b
>>> from repro.transactions.program import query
>>> d = make_domain()
>>> headcount = query("headcount", (), b.size_of(b.rel("EMP", 5)))
>>> cache = QueryCache()
>>> state = d.sample_state()
>>> cache.evaluate(headcount, (), state)
4
>>> cache.evaluate(headcount, (), state)
4
>>> (cache.stats.hits, cache.stats.misses)
(1, 1)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError
from repro.eval.quarantine import quarantine_event
from repro.concurrent.tracking import TrackingInterpreter
from repro.db.state import State
from repro.db.values import Value
from repro.obs.metrics import MetricsRegistry
from repro.storage.serialize import canonical_bytes, encode_args, touched_digest
from repro.transactions.interpreter import Interpreter
from repro.transactions.program import DatabaseProgram


class CacheMismatch(ReproError):
    """Verify mode found a cached value differing from re-evaluation."""


@dataclass
class CacheStats:
    """Counters of everything the cache did (mirrored to metrics)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    clears: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class _Entry:
    program: DatabaseProgram
    reads: frozenset[str]
    schema_sig: tuple[tuple[str, int], ...]
    digest: str
    value: Value


def _state_sig(state: State) -> tuple[tuple[str, int], ...]:
    """The relation layout of a state: sorted (name, arity) pairs."""
    return tuple(
        sorted((name, rel.arity) for name, rel in state.relations.items())
    )


class QueryCache:
    """Memoizes :meth:`DatabaseProgram.query` results with LRU eviction.

    One instance serves any number of states: validity of an entry against
    the *given* state is re-established on every lookup from the state's
    relation signature plus the content digest of the entry's read set, so
    querying an old snapshot, a concurrent worker's base state, or the live
    head are all sound.  Thread-safe: one lock guards the table and its
    counters; evaluation and digest checks run outside it, so two threads
    missing the same key may both evaluate (the later insert wins).
    """

    def __init__(
        self,
        max_entries: int = 1024,
        *,
        verify: bool = False,
        quarantine: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        # Quarantine needs the referee: every hit must be cross-checked so
        # the first wrong answer disables the cache instead of escaping.
        self.verify = verify or quarantine
        self.quarantine = quarantine
        self.enabled = True
        self.stats = CacheStats()
        self.metrics = metrics
        self._entries: dict[tuple[str, bytes], _Entry] = {}
        self._readers: dict[str, set[tuple[str, bytes]]] = {}
        self._lock = threading.Lock()

    # -- the table ---------------------------------------------------------

    def evaluate(
        self,
        program: DatabaseProgram,
        args: tuple[object, ...],
        state: State,
        interpreter: Optional[Interpreter] = None,
    ) -> Value:
        """Return ``program.query(state, *args)``, memoized.

        The key is ``(program.name, canonical-args)`` — never the
        interpreter or its tracer — so profiled and unprofiled runs see
        identical hits and identical values.

        A quarantined cache (``quarantine=True`` after a verify mismatch)
        bypasses the table entirely and evaluates fresh.
        """
        if not self.enabled:
            return program.query(state, *args, interpreter=interpreter)
        key = (program.name, canonical_bytes(encode_args(tuple(args))))
        with self._lock:
            entry = self._entries.get(key)
        if (
            entry is not None
            and entry.program == program
            and entry.schema_sig == _state_sig(state)
            and entry.digest
            == touched_digest(state, entry.reads, include_allocator=False)
        ):
            with self._lock:
                self.stats.hits += 1
                # LRU: re-insertion moves the key to the young end (unless
                # an invalidation dropped it since the lookup above).
                current = self._entries.pop(key, None)
                if current is not None:
                    self._entries[key] = current
            self._count("repro_eval_cache_hits_total", "Query cache hits")
            if self.verify:
                fresh = program.query(state, *args, interpreter=interpreter)
                if fresh != entry.value:
                    detail = (
                        f"{program.name}{args!r}: cached {entry.value!r} "
                        f"!= fresh {fresh!r}"
                    )
                    if self.quarantine:
                        # Disable the cache, keep the commit/query alive:
                        # the fresh value is correct by construction.
                        self.enabled = False
                        self.clear()
                        quarantine_event(self.metrics, "query-cache", detail)
                        return fresh
                    raise CacheMismatch(detail)
            return entry.value

        with self._lock:
            self.stats.misses += 1
        self._count("repro_eval_cache_misses_total", "Query cache misses")
        tracker = TrackingInterpreter.wrapping(interpreter)
        value = program.query(state, *args, interpreter=tracker)
        made = _Entry(
            program=program,
            reads=frozenset(tracker.reads),
            schema_sig=_state_sig(state),
            digest=touched_digest(state, tracker.reads, include_allocator=False),
            value=value,
        )
        with self._lock:
            self._drop(key)
            self._insert(key, made)
        return value

    def invalidate(self, touched: frozenset[str] | set[str], *, structural: bool = False) -> int:
        """Drop entries a commit may have outdated; returns how many died.

        ``touched`` is the commit's :func:`~repro.storage.serialize.
        delta_touched` set; ``structural`` marks commits that created or
        dropped relations, which can change active-domain enumerations no
        entry's read set names — those clear the whole table.
        """
        if structural:
            return self.clear()
        doomed: set[tuple[str, bytes]] = set()
        with self._lock:
            for name in touched:
                doomed.update(self._readers.get(name, ()))
            for key in doomed:
                self._drop(key)
            self.stats.invalidations += len(doomed)
        if doomed:
            self._count(
                "repro_eval_cache_invalidations_total",
                "Query cache entries invalidated by commits",
                len(doomed),
            )
        self._gauge()
        return len(doomed)

    def clear(self) -> int:
        """Empty the table (structural commits, encoding registration)."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._readers.clear()
            self.stats.clears += 1
            self.stats.invalidations += n
        if n:
            self._count(
                "repro_eval_cache_invalidations_total",
                "Query cache entries invalidated by commits",
                n,
            )
        self._gauge()
        return n

    def __len__(self) -> int:
        return len(self._entries)

    # -- internals ---------------------------------------------------------

    def _insert(self, key: tuple[str, bytes], entry: _Entry) -> None:
        """Caller holds the lock (as for :meth:`_drop`)."""
        self._entries[key] = entry
        for name in entry.reads:
            self._readers.setdefault(name, set()).add(key)
        while len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            self._drop(oldest)
            self.stats.evictions += 1
        self._gauge()

    def _drop(self, key: tuple[str, bytes]) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for name in entry.reads:
            keys = self._readers.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._readers[name]

    def _count(self, name: str, help: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help).inc(amount)

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_eval_cache_entries", "Live query cache entries"
            ).set(len(self._entries))
