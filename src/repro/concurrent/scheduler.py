"""The optimistic parallel transaction scheduler.

Many workers, one database.  Each submitted :class:`DatabaseProgram` is
evaluated **optimistically**: the worker snapshots the current state (an
immutable value — no lock is held during evaluation), runs the program
through a :class:`~repro.concurrent.tracking.TrackingInterpreter`, and only
then enters the short critical section to **validate and commit**:

* *validate* — the transaction's relation footprint (reads ∪ writes) must be
  disjoint from every write set committed since its snapshot.  Overlap means
  the evaluation may have seen a state no serial order can explain; the
  attempt is aborted and retried under the :class:`RetryPolicy` (exponential
  backoff + jitter, optional :class:`Deadline`).
* *commit* — a transaction that evaluated against an older snapshot has its
  written relations replayed onto the current state (safe precisely because
  validation proved nobody else touched them), then goes through
  :meth:`Database.apply`, so history encodings, constraint enforcement
  and history windows all see commits exactly as serial execution would.

Every commit's :class:`CommitRecord` rides on its outcome, numbered in
serial order; the manager keeps none.  Replaying every committed outcome
serially from the initial state reproduces the final state, which is the
subsystem's serializability witness
(:meth:`TransactionManager.verify_serializable`).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.errors import (
    ConstraintViolation,
    Overloaded,
    ReproError,
    ResourceError,
    RetryExhausted,
    SchedulerClosed,
)
from repro.db.state import State
from repro.transactions.budget import Budget
from repro.transactions.program import DatabaseProgram
from repro.concurrent.admission import AdmissionController, AdmissionTicket
from repro.concurrent.log import CommitRecord, replay_states, states_equivalent
from repro.concurrent.retry import Deadline, RetryPolicy
from repro.concurrent.stats import ConcurrencyStats
from repro.concurrent.tracking import TrackingInterpreter, written_relations
from repro.eval.versions import RelationVersions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine import Database

#: Process-wide transaction numbers: every submission draws one, and the
#: root span of each of its traced attempts carries it.
_TXN_IDS = itertools.count(1)


class TransactionStatus(Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"  # conflicted until the retry budget ran out
    FAILED = "failed"  # precondition/evaluation/constraint failure


@dataclass(frozen=True)
class TransactionOutcome:
    """What became of one submitted transaction."""

    label: str
    status: TransactionStatus
    state: Optional[State]
    attempts: int
    conflicts: tuple[frozenset[str], ...]
    record: Optional[CommitRecord]
    error: Optional[BaseException]

    @property
    def ok(self) -> bool:
        return self.status is TransactionStatus.COMMITTED


class TransactionManager:
    """Accepts transactions from many threads; commits a serializable order.

    >>> from repro.domains import make_domain
    >>> from repro.engine import Database
    >>> domain = make_domain()
    >>> db = Database(domain.schema, initial=domain.sample_state())
    >>> with db.concurrent(workers=4) as mgr:
    ...     futures = [mgr.submit(domain.create_project, f"p{i}", 10)
    ...                for i in range(8)]
    ...     outcomes = [f.result() for f in futures]
    >>> all(o.ok for o in outcomes)
    True
    >>> mgr.verify_serializable(outcomes)
    True

    The manager owns a worker pool and a :class:`ConcurrencyStats`
    surface; it keeps no per-commit history (each committed outcome carries
    its :class:`CommitRecord`).  All commits go through the
    database's :meth:`~repro.engine.Database.apply` under the manager's
    lock; do not interleave direct ``db.execute`` calls while a manager is
    live.
    """

    def __init__(
        self,
        database: "Database",
        *,
        workers: int = 4,
        retry: Optional[RetryPolicy] = None,
        seed: Optional[int] = None,
        admission: Optional[AdmissionController] = None,
        budget: Optional[Budget] = None,
        chaos: Optional[object] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.database = database
        self.workers = workers
        self.retry = retry or RetryPolicy()
        self.admission = admission
        self.budget = budget  # per-submission template; never mutated
        self._chaos = chaos  # testing seam: may inject validation conflicts
        if admission is not None:
            admission.attach_metrics(getattr(database, "metrics", None))
        self.stats = ConcurrencyStats(
            metrics=getattr(database, "metrics", None)
        )
        self._lock = threading.RLock()
        self._version = 0
        self._writes = RelationVersions()
        self._rng = random.Random(seed)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-txn"
        )
        self._initial = database.current
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "TransactionManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    @property
    def version(self) -> int:
        """The number of commits so far (the snapshot counter)."""
        with self._lock:
            return self._version

    @property
    def initial(self) -> State:
        """The database state when this manager was constructed — the base
        of :meth:`verify_serializable`'s serial replay."""
        return self._initial

    def snapshot(self) -> tuple[int, State]:
        """A consistent (version, state) pair to evaluate against."""
        with self._lock:
            return self._version, self.database.current

    def verify_serializable(self, outcomes: Iterable[TransactionOutcome]) -> bool:
        """Replay the committed ``outcomes`` serially from :attr:`initial`
        and compare with the live database (up to fresh-identifier naming).

        ``outcomes`` must include every commit this manager made, in any
        order (uncommitted outcomes are ignored): their ``seq``s must be
        exactly ``1..version``, else :class:`ValueError`.  Commits made
        around the manager (a direct ``db.execute``) are not seen.
        """
        records = [o.record for o in outcomes if o.record is not None]
        with self._lock:
            version, current = self._version, self.database.current
        seqs = sorted(r.seq for r in records)
        if seqs != list(range(1, version + 1)):
            raise ValueError(
                f"outcomes must cover commits 1..{version} exactly; "
                f"got {len(seqs)} committed outcome(s)"
            )
        replayed = replay_states(
            self._initial,
            records,
            interpreter=self.database.interpreter,
            encodings=self.database.encodings,
        )[-1]
        return states_equivalent(self._initial, current, replayed)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        program: DatabaseProgram,
        *args: object,
        label: Optional[str] = None,
        think_time: float = 0.0,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[Deadline | float] = None,
        budget: Optional[Budget] = None,
        on_evaluated: Optional[Callable[[int], None]] = None,
    ) -> "Future[TransactionOutcome]":
        """Schedule a transaction; returns a future for its outcome.

        ``think_time`` models per-transaction client/IO latency (TPC-style
        think time) inside the worker, before evaluation.  ``deadline``
        bounds total retry wall time (a float means seconds from now) *and*
        is threaded into each attempt's evaluation budget, so a diverging
        program is interrupted mid-evaluation rather than only between
        retries.  ``budget`` overrides the manager's default evaluation
        budget for this submission (each attempt runs under a fresh copy).
        ``on_evaluated(attempt)`` is an instrumentation seam invoked after
        optimistic evaluation, before validation — tests use it to force
        deterministic interleavings.

        Raises :class:`~repro.errors.SchedulerClosed` after :meth:`close`,
        and — when the manager has an :class:`AdmissionController` —
        :class:`~repro.errors.Overloaded` / :class:`~repro.errors.CircuitOpen`
        when admission refuses the submission.
        """
        if self._closed:
            raise SchedulerClosed()
        if isinstance(deadline, (int, float)):
            deadline = Deadline.after(float(deadline))
        name = label or program.name
        ticket: Optional[AdmissionTicket] = None
        if self.admission is not None:
            ticket = self.admission.request(name)
        try:
            return self._executor.submit(
                self._run_task,
                program,
                args,
                name,
                think_time,
                retry or self.retry,
                deadline,
                budget if budget is not None else self.budget,
                on_evaluated,
                ticket,
            )
        except RuntimeError as err:
            # close() raced the _closed check above; release the admission
            # slot and surface the same typed error as the fast path.
            if ticket is not None and self.admission is not None:
                self.admission.begin(ticket)
                self.admission.finish(ticket)
            raise SchedulerClosed() from err

    def execute(
        self, program: DatabaseProgram, *args: object, **kwargs
    ) -> TransactionOutcome:
        """Submit and wait — the synchronous convenience form."""
        return self.submit(program, *args, **kwargs).result()

    def run_batch(
        self,
        requests: Sequence[
            tuple[DatabaseProgram, tuple, Optional[str], Optional[Budget]]
        ],
        *,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[Deadline | float] = None,
    ) -> list[TransactionOutcome]:
        """Run many ``(program, args, label, budget)`` requests; block until
        all outcomes are in (returned in request order).

        Semantically identical to one :meth:`submit` per request — every
        transaction still snapshots, evaluates, validates, and commits
        individually under the optimistic protocol — but the executor
        hand-off (queue, future, thread wake-up) is paid once per
        worker-sized chunk instead of once per transaction.  The calling
        thread works chunk 0 itself, so a single-worker manager runs the
        whole batch with no hand-off at all.  This is what lets a wire
        ``BATCH`` frame amortize more than just the network round trip.
        """
        if self._closed:
            raise SchedulerClosed()
        if isinstance(deadline, (int, float)):
            deadline = Deadline.after(float(deadline))
        policy = retry or self.retry
        prepared = []
        for program, args, label, budget in requests:
            name = label or program.name
            ticket = (
                self.admission.request(name)
                if self.admission is not None
                else None
            )
            prepared.append((program, tuple(args), name, budget, ticket))
        if not prepared:
            return []
        chunk_count = max(1, min(self.workers, len(prepared)))
        slots: list[Optional[TransactionOutcome]] = [None] * len(prepared)

        def run_chunk(start: int) -> None:
            for index in range(start, len(prepared), chunk_count):
                program, args, name, budget, ticket = prepared[index]
                slots[index] = self._run_task(
                    program, args, name, 0.0, policy, deadline,
                    budget if budget is not None else self.budget,
                    None, ticket,
                )

        futures = []
        try:
            for start in range(1, chunk_count):
                futures.append(self._executor.submit(run_chunk, start))
        except RuntimeError as err:
            # close() raced us: release tickets of chunks never dispatched,
            # finish the work already in motion, then surface the close.
            if self.admission is not None:
                for start in range(len(futures) + 1, chunk_count):
                    for index in range(start, len(prepared), chunk_count):
                        ticket = prepared[index][4]
                        if ticket is not None:
                            self.admission.begin(ticket)
                            self.admission.finish(ticket)
            run_chunk(0)
            for future in futures:
                future.result()
            raise SchedulerClosed() from err
        run_chunk(0)
        for future in futures:
            future.result()
        return list(slots)  # type: ignore[arg-type]

    def run_all(
        self, calls: Iterable[Sequence[object]], **kwargs
    ) -> list[TransactionOutcome]:
        """Submit ``(program, arg, ...)`` tuples and wait for all outcomes
        (in submission order)."""
        futures = [self.submit(call[0], *call[1:], **kwargs) for call in calls]
        return [f.result() for f in futures]

    # -- the optimistic loop -----------------------------------------------

    def _run_task(
        self,
        program: DatabaseProgram,
        args: tuple[object, ...],
        label: str,
        think_time: float,
        policy: RetryPolicy,
        deadline: Optional[Deadline],
        budget: Optional[Budget],
        on_evaluated: Optional[Callable[[int], None]],
        ticket: Optional[AdmissionTicket] = None,
    ) -> TransactionOutcome:
        try:
            return self._attempt_loop(
                program, args, label, think_time, policy, deadline, budget,
                on_evaluated, ticket,
            )
        finally:
            if ticket is not None and self.admission is not None:
                self.admission.finish(ticket)

    def _attempt_loop(
        self,
        program: DatabaseProgram,
        args: tuple[object, ...],
        label: str,
        think_time: float,
        policy: RetryPolicy,
        deadline: Optional[Deadline],
        budget: Optional[Budget],
        on_evaluated: Optional[Callable[[int], None]],
        ticket: Optional[AdmissionTicket],
    ) -> TransactionOutcome:
        if ticket is not None and self.admission is not None:
            if self.admission.begin(ticket):
                # Shed by drop-oldest while queued: typed outcome, no work.
                self.stats.record_abort()
                error = ticket.shed_error or Overloaded(0, 0)
                return TransactionOutcome(
                    label, TransactionStatus.ABORTED, None, 0, (), None, error,
                )
        started = time.perf_counter()
        conflicts: list[frozenset[str]] = []
        txn = next(_TXN_IDS)  # what a traced attempt's root span is tagged with
        attempt = 0
        while True:
            attempt += 1
            snapshot_version, base = self.snapshot()
            if think_time:
                time.sleep(think_time)
            tracker = TrackingInterpreter.wrapping(self.database.interpreter)
            tracker.budget = self._attempt_budget(budget, deadline)
            tracer = tracker.tracer
            tagged = tracer.attempt(txn, attempt) if tracer is not None else nullcontext()
            try:
                with tagged:
                    after = program.run(base, *args, interpreter=tracker)
            except ResourceError as err:
                # Fuel/deadline/cancellation: a governance abort, not a
                # program failure — the program itself may be fine.
                self.stats.record_abort()
                return TransactionOutcome(
                    label, TransactionStatus.ABORTED, None, attempt,
                    tuple(conflicts), None, err,
                )
            except ReproError as err:
                self.stats.record_failure()
                return TransactionOutcome(
                    label, TransactionStatus.FAILED, None, attempt,
                    tuple(conflicts), None, err,
                )
            rw = tracker.read_write_set()
            if on_evaluated is not None:
                on_evaluated(attempt)

            with self._lock:
                clash = self._conflicts_since(snapshot_version, rw.footprint)
                if not clash and self._chaos is not None:
                    injected = self._chaos.validation_conflict(label, attempt)
                    if injected:
                        clash = frozenset(injected)
                if not clash:
                    if ticket is not None and self.admission is not None:
                        self.admission.record_validation(ticket, True)
                    return self._commit_locked(
                        program, args, label, snapshot_version, base, after,
                        rw, attempt, conflicts, started,
                    )

            # Conflict: abort this attempt, maybe retry after backoff.
            if ticket is not None and self.admission is not None:
                self.admission.record_validation(ticket, False)
            conflicts.append(clash)
            self.stats.record_conflict(clash)
            if policy.exhausted(attempt) or (deadline and deadline.expired()):
                self.stats.record_abort()
                return TransactionOutcome(
                    label, TransactionStatus.ABORTED, None, attempt,
                    tuple(conflicts), None,
                    RetryExhausted(label, clash, attempt),
                )
            self.stats.record_retry()
            pause = policy.delay(attempt, self._rng)
            if deadline is not None:
                pause = min(pause, max(0.0, deadline.remaining()))
            if pause:
                self.stats.record_backoff(pause)
                time.sleep(pause)

    def _attempt_budget(
        self, budget: Optional[Budget], deadline: Optional[Deadline]
    ) -> Optional[Budget]:
        """The per-attempt evaluation budget: a fresh copy of the template
        (counters zeroed, limits kept) with the submission deadline merged
        in as an absolute wall-clock bound.  The deadline is shared across
        all retry attempts of one transaction, so a retry inherits only the
        time that is actually left."""
        if budget is None and deadline is None:
            return None
        meter = budget.fresh() if budget is not None else Budget()
        if deadline is not None:
            at = deadline.started + deadline.seconds
            meter.deadline_at = (
                at if meter.deadline_at is None else min(meter.deadline_at, at)
            )
        return meter

    def _commit_locked(
        self,
        program: DatabaseProgram,
        args: tuple[object, ...],
        label: str,
        snapshot_version: int,
        base: State,
        after: State,
        rw,
        attempt: int,
        conflicts: list[frozenset[str]],
        started: float,
    ) -> TransactionOutcome:
        """Merge and enforce — caller holds the lock and has
        already validated the footprint."""
        current = self.database.current
        if snapshot_version == self._version:
            merged = after
        else:
            merged = self._replay_writes(base, after, rw.writes, current)
        try:
            final = self.database.apply(
                merged,
                label=label,
                program=program,
                args=args,
                snapshot_version=snapshot_version,
            )
        except ConstraintViolation as err:
            self.stats.record_failure()
            return TransactionOutcome(
                label, TransactionStatus.FAILED, None, attempt,
                tuple(conflicts), None, err,
            )
        self._version += 1
        # The effective write set includes whatever history encodings
        # appended at commit time, so later validations see those too.
        effective = written_relations(current, final)
        self._writes.bump(effective, self._version)
        latency = time.perf_counter() - started
        engine_record = self.database.last_record
        record = CommitRecord(
            seq=self._version,
            label=label,
            program=program,
            args=args,
            snapshot_version=snapshot_version,
            read_set=rw.reads,
            write_set=effective,
            attempts=attempt,
            conflicts=tuple(conflicts),
            constraint_results=tuple(
                (r.constraint.name, r.ok) for r in engine_record.results
            ),
            latency=latency,
        )
        self.stats.record_commit(latency)
        return TransactionOutcome(
            label, TransactionStatus.COMMITTED, final, attempt,
            tuple(conflicts), record, None,
        )

    def _conflicts_since(
        self, version: int, footprint: frozenset[str]
    ) -> frozenset[str]:
        """Footprint ∩ (writes committed after ``version``).

        Answered from the :class:`~repro.eval.versions.RelationVersions`
        last-writer index in O(|footprint|) — validation cost no longer
        grows with how many commits landed since the snapshot.
        """
        return self._writes.conflicts(footprint, version)

    def _replay_writes(
        self,
        snapshot: State,
        after: State,
        writes: frozenset[str],
        current: State,
    ) -> State:
        """Graft the transaction's written relations onto ``current``.

        Validation guarantees no commit since ``snapshot`` touched these
        relations, so in ``current`` they are exactly as the transaction saw
        them — taking the transaction's versions yields the state a serial
        re-execution would.  ``assign_relation`` reallocates any fresh tuple
        identifier that another commit claimed meanwhile (identifier naming
        is an implementation detail, cf. the foreach order-equivalence
        rule); bumping ``next_tid`` keeps future allocations fresh.
        """
        result = current
        for name in sorted(writes):
            if not after.has_relation(name):
                continue
            rel = after.relation(name)
            if not result.has_relation(name):
                result = result.create_relation(name, rel.arity)
            result = result.assign_relation(name, rel.arity, rel.to_tuple_set())
        if result.next_tid < after.next_tid:
            result = State(result.relations, result.owner, after.next_tid)
        return result
