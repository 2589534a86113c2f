"""The database engine: executing transactions under integrity enforcement.

:class:`Database` is the runtime a downstream user interacts with.  It owns

* the current state and a maintained :class:`~repro.db.evolution.History`
  window (the partial model of Section 3),
* the schema's integrity constraints, checked after every transaction with
  as much history as each constraint needs — a constraint needing more
  history than the window is either rejected eagerly (``strict=True``) or
  skipped with a record (``strict=False``),
* registered :class:`~repro.constraints.history.HistoryEncoding` transforms
  (Example 4's FIRE relation) that run after every transaction, and
* an interpreter that answers set formers, quantifiers, aggregates and
  whole constraints from relational-algebra plans
  (:class:`~repro.algebra.planner.QueryPlanner`) where it can and walks the
  rest; ``interpreter=Interpreter()`` walks everything.

A violated constraint rolls the transaction back (the state does not
advance) and raises :class:`~repro.errors.ConstraintViolation` — the
"database system must handle changes and check, when a state transition
occurs, that both the new state and the state transition are valid" of
Section 1.

Memory is O(window): the database keeps the window and the
:class:`ExecutionRecord` of the newest commit, never the whole run.  A
durable database's run is its journal (:mod:`repro.storage`), which
recovery and replicas fold back into states.
"""

from __future__ import annotations

import dataclasses
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.algebra.planner import QueryPlanner
from repro.errors import CheckabilityError, ConstraintViolation, ReproError
from repro.constraints.checkability import analyze
from repro.constraints.checker import CheckResult, check_history
from repro.constraints.history import HistoryEncoding
from repro.constraints.model import Constraint, Window
from repro.constraints.semantics import PartialModel
from repro.db.evolution import History
from repro.db.state import State, initial_state
from repro.db.schema import Schema
from repro.db.values import Value
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profile
from repro.obs.trace import Tracer
from repro.transactions.interpreter import Interpreter
from repro.transactions.program import DatabaseProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.store import Recovery, Store


@dataclass
class SkippedCheck:
    """A constraint that could not be checked with the maintained window."""

    constraint: Constraint
    reason: str


class UnenforcedConstraintWarning(UserWarning):
    """A registered constraint needs more history than the database keeps:
    with ``strict=False`` every commit records it as a :class:`SkippedCheck`
    and never checks it.  Carries the constraint name and the reason;
    ``repro_constraints_unenforced`` counts them."""

    def __init__(self, constraint: str, reason: str) -> None:
        self.constraint = constraint
        self.reason = reason
        super().__init__(f"constraint {constraint} is not enforced: {reason}")


@dataclass
class ExecutionRecord:
    """What happened during one :meth:`Database.execute`."""

    label: str
    results: list[CheckResult] = field(default_factory=list)
    skipped: list[SkippedCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def raise_if_violated(self) -> None:
        """Raise :class:`ConstraintViolation` naming the first failed check."""
        failed = next((r for r in self.results if not r.ok), None)
        if failed is not None:
            raise ConstraintViolation(
                failed.constraint.name, f"transaction {self.label} rolled back"
            )


class Database:
    """A running database over a schema, with constraint enforcement.

    >>> from repro.domains import make_domain
    >>> domain = make_domain()
    >>> domain.install_constraints("alloc-references-project")
    >>> db = Database(domain.schema, window=2, initial=domain.sample_state())
    >>> _ = db.execute(domain.hire, "erin", "cs", 90, 25, "S")
    >>> len(db.current.relation("EMP").tuples)
    5
    >>> db.last_record.ok
    True

    ``last_record`` is the :class:`ExecutionRecord` of the newest checked
    commit, rejected or not (``None`` before the first).  ``record_graph``
    is accepted and ignored: the database keeps no evolution graph of its
    run (the window's graph is ``db.history.to_graph()``), and the
    benchmark ledger's workloads (``benchmarks/ledger/workloads.py``) still
    pass it.
    """

    def __init__(
        self,
        schema: Schema,
        window: Optional[int] = 2,
        initial: Optional[State] = None,
        interpreter: Optional[Interpreter] = None,
        strict: bool = False,
        record_graph: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.schema = schema
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if interpreter is None:
            interpreter = Interpreter(planner=QueryPlanner(metrics=self.metrics))
        self.interpreter = interpreter
        self.strict = strict
        self.encodings: list[HistoryEncoding] = []
        self.history = History(window=window)
        start = initial if initial is not None else initial_state(schema)
        self.history.start(start)
        self.last_record: Optional[ExecutionRecord] = None
        self._windows: dict[str, int | Window] = {}
        self._trusted: set[tuple[str, str]] = set()
        self.store: Optional["Store"] = None
        self._durable_seq = 0
        self._planner: Optional[QueryPlanner] = interpreter.planner
        self._warn_unenforced()

    # -- configuration -------------------------------------------------------

    def _unenforceable(self, constraint: Constraint) -> Optional[str]:
        """Why the maintained window cannot check ``constraint``, if so."""
        needed = self.required_window(constraint)
        kept = self.history.window
        if needed is Window.UNCHECKABLE:
            return "not checkable with any maintained history"
        if needed is Window.FULL_HISTORY and kept is not None:
            return f"needs the complete history; window keeps {kept}"
        if isinstance(needed, int) and kept is not None and needed > kept:
            return f"needs {needed} states; window keeps {kept}"
        return None

    def _warn_unenforced(self) -> None:
        """Where it is decided that a constraint will never be checked —
        construction and encoding registration — say so: a typed warning
        per constraint and the ``repro_constraints_unenforced`` gauge.
        (``strict=True`` refuses at the first commit instead.)"""
        unenforced = {
            c.name: why for c in self.schema.constraints if (why := self._unenforceable(c))
        }
        self.metrics.gauge(
            "repro_constraints_unenforced",
            "registered constraints the maintained window cannot check",
        ).set(len(unenforced))
        if not self.strict:
            for name, why in unenforced.items():
                warnings.warn(UnenforcedConstraintWarning(name, why), stacklevel=3)

    def trust(self, constraint_name: str, program_name: str) -> None:
        """Mark (constraint, transaction) as verified-preserved: runtime
        checking of that constraint is skipped for that transaction.

        This is the paper's closing extension: "Transaction verification can
        be combined with constraint validation to make more constraints
        checkable with less amount of history maintained."  Use
        :meth:`verify_and_trust` to establish trust by actual verification.
        """
        self._trusted.add((constraint_name, program_name))

    def verify_and_trust(
        self, constraint: Constraint, program, scenarios=()
    ) -> bool:
        """Verify preservation; on success register the trust pair.

        Returns whether the pair is now trusted.  Only PROVED verdicts are
        trusted automatically — model-checked results depend on the scenario
        coverage, so the caller must :meth:`trust` those explicitly.
        """
        from repro.verification.verifier import Verdict, Verifier

        result = Verifier().verify(constraint, program, scenarios)
        if result.verdict is Verdict.PROVED:
            self.trust(constraint.name, program.name)
            return True
        return False

    def register_encoding(self, encoding: HistoryEncoding) -> None:
        """Register a history encoding; its log relation is added to the
        schema and to the current state.

        Preparing the current state replaces ``history.states[-1]``, so the
        next commit's window starts from the prepared state.
        """
        encoding.extend_schema(self.schema)
        self.encodings.append(encoding)
        current = self.history.states[-1]
        prepared = encoding.prepare_state(current)
        if prepared is not current:
            self.history.states[-1] = prepared
        if self._planner is not None:
            # A formula refused over the old schema may compile now.
            self._planner.invalidate_negative()
        self._warn_unenforced()

    def required_window(self, constraint: Constraint) -> int | Window:
        cached = self._windows.get(constraint.name)
        if cached is None:
            cached = analyze(constraint).window
            self._windows[constraint.name] = cached
        return cached

    def enable_incremental(self) -> None:
        """Does nothing: every commit checks every enforceable constraint."""

    def enable_planner(self, *, verify: bool = False) -> QueryPlanner:
        """Install a fresh planner on this database's interpreter.

        Every database constructed without an explicit ``interpreter``
        already plans: the planner (:mod:`repro.algebra`) compiles the
        read-only fragment — membership-narrowed set formers, ``exists``
        chains, guarded ``forall`` constraints, aggregates — to hash-join
        plans ordered by the row counts and distinct values of the state
        being planned.  Values (including canonical enumeration order) and
        budget enforcement are replicated; errors are the tree walk's own,
        because a node whose predicates could raise on the current column
        types is handed back to it.  The ``_touch`` read sets that drive
        optimistic-conflict validation follow one contract: a plan reports
        the relations it names plus the owners of its parameters — a
        superset of the tree walk's reads, so validation stays sound, at
        the price of a spurious conflict when a named relation sat behind
        an empty prefix, or when a parameter no row needed was a dead
        tuple, whose dereference reads every relation (DESIGN.md §7.6).
        Inexpressible nodes silently fall back to the tree walk.
        Constraint checking, :meth:`query`, and server ``QUERY`` evaluation
        all go through the same interpreter.

        A constraint — a closed ``forall`` prefix over states, transitions
        and tuples — is planned as a whole: a *window plan* joins the
        versions of the history window instead of walking every binding
        (a static ``forall s. s::p`` joins nothing: ``p``'s plan per state;
        a state term ``s;delete(v, R)`` is first regressed to ``s`` through
        the delete axioms).  The situational evaluator's walk stays the
        definition: it answers what is outside the fragment
        (``planner.plan(formula, model)`` raises the reason), and a
        database built with ``interpreter=Interpreter()`` walks everything —
        the oracle the agreement tests compare plans against.

        ``verify=True`` is a test seam: it cross-checks every planned answer
        against the tree walk and raises
        :class:`~repro.errors.PlannerMismatch` on any difference, at the
        cost of the walk behind every answer.

        Returns the planner (``plan()``/``explain()`` render physical
        plans).

        >>> from repro.domains import make_domain
        >>> from repro.logic import builder as b
        >>> from repro.transactions.program import query
        >>> domain = make_domain()
        >>> db = Database(domain.schema, initial=domain.sample_state())
        >>> planner = db.enable_planner()
        >>> db.query(query("headcount", (), b.size_of(b.rel("EMP", 5))))
        4
        >>> planner.exec_count
        1
        """
        self._planner = QueryPlanner(verify=verify, metrics=self.metrics)
        self.interpreter = dataclasses.replace(
            self.interpreter, planner=self._planner
        )
        return self._planner

    def enable_query_cache(self) -> None:
        """Does nothing: every :meth:`query` is one evaluation."""

    # -- durability ------------------------------------------------------------

    def durable(
        self,
        path,
        *,
        checkpoint_every: int = 64,
        sync: str = "commit",
        keep_snapshots: int = 2,
    ) -> "Store":
        """Persist every commit from now on to a store directory at ``path``.

        A fresh directory gets the current state as checkpoint 0; attaching
        to an existing store requires its recovered tail to equal the live
        state (use :meth:`from_store` to *resume* a persisted run).  Each
        subsequent commit appends a journal record inside the commit
        critical section — under the optimistic scheduler that is the same
        lock that serializes validation, so the journal order **is** the
        serial order.
        """
        from repro.storage.store import Store

        store = Store(
            path,
            checkpoint_every=checkpoint_every,
            sync=sync,
            keep_snapshots=keep_snapshots,
            metrics=self.metrics,
        )
        if store.is_fresh():
            store.initialize(self.current)
            self._durable_seq = 0
        else:
            recovery = store.recover()
            if recovery.state != self.current:
                store.close()
                raise ReproError(
                    f"store {store.path} holds a different run "
                    f"({recovery.summary()}); recover with Database.from_store"
                )
            self._durable_seq = recovery.seq
        self.store = store
        return store

    @classmethod
    def from_store(
        cls,
        schema: Schema,
        path,
        *,
        checkpoint_every: int = 64,
        sync: str = "commit",
        keep_snapshots: int = 2,
        **db_kwargs,
    ) -> tuple["Database", "Recovery"]:
        """Recover a persisted run and resume it durably.

        Returns the database positioned at the recovered state plus the
        :class:`~repro.storage.store.Recovery` evidence (how many commits
        came from the snapshot vs. the journal tail, and whether the journal
        ended cleanly).
        """
        from repro.storage.store import Store

        store = Store(
            path,
            checkpoint_every=checkpoint_every,
            sync=sync,
            keep_snapshots=keep_snapshots,
        )
        recovery = store.recover()
        db = cls(schema, initial=recovery.state, **db_kwargs)
        db.store = store
        # The store predates the database here; adopt its registry so
        # journal/checkpoint latencies land beside the scheduler's metrics.
        store.metrics = db.metrics
        store.journal.metrics = db.metrics
        db._durable_seq = recovery.seq
        return db, recovery

    def close(self) -> None:
        """Flush and release the durable store, if any."""
        if self.store is not None:
            self.store.close()

    # -- access ----------------------------------------------------------------

    @property
    def current(self) -> State:
        return self.history.current

    def query(
        self, program: DatabaseProgram, *args: object, budget=None
    ) -> Value:
        """Evaluate a query program at the current state.

        One evaluation through the database's interpreter, so the planner
        answers it from plans where it can.
        ``budget`` (a :class:`~repro.transactions.budget.Budget`) bounds the
        evaluation exactly as in :meth:`execute` — the transaction server
        uses it to meter per-tenant query work.

        >>> from repro.domains import make_domain
        >>> from repro.logic import builder as b
        >>> from repro.transactions.program import query
        >>> domain = make_domain()
        >>> db = Database(domain.schema, initial=domain.sample_state())
        >>> db.query(query("headcount", (), b.size_of(b.rel("EMP", 5))))
        4
        """
        return program.query(
            self.current, *args, interpreter=self.interpreter.metered(budget)
        )

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        program: DatabaseProgram,
        *args: object,
        label: Optional[str] = None,
        budget=None,
    ) -> State:
        """Run a transaction; enforce constraints; advance the history.

        On violation the state does not advance and
        :class:`ConstraintViolation` is raised.  ``budget`` (a
        :class:`~repro.transactions.budget.Budget`) bounds the evaluation —
        a runaway program raises :class:`~repro.errors.BudgetExceeded` or
        :class:`~repro.errors.Cancelled` instead of running forever; the
        state does not advance.
        """
        label = label or program.name
        after = program.run(
            self.current, *args, interpreter=self.interpreter.metered(budget)
        )
        return self._commit(after, label, program.name, args=args)

    def apply(
        self,
        after: State,
        *,
        label: str = "tx",
        program_name: Optional[str] = None,
        args: tuple[object, ...] = (),
        snapshot_version: Optional[int] = None,
    ) -> State:
        """Commit a *precomputed* post-state: run encodings, enforce
        constraints, advance the history.

        This is the commit half of :meth:`execute`, exposed for callers that
        evaluate transactions elsewhere — the optimistic scheduler of
        :mod:`repro.concurrent` evaluates against snapshots off-thread and
        commits merged states through here.  ``program_name`` enables
        trust-pair skipping when the post-state came from a known program;
        ``args`` and ``snapshot_version`` flow into the journal's logical
        metadata when the database is durable.
        """
        return self._commit(
            after, label, program_name, args=args, snapshot_version=snapshot_version
        )

    def rehearse(
        self,
        after: State,
        *,
        label: str = "tx",
        program_name: Optional[str] = None,
    ) -> State:
        """Run the commit-time validation of ``after`` without committing.

        Runs the history encodings and the commit's constraint loop
        (:meth:`_check`) against a forked candidate history and returns the
        final (encoded) post-state, leaving the database untouched:
        history, ``last_record`` and journal all stay as they were.
        Because the loop is the one :meth:`apply` runs, rehearsal raises
        exactly what :meth:`apply` would raise —
        :class:`~repro.errors.ConstraintViolation` on a violated
        constraint, :class:`~repro.errors.CheckabilityError` under
        ``strict`` for an uncheckable one, and any evaluation error a check
        raises.

        This is the PREPARE half of two-phase commit
        (:mod:`repro.sharding.twopc`): a participant rehearses before
        promising, so a prepared transaction can never fail its later
        :meth:`apply` — encodings are deterministic functions of
        ``(before, after)``, making the rehearsed state equal the applied
        one.
        """
        before = self.current
        for encoding in self.encodings:
            after = encoding.record(before, after)
        self._check(after, label, program_name)[0].raise_if_violated()
        return after

    def _check(
        self, after: State, label: str, program_name: Optional[str]
    ) -> tuple[ExecutionRecord, Optional[History]]:
        """The constraint loop of commit and rehearsal alike.

        Per constraint: skip a trusted (constraint, program) pair, then one
        the window cannot check (``strict`` raises instead), else check it
        over the window advanced to ``after``.  Every constraint is
        evaluated before any verdict is acted on, all over one partial
        model of the candidate window.  Returns the record and the
        candidate history advanced to ``after``, or ``None`` when no
        constraint needed it: the fork is lazy, so a transaction whose
        constraints are all skipped never pays for copying the window.
        """
        record = ExecutionRecord(label)
        candidate: Optional[History] = None
        model: Optional[PartialModel] = None
        for c in self.schema.constraints:
            if program_name is not None and (c.name, program_name) in self._trusted:
                record.skipped.append(
                    SkippedCheck(c, f"verified preserved by {program_name}")
                )
                continue
            reason = self._unenforceable(c)
            if reason is not None:
                if self.strict:
                    raise CheckabilityError(f"{c.name}: {reason}")
                record.skipped.append(SkippedCheck(c, reason))
                continue
            if candidate is None:
                candidate = self.history.fork()
                candidate.advance(after, label)
                model = PartialModel.of_history(candidate, self.interpreter)
            record.results.append(
                check_history(c, candidate, self.interpreter, model=model)
            )
        return record, candidate

    def _commit(
        self,
        after: State,
        label: str,
        program_name: Optional[str],
        *,
        args: tuple[object, ...] = (),
        snapshot_version: Optional[int] = None,
    ) -> State:
        before = self.current
        for encoding in self.encodings:
            after = encoding.record(before, after)
        record, candidate = self._check(after, label, program_name)
        self.last_record = record
        record.raise_if_violated()

        if candidate is not None:
            # The candidate already holds the advanced, window-trimmed lists;
            # adopt them instead of re-advancing a second copy.
            self.history.states = candidate.states
            self.history.labels = candidate.labels
        else:
            self.history.advance(after, label)
        if (
            self._planner is not None
            and before.relations.keys() != after.relations.keys()
        ):
            # Created/dropped relations can move a formula that was
            # negatively cached as Incompilable into the fragment.
            self._planner.invalidate_negative()
        if self.store is not None:
            # Journal *after* the in-memory commit succeeded: a violated
            # constraint never reaches disk, and a crash between the
            # in-memory advance and the append merely shortens the
            # recoverable prefix by this one commit.
            self._durable_seq += 1
            self.store.log_commit(
                before,
                after,
                seq=self._durable_seq,
                label=label,
                program=program_name,
                args=args,
                snapshot_version=snapshot_version,
            )
        return after

    def concurrent(
        self,
        *,
        workers: int = 4,
        retry=None,
        seed: Optional[int] = None,
        admission=None,
        budget=None,
    ):
        """An optimistic parallel scheduler over this database.

        Returns a :class:`repro.concurrent.TransactionManager` whose workers
        evaluate transactions against immutable snapshots and commit through
        :meth:`apply` under validation — see ``repro/concurrent``.

        ``admission`` installs an :class:`~repro.concurrent.admission.
        AdmissionController` (bounded queue + optional circuit breaker) in
        front of ``submit``; ``budget`` is a default
        :class:`~repro.transactions.budget.Budget` template applied to
        every submission's evaluation attempts.

        >>> from repro.domains import make_domain
        >>> domain = make_domain()
        >>> db = Database(domain.schema, initial=domain.sample_state())
        >>> with db.concurrent(workers=2) as mgr:
        ...     outcome = mgr.submit(domain.set_salary, "alice", 150).result()
        >>> outcome.ok
        True
        """
        from repro.concurrent.scheduler import TransactionManager

        return TransactionManager(
            self,
            workers=workers,
            retry=retry,
            seed=seed,
            admission=admission,
            budget=budget,
        )

    @contextmanager
    def profile(self, *, max_spans: int = 100_000) -> Iterator[Profile]:
        """Trace every transaction executed inside the block.

        Attaches a :class:`~repro.obs.trace.Tracer` to this database's
        interpreter for the duration and yields a
        :class:`~repro.obs.profile.Profile`: per-transaction flame-style
        breakdowns (one span per composition segment, condition branch, and
        ``foreach`` iteration, carrying the touched relations), plus the
        database's metrics registry, exportable as JSON
        (:meth:`~repro.obs.profile.Profile.to_json`) or Prometheus text
        (:meth:`~repro.obs.profile.Profile.exposition`).

        Works under the optimistic scheduler too — tracking interpreters
        wrap the database interpreter and inherit its tracer, so concurrent
        workers trace into the same profile.

        >>> from repro.domains import make_domain
        >>> domain = make_domain()
        >>> db = Database(domain.schema, initial=domain.sample_state())
        >>> with db.profile() as prof:
        ...     _ = db.execute(domain.hire, "erin", "cs", 90, 25, "S")
        >>> [t.label for t in prof.transactions()]
        ['hire']
        >>> print(prof.render())  # doctest: +ELLIPSIS
        profile breakdown (self time):
        ...
          hire: ... ms, 2 steps, touched ['EMP']
        """
        tracer = Tracer(max_spans=max_spans)
        previous = self.interpreter.tracer
        self.interpreter.tracer = tracer
        try:
            yield Profile(tracer, self.metrics)
        finally:
            self.interpreter.tracer = previous

    def try_execute(
        self, program: DatabaseProgram, *args: object, label: Optional[str] = None
    ) -> tuple[bool, State]:
        """Like :meth:`execute` but returns ``(ok, state)`` instead of
        raising on violation (the state is unchanged when not ok)."""
        try:
            return True, self.execute(program, *args, label=label)
        except ConstraintViolation:
            return False, self.current
