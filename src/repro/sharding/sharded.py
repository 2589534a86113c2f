"""``ShardedDatabase``: N independent engines behind one transaction API.

Each shard is a full :class:`~repro.engine.Database` over the sub-schema
its placement cluster induces (its relations *and* the constraints homed
on them), with its own commit lock.  A durable router's shard is a durable
``Database`` whose :class:`~repro.storage.Store` (``<path>/shard-<i>``)
numbers and checkpoints its journal: every commit journals through
:meth:`Database.apply`, and the router writes only 2PC PREPAREs and abort
OUTCOMEs to that store.  The journal-order-is-serial-order invariant
therefore holds **per shard**; the global serial order is any interleaving
consistent with the per-shard orders, which cross-shard transactions
stitch together by holding every participant's lock for their whole
prepare→decide→apply window.

Routing is the static footprint analysis of :func:`repro.eval.footprint.
program_footprint`: a program whose footprint lands on one shard commits
there with **no coordination whatsoever** — no shared lock, no coordinator
round-trip, nothing global but a monotone version counter.  Anything wider
runs two-phase commit (:mod:`repro.sharding.twopc`) over the per-shard
journals.

Tuple identifiers stay globally unique by **block allocation**: a global
counter (the only cross-shard synchronization single-shard commits ever
touch, one lock-protected integer add per block, not per commit) hands out
contiguous blocks of :data:`ALLOC_BLOCK` identifiers; each shard allocates
within its current block and every cross-shard transaction or query
evaluates in a fresh block, so ids minted concurrently can never collide.
Unused ids in a block cost nothing — ``State.owner`` is a sparse chunk map
(:mod:`repro.db.ownermap`), so a commit costs O(rows written) however far
the id space has grown — and a transaction that outgrows its block is
simply re-evaluated (deterministically) against a fresh block sized to fit.

One interpreter evaluates everything: :attr:`ShardedDatabase.interpreter`,
which plans by default exactly as a :class:`~repro.engine.Database`'s
does, is every shard engine's interpreter too.  Shard constraint checks,
transaction bodies (single-shard and the 2PC merged body), merged-cut
queries and recovered or promoted primaries all answer from its one
:class:`~repro.algebra.planner.QueryPlanner` where they can; a merged cut
reuses the shard ``Relation`` objects, so the planner's identity-keyed
caches serve shard views and cuts alike.  ``interpreter=Interpreter()``
walks the whole sharded database — the oracle the agreement tests
compare against.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.algebra.planner import QueryPlanner
from repro.concurrent.log import CommitRecord
from repro.concurrent.scheduler import TransactionOutcome, TransactionStatus
from repro.db.schema import Schema
from repro.db.state import State, initial_state
from repro.engine import Database
from repro.errors import (
    Fenced,
    InDoubt,
    ReproError,
    ShardError,
    ShardUnavailable,
)
from repro.eval.footprint import Footprint, program_footprint
from repro.obs.metrics import MetricsRegistry
from repro.sharding.failover import FailureDetector, ShardHealth
from repro.sharding.replica import Promotion, Replica
from repro.sharding.routing import ShardPlan, plan_placement
from repro.sharding.twopc import (
    Coordinator,
    SimulatedCrash,
    TwoPhaseFaults,
    applied_outcomes,
    resolve_pending,
)
from repro.storage.journal import read_journal
from repro.storage.serialize import (
    delta_touched,
    state_delta,
    touched_digest,
)
from repro.storage.store import Recovery, Store
from repro.transactions.interpreter import Interpreter
from repro.transactions.program import DatabaseProgram

#: Default tuple-identifier block span.  The owner index is sparse, so the
#: ids a block leaves unused are free; transactions needing more ids than a
#: block holds re-evaluate against a fresh, larger block.
ALLOC_BLOCK = 1024


def _owner_of(relations: dict) -> dict:
    """The owner entries of ``relations`` — O(their rows), never padded."""
    return {tid: name for name, rel in relations.items() for tid in rel.tuples}


@dataclass
class _Shard:
    """One shard's engine plus its commit lock and id block.

    A durable shard's journal is ``db.store``.  ``db`` is ``None`` while
    the shard's primary is dead (killed by
    :meth:`ShardedDatabase.kill_shard` and not yet healed by promotion);
    routing refuses such shards with :class:`~repro.errors.
    ShardUnavailable` instead of touching them.  ``standby`` is the
    tailing replica :meth:`ShardedDatabase.enable_failover` keeps ready to
    promote (``None`` when failover keeps none).
    """

    index: int
    db: Optional[Database]
    lock: threading.RLock
    block_hi: int  # exclusive upper bound of this shard's allocator block
    standby: Optional[Replica] = None


@dataclass(frozen=True)
class Resolution:
    """One in-doubt transaction resolved during :meth:`ShardedDatabase.
    recover` — ``why`` names the evidence rule that decided it."""

    txid: str
    shard: int
    decision: str
    why: str


@dataclass(frozen=True)
class ShardRecovery:
    """The full report of a sharded recovery."""

    shards: tuple[Recovery, ...]
    resolutions: tuple[Resolution, ...]

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.shards)

    def summary(self) -> str:
        lines = [
            f"shard {i}: {r.summary()}" for i, r in enumerate(self.shards)
        ]
        for res in self.resolutions:
            lines.append(
                f"in-doubt {res.txid} on shard {res.shard}: "
                f"{res.decision} ({res.why})"
            )
        return "\n".join(lines)


class ShardedDatabase:
    """Partition one schema's relations across N independent shards.

    >>> from repro.db.schema import Schema
    >>> from repro.logic import builder as b
    >>> from repro.transactions.program import query, transaction
    >>> schema = Schema()
    >>> _ = schema.add_relation("USERS", ("id", "name"))
    >>> _ = schema.add_relation("EVENTS", ("id", "what"))
    >>> sdb = ShardedDatabase(schema, shards=2)
    >>> x, y = b.atom_var("x"), b.atom_var("y")
    >>> signup = transaction("signup", (x, y),
    ...     b.insert(b.mktuple(x, y), "USERS"))
    >>> _ = sdb.execute(signup, 1, "ada")
    >>> sdb.query(query("users", (), b.size_of(b.rel("USERS", 2))))
    1
    >>> sdb.stats()["single_shard_commits"]
    1
    >>> sdb.close()
    """

    #: Duck-typing marker the transaction server routes on.
    is_sharded = True

    def __init__(
        self,
        schema: Schema,
        *,
        shards: int = 4,
        window: Optional[int] = 2,
        initial: Optional[State] = None,
        placement=None,
        path: Optional[str] = None,
        sync: str = "commit",
        checkpoint_every: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        strict: bool = False,
        interpreter: Optional[Interpreter] = None,
        faults: Optional[TwoPhaseFaults] = None,
        _resume=None,
    ) -> None:
        self.schema = schema
        self.plan: ShardPlan = plan_placement(
            schema, shards, overrides=placement
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if interpreter is None:
            interpreter = Interpreter(planner=QueryPlanner(metrics=self.metrics))
        self.interpreter = interpreter
        self.strict = strict
        self.checkpoint_every = checkpoint_every
        self.faults = faults
        self.path = os.fspath(path) if path is not None else None
        self._alloc_lock = threading.Lock()
        self._version_lock = threading.Lock()
        self._version = 0
        self._crashed = False
        self._pool: Optional[ThreadPoolExecutor] = None
        self._live_placement: dict[str, int] = {}
        self._window = window
        self._sync = sync
        self._detector: Optional[FailureDetector] = None
        self._auto_promote = False
        self._default_retry_after = 0.05

        if _resume is not None:
            states, stores, coordinator = _resume
            self.coordinator = coordinator
            # Re-base the allocator past every identifier recovery saw:
            # shard allocators move to fresh blocks above the global high
            # water mark, so ids from interrupted transaction blocks can
            # never be re-minted.
            high = 1
            for state in states:
                high = max(high, state.next_tid)
                for rel in state.relations.values():
                    for tid in rel.tuples:
                        high = max(high, tid + 1)
            self._next_free = high
            rebuilt = []
            for i, state in enumerate(states):
                lo, hi = self._grab_block()
                rebuilt.append(
                    _Shard(
                        index=i,
                        db=self._engine(i, state, lo, stores[i]),
                        lock=threading.RLock(),
                        block_hi=hi,
                    )
                )
            self.shards = tuple(rebuilt)
            self._version = sum(store.seq for store in stores)
            return

        full = initial if initial is not None else initial_state(schema)
        self._next_free = full.next_tid
        stores: list[Optional[Store]] = [None] * shards
        if self.path is not None:
            self.coordinator = Coordinator(
                os.path.join(self.path, "coordinator"),
                sync=sync,
                metrics=self.metrics,
            )
            for i in range(shards):
                store = Store(
                    os.path.join(self.path, f"shard-{i}"),
                    checkpoint_every=checkpoint_every,
                    sync=sync,
                    metrics=self.metrics,
                )
                if not store.is_fresh():
                    raise ShardError(
                        f"shard directory {store.path} already holds a run; "
                        f"use ShardedDatabase.recover()"
                    )
                stores[i] = store
        else:
            self.coordinator = Coordinator(None, metrics=self.metrics)

        built = []
        for i in range(shards):
            rels = {
                name: rel
                for name, rel in full.relations.items()
                if self.plan.shard_of(name) == i
            }
            lo, hi = self._grab_block()
            state = State(rels, _owner_of(rels), lo)
            if stores[i] is not None:
                stores[i].initialize(state)
            built.append(
                _Shard(
                    index=i,
                    db=self._engine(i, state, lo, stores[i]),
                    lock=threading.RLock(),
                    block_hi=hi,
                )
            )
        self.shards = tuple(built)

    # -- construction helpers ----------------------------------------------

    def _engine(
        self, index: int, state: State, next_tid: int, store: Optional[Store]
    ) -> Database:
        """Shard ``index``'s engine over ``state``, allocating from
        ``next_tid``, on the router's :attr:`interpreter` (its checks plan
        or walk exactly as the bodies and queries do), journaling to
        ``store`` (``None`` in memory) as :meth:`Database.from_store`'s."""
        db = Database(
            self._subschema(index),
            window=self._window,
            initial=State(state.relations, state.owner, next_tid),
            interpreter=self.interpreter,
            strict=self.strict,
            metrics=self.metrics,
        )
        db.store = store
        return db

    def _subschema(self, index: int) -> Schema:
        """The sub-schema shard ``index`` enforces: its relations plus
        every constraint homed on it (whole footprint co-located there)."""
        sub = Schema()
        for name in sorted(self.schema.relations):
            if self.plan.shard_of(name) == index:
                sub.add_relation(name, self.schema.relations[name].attributes)
        for constraint in self.schema.constraints:
            if self.plan.constraint_home.get(constraint.name) == index:
                sub.add_constraint(constraint)
        return sub

    @classmethod
    def recover(
        cls,
        schema: Schema,
        path: str,
        *,
        shards: Optional[int] = None,
        window: Optional[int] = 2,
        placement=None,
        sync: str = "commit",
        checkpoint_every: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        strict: bool = False,
        interpreter: Optional[Interpreter] = None,
    ) -> tuple["ShardedDatabase", ShardRecovery]:
        """Re-derive a sharded run from disk and resolve every in-doubt
        transaction.

        Each shard recovers its own longest provable prefix
        (:meth:`repro.storage.Store.recover`); prepares without outcomes
        are then settled by :func:`repro.sharding.twopc.resolve_pending`
        — coordinator decision record first, sibling-shard outcome second,
        presumed abort otherwise — and the resolution is made durable
        (decision record, then per-shard OUTCOME records) **before** the
        database accepts new work, so a crash during recovery re-resolves
        identically.
        """
        path = os.fspath(path)
        metrics = metrics if metrics is not None else MetricsRegistry()
        if shards is None:
            found = [
                int(name.split("-", 1)[1])
                for name in os.listdir(path)
                if name.startswith("shard-")
                and name.split("-", 1)[1].isdigit()
            ]
            if not found:
                raise ShardError(f"no shard directories under {path}")
            shards = max(found) + 1
        coordinator = Coordinator(
            os.path.join(path, "coordinator"), sync=sync, metrics=metrics
        )
        stores = [
            Store(
                os.path.join(path, f"shard-{i}"),
                checkpoint_every=checkpoint_every,
                sync=sync,
                metrics=metrics,
            )
            for i in range(shards)
        ]
        # Fence every shard before reading its tail: a zombie of the
        # pre-crash process must not append while (or after) recovery
        # resolves its in-doubt prepares.
        for store in stores:
            store.advance_fence()
        recoveries = [store.recover() for store in stores]
        for store, recovery in zip(stores, recoveries):
            if not recovery.clean:
                # Resolution appends OUTCOMEs: never after a bad tail.
                store.truncate(recovery.seq)

        applied = applied_outcomes(
            record for recovery in recoveries for record in recovery.replayed
        )

        resolutions: list[Resolution] = []
        states: list[State] = []
        for i, recovery in enumerate(recoveries):
            state, settled = resolve_pending(
                stores[i],
                recovery.state,
                recovery.pending,
                coordinator=coordinator,
                applied=applied,
                metrics=metrics,
                shards=(i,),
            )
            resolutions.extend(
                Resolution(txid, i, decision, why)
                for txid, decision, why in settled
            )
            states.append(state)

        sdb = cls(
            schema,
            shards=shards,
            window=window,
            placement=placement,
            path=path,
            sync=sync,
            checkpoint_every=checkpoint_every,
            metrics=metrics,
            strict=strict,
            interpreter=interpreter,
            _resume=(states, stores, coordinator),
        )
        report = ShardRecovery(tuple(recoveries), tuple(resolutions))
        return sdb, report

    # -- failover ----------------------------------------------------------

    def enable_failover(
        self,
        *,
        suspect_after: int = 1,
        down_after: int = 3,
        retry_after: float = 0.05,
        clock=time.monotonic,
        auto_promote: bool = True,
        tracer=None,
        standbys: bool = True,
    ) -> FailureDetector:
        """Arm failure detection (and, with ``auto_promote``, self-healing
        promotion) for every shard.

        Health observations are fed inline — every routed touch of a shard
        is an observation — and by :meth:`failover_tick` probes, so idle
        shards are detected too.  ``standbys`` keeps one tailing
        :class:`~repro.sharding.replica.Replica` per shard ready to
        promote.  Requires a durable database (``path=...``).
        """
        if self.path is None:
            raise ShardError(
                "failover requires a durable sharded database (path=...)"
            )
        self._detector = FailureDetector(
            len(self.shards),
            suspect_after=suspect_after,
            down_after=down_after,
            retry_after=retry_after,
            clock=clock,
            metrics=self.metrics,
            tracer=tracer,
        )
        self._auto_promote = auto_promote
        if standbys:
            for shard in self.shards:
                if shard.standby is None:
                    shard.standby = self._replica(shard.index)
        return self._detector

    def _replica(self, index: int) -> Replica:
        """A fresh replica tailing shard ``index``'s store, on the router's
        interpreter."""
        return Replica(
            os.path.join(self.path, f"shard-{index}"),
            interpreter=self.interpreter,
            metrics=self.metrics,
        )

    def failover_tick(self) -> dict[int, ShardHealth]:
        """One round of health probes over every shard (call from a timer).

        Feeds the detector, auto-promotes any shard that reaches DOWN
        (when armed with ``auto_promote``), and returns the post-tick
        health map.  Also polls the standby replicas so they stay close to
        their primaries' journal heads.
        """
        if self._detector is None:
            raise ShardError("enable_failover() before failover_tick()")
        out: dict[int, ShardHealth] = {}
        for shard in self.shards:
            alive = shard.db is not None
            health = self._detector.observe(shard.index, ok=alive)
            if health is ShardHealth.DOWN and not alive and self._auto_promote:
                if self.promote_shard(shard.index) is not None:
                    health = self._detector.state(shard.index)
            elif alive and shard.standby is not None:
                shard.standby.poll()
            out[shard.index] = health
        return out

    def kill_shard(self, index: int) -> _Shard:
        """Simulate the death of one shard's primary, in place.

        The live :class:`_Shard` slot is detached (``db`` set to ``None``)
        so routing sees a dead shard; the returned **zombie** handle keeps
        the old engine, whose ``db.store`` is about to be fenced — exactly
        what a deposed process still holds — and no standby.
        The chaos harness replays writes through the zombie to prove the
        fence refuses them.
        """
        shard = self.shards[index]
        with shard.lock:
            zombie = _Shard(
                index=index,
                db=shard.db,
                lock=threading.RLock(),
                block_hi=shard.block_hi,
            )
            shard.db = None
        self.metrics.counter(
            "repro_failover_kills_total",
            "shard primaries killed (simulated)",
            shard=str(index),
        ).inc()
        return zombie

    def promote_shard(
        self, index: int, *, replica: Optional[Replica] = None
    ) -> Optional[Promotion]:
        """Promote a replica to be shard ``index``'s new primary.

        Uses the standing standby replica (or ``replica``), which fences
        the old primary, drains the journal, resolves stashed prepares
        against the coordinator's decisions and the sibling shards'
        applied outcomes, and re-opens the store at the new epoch
        (:meth:`repro.sharding.replica.Replica.promote`).  Afterwards a
        fresh standby re-seeds from the promotion's first checkpoint.
        Returns ``None`` when the shard is already healthy (another thread
        won the race).
        """
        if self.path is None:
            raise ShardError(
                "failover requires a durable sharded database (path=...)"
            )
        shard = self.shards[index]
        with shard.lock:
            if shard.db is not None:
                return None
            rep = replica or shard.standby or self._replica(index)
            shard.standby = None
            promotion = rep.promote(
                coordinator=self.coordinator,
                applied=self._sibling_outcomes(exclude=index),
                sync=self._sync,
                checkpoint_every=self.checkpoint_every,
            )
            lo, hi = self._grab_block()
            shard.db = self._engine(index, promotion.state, lo, promotion.store)
            shard.block_hi = hi
        if self._detector is not None:
            duration = self._detector.mark_recovered(index)
            if duration is not None:
                self.metrics.histogram(
                    "repro_failover_unavailable_seconds",
                    "shard unavailability window (DOWN until promoted)",
                ).observe(duration)
        # Re-seed: a fresh standby re-bases from the promotion's first
        # checkpoint and tails the new epoch.
        shard.standby = self._replica(index)
        return promotion

    def _sibling_outcomes(self, exclude: int) -> dict[str, str]:
        """Evidence rule 2 for promotion: outcomes the *other* shards
        already applied are durable witnesses of the decision."""
        return applied_outcomes(
            record
            for shard in self.shards
            if shard.index != exclude and shard.db is not None
            for record in read_journal(shard.db.store.journal_path).records
        )

    def _retry_hint(self) -> float:
        if self._detector is not None:
            return self._detector.retry_after
        return self._default_retry_after

    def _observe_failure(self, index: int) -> None:
        if self._detector is not None:
            self._detector.observe(index, ok=False)

    def _ensure_up(self, index: int) -> None:
        """Routing gate: refuse (typed, retry-later) or heal a dead shard.

        Every routed touch is a health observation.  While the detector
        holds the shard SUSPECT, callers get :class:`~repro.errors.
        ShardUnavailable` with the configured ``retry_after``; the touch
        that drives it to DOWN triggers promotion inline when
        ``auto_promote`` is armed — self-healing without an operator.
        """
        shard = self.shards[index]
        if shard.db is not None:
            if self._detector is not None:
                self._detector.observe(index, ok=True)
            return
        if self._detector is None:
            raise ShardUnavailable(
                index, retry_after=self._default_retry_after
            )
        health = self._detector.observe(index, ok=False)
        if health is ShardHealth.DOWN and self._auto_promote:
            if self.promote_shard(index) is not None or shard.db is not None:
                return
            health = self._detector.state(index)
        raise ShardUnavailable(
            index, retry_after=self._detector.retry_after, state=health.value
        )

    def _maybe_kill(self, point: str, writers: Sequence[_Shard]) -> None:
        """Fault hook: kill one writer's primary at a named 2PC point."""
        faults = self.faults
        if faults is None or faults.kill_primary_at != point or not writers:
            return
        victim = writers[min(faults.kill_writer, len(writers) - 1)]
        if victim.db is not None:
            faults.killed.append(self.kill_shard(victim.index))

    def _abort_outcomes(self, txid, writers, prepared) -> None:
        """Durably presume abort for ``txid``, then resolve the landed
        prepares on every still-live writer.  The decision record lands
        first, so a crash in between re-resolves identically."""
        self.coordinator.decide(
            txid, "abort", shards=tuple(s.index for s in writers)
        )
        for shard in writers:
            prep = prepared.get(shard.index)
            if shard.db is None or prep is None:
                continue
            shard.db.store.log_outcome(shard.db.current, prep, "abort")

    # -- routing -----------------------------------------------------------

    def _shard_of(self, name: str) -> int:
        live = self._live_placement.get(name)
        if live is not None:
            return live
        return self.plan.shard_of(name)

    def _participants(self, footprint: Footprint) -> list[int]:
        """The shards a program may touch (sorted).  Arity widening with no
        constraint home fans out to every shard: relations of that arity
        may exist anywhere, now or by the time evaluation runs."""
        if not footprint.eligible or footprint.universe:
            return list(range(len(self.shards)))
        found = {self._shard_of(name) for name in footprint.relations}
        for arity in footprint.arities:
            homed = self.plan.arity_home.get(arity)
            if homed is None:
                return list(range(len(self.shards)))
            found.add(homed)
        if not found:
            found = {0}
        return sorted(found)

    def _check_alive(self) -> None:
        if self._crashed:
            raise ShardError(
                "sharded database crashed mid-2PC (simulated); "
                "recover() it from disk"
            )

    def _grab_block(self, span: int = ALLOC_BLOCK) -> tuple[int, int]:
        """A fresh contiguous id block ``[lo, hi)`` from the global counter
        — the only allocation-related synchronization between shards."""
        with self._alloc_lock:
            lo = self._next_free
            self._next_free += span
        return lo, lo + span

    def _bump_version(self) -> tuple[int, int]:
        with self._version_lock:
            previous = self._version
            self._version += 1
            return previous, self._version

    @property
    def version(self) -> int:
        """Total commits across every shard (the server's snapshot hint)."""
        return self._version

    def _record_created(self, before: State, after: State, shard: int) -> None:
        for name in after.relations:
            if name not in before.relations:
                self._live_placement[name] = shard
        for name in before.relations:
            if name not in after.relations:
                self._live_placement.pop(name, None)

    def _guard_created(self, before: State, after: State) -> None:
        """Refuse a runtime relation creation that would scatter a homed
        arity — silently weakening an arity-quantified constraint is worse
        than a typed refusal telling the user to declare the relation."""
        for name, rel in after.relations.items():
            if name in before.relations:
                continue
            home = self.plan.arity_home.get(rel.arity)
            if home is not None and self._shard_of(name) != home:
                raise ShardError(
                    f"creating relation {name!r} (arity {rel.arity}) on "
                    f"shard {self._shard_of(name)} would scatter arity "
                    f"{rel.arity}, which constraint checking homes on "
                    f"shard {home}; declare it in the schema instead"
                )

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        program: DatabaseProgram,
        *args: object,
        label: Optional[str] = None,
        budget=None,
    ) -> State:
        """Run a transaction; raises like :meth:`repro.engine.Database.
        execute` (plus :class:`~repro.errors.InDoubt` under injected 2PC
        crashes).  Returns the post-state as the transaction saw it — the
        single shard's state, or the merged view for cross-shard commits."""
        state, _ = self._execute(program, args, label, budget)
        return state

    def execute_outcome(
        self,
        program: DatabaseProgram,
        *args: object,
        label: Optional[str] = None,
        budget=None,
    ) -> TransactionOutcome:
        """Like :meth:`execute` but returns a :class:`~repro.concurrent.
        scheduler.TransactionOutcome` instead of raising — the shape the
        transaction server and ``run_batch`` consume."""
        name = label or program.name
        try:
            state, record = self._execute(program, args, name, budget)
        except ReproError as err:
            return TransactionOutcome(
                name, TransactionStatus.FAILED, None, 1, (), None, err
            )
        return TransactionOutcome(
            name, TransactionStatus.COMMITTED, state, 1, (), record, None
        )

    def run_batch(
        self,
        requests: Sequence[tuple],
        *,
        retry=None,
        deadline=None,
    ) -> list[TransactionOutcome]:
        """Run ``(program, args, label, budget)`` requests across shards in
        parallel; outcomes return in request order.  ``retry``/``deadline``
        are accepted for signature compatibility with the optimistic
        manager's batch API — lock-based shard commits neither conflict nor
        retry."""
        del retry, deadline
        if not requests:
            return []
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=max(2, len(self.shards)),
                thread_name_prefix="shard",
            )
        futures = [
            self._pool.submit(
                self.execute_outcome, program, *tuple(args),
                label=label, budget=budget,
            )
            for program, args, label, budget in requests
        ]
        return [f.result() for f in futures]

    def _execute(
        self, program: DatabaseProgram, args, label, budget
    ) -> tuple[State, CommitRecord]:
        label = label or program.name
        self._check_alive()
        footprint = program_footprint(program, self.schema)
        participants = self._participants(footprint)
        for index in participants:
            self._ensure_up(index)
        if len(participants) == 1:
            return self._execute_single(
                self.shards[participants[0]], program, args, label, budget,
                footprint,
            )
        return self._execute_cross(
            [self.shards[i] for i in participants], program, args, label,
            budget, footprint,
        )

    def _make_record(
        self, footprint, program, args, label, delta, checked, latency
    ) -> CommitRecord:
        """``checked``: the ExecutionRecord of every writing shard."""
        previous, version = self._bump_version()
        write_set = frozenset(delta_touched(delta))
        return CommitRecord(
            seq=version,
            label=label,
            program=program,
            args=tuple(args),
            snapshot_version=previous,
            read_set=frozenset(footprint.relations) | write_set,
            write_set=write_set,
            attempts=1,
            conflicts=(),
            constraint_results=tuple(
                (r.constraint.name, r.ok) for ex in checked for r in ex.results
            ),
            latency=latency,
        )

    def _run_in_block(
        self, program, args, label, budget, state: State, block_hi: int
    ) -> tuple[State, State, int]:
        """Run ``program`` on ``state``, whose allocator starts an id block
        ending at ``block_hi``.  A body that outgrew the block re-runs once
        (deterministically) on a fresh block sized to fit.  Returns the
        state it ran on, the post-state and the end of its block."""
        after = program.run(
            state, *args, interpreter=self.interpreter.metered(budget)
        )
        if after.next_tid > block_hi:
            span = max(ALLOC_BLOCK, 2 * (after.next_tid - state.next_tid))
            lo, block_hi = self._grab_block(span)
            state = State(state.relations, state.owner, lo)
            after = program.run(
                state, *args, interpreter=self.interpreter.metered(budget)
            )
            if after.next_tid > block_hi:  # pragma: no cover - defensive
                raise ShardError(
                    f"nondeterministic allocation re-running {label}"
                )
        return state, after, block_hi

    def _execute_single(
        self, shard: _Shard, program, args, label, budget, footprint
    ) -> tuple[State, CommitRecord]:
        started = time.perf_counter()
        with shard.lock:
            self._check_alive()
            if shard.db is None:
                self._ensure_up(shard.index)  # killed since routing: heal
            db = shard.db
            if db.store is not None:
                # Fail before any in-memory change if we were deposed.
                db.store.check_fence()
            before = db.current
            _, raw, shard.block_hi = self._run_in_block(
                program, args, label, budget, before, shard.block_hi
            )
            self._guard_created(before, raw)
            try:
                final = db.apply(
                    raw, label=label, program_name=program.name,
                    args=tuple(args),
                )
            except Fenced:
                # Deposed between the fence pre-check and the append: the
                # zombie stops serving; the promoted run lacks this commit.
                shard.db = None
                db.close()
                raise
            self._record_created(before, final, shard.index)
            latency = time.perf_counter() - started
            record = self._make_record(
                footprint, program, args, label, state_delta(before, final),
                [db.last_record], latency,
            )
        self.metrics.counter(
            "repro_shard_commits_total",
            "transactions committed, by shard and routing mode",
            shard=str(shard.index),
            mode="single",
        ).inc()
        self.metrics.histogram(
            "repro_shard_commit_seconds",
            "commit latency by routing mode",
            mode="single",
        ).observe(latency)
        return final, record

    def _merge(self, states: Sequence[State], next_tid: int) -> State:
        relations = {}
        for state in states:
            relations.update(state.relations)
        return State(relations, _owner_of(relations), next_tid)

    def _split_views(
        self, shards: Sequence[_Shard], after: State
    ) -> dict[int, State]:
        """Partition the merged post-state back into per-shard views.

        Untouched relations keep their identity across merge/split, so the
        per-shard deltas stay O(touched)."""
        indices = {s.index for s in shards}
        per_shard: dict[int, dict] = {s.index: {} for s in shards}
        for name, rel in after.relations.items():
            target = self._shard_of(name)
            if target not in indices:
                raise ShardError(
                    f"evaluation wrote relation {name!r} owned by shard "
                    f"{target}, which was not a routed participant"
                )
            per_shard[target][name] = rel
        views = {}
        for shard in shards:
            rels = per_shard[shard.index]
            views[shard.index] = State(
                rels, _owner_of(rels), shard.db.current.next_tid
            )
        return views

    @staticmethod
    def _delta_empty(delta: dict) -> bool:
        return not (
            delta.get("created")
            or delta.get("dropped")
            or delta.get("changes")
        )

    def _reach(self, point: str) -> None:
        if self.faults is not None:
            self.faults.reach(point)

    def _execute_cross(
        self, shards: list[_Shard], program, args, label, budget, footprint
    ) -> tuple[State, CommitRecord]:
        started = time.perf_counter()
        acquired: list[_Shard] = []
        txid: Optional[str] = None
        try:
            for shard in shards:  # index order: deadlock-free
                shard.lock.acquire()
                acquired.append(shard)
            self._check_alive()
            for shard in shards:
                if shard.db is None:
                    self._ensure_up(shard.index)  # killed since routing
            block_lo, block_hi = self._grab_block()
            merged, after, _ = self._run_in_block(
                program, args, label, budget,
                self._merge([s.db.current for s in shards], block_lo),
                block_hi,
            )
            self._guard_created(merged, after)
            views = self._split_views(shards, after)

            # Rehearse every participant before anything touches disk: a
            # prepare is a promise, so validation must be complete first.
            staged: dict[int, State] = {}
            deltas: dict[int, dict] = {}
            for shard in shards:
                staged_state = shard.db.rehearse(
                    views[shard.index], label=label, program_name=program.name
                )
                delta = state_delta(shard.db.current, staged_state)
                staged[shard.index] = staged_state
                deltas[shard.index] = delta
            writers = [
                s for s in shards if not self._delta_empty(deltas[s.index])
            ]

            checked: list = []
            if writers:
                # A fenced writer means *we* are a deposed zombie: refuse
                # before any prepare lands anywhere.
                for shard in writers:
                    if shard.db.store is not None:
                        shard.db.store.check_fence()
                txid = self.coordinator.next_txid(label)
                prepared = {}
                for k, shard in enumerate(writers):
                    if shard.db is None:
                        break  # died mid-window: presumed abort below
                    if shard.db.store is not None:
                        try:
                            prepared[shard.index] = shard.db.store.log_prepare(
                                shard.db.current,
                                staged[shard.index],
                                txid=txid,
                                label=label,
                                program=program.name,
                                args=tuple(args),
                            )
                        except Fenced:
                            # Deposed mid-window: durably abort so the
                            # landed sibling prepares resolve to abort,
                            # then stop serving the shard.
                            shard.db.close()
                            shard.db = None
                            self._abort_outcomes(txid, writers, prepared)
                            raise
                    self.metrics.counter(
                        "repro_shard_prepares_total",
                        "2PC PREPARE records journaled",
                        shard=str(shard.index),
                    ).inc()
                    self._reach(f"prepare:{k}")
                    self._maybe_kill(f"prepare:{k}", writers)
                self._reach("before-decision")
                self._maybe_kill("before-decision", writers)
                dead = [s for s in writers if s.db is None]
                if dead:
                    # A participant died before the decision point: the
                    # coordinator presumes abort, durably, before anyone
                    # could have applied — so resubmitting is safe, and
                    # the dead shard's stashed prepare resolves to abort
                    # at promotion.
                    self._abort_outcomes(txid, writers, prepared)
                    self._observe_failure(dead[0].index)
                    self.metrics.counter(
                        "repro_failover_presumed_aborts_total",
                        "2PC windows aborted for a dead participant",
                    ).inc()
                    raise ShardUnavailable(
                        dead[0].index,
                        retry_after=self._retry_hint(),
                        state="down",
                    )
                decision = (
                    "abort"
                    if self.faults is not None and self.faults.abort_txn
                    else "commit"
                )
                self.coordinator.decide(
                    txid, decision,
                    shards=tuple(s.index for s in writers),
                )
                self._reach("after-decision")
                self._maybe_kill("after-decision", writers)
                if decision == "abort":
                    for k, shard in enumerate(writers):
                        if shard.db is None:
                            continue  # resolves at promotion
                        if shard.db.store is not None:
                            shard.db.store.log_outcome(
                                shard.db.current, prepared[shard.index], "abort"
                            )
                        self._reach(f"outcome:{k}")
                        self._maybe_kill(f"outcome:{k}", writers)
                    raise ShardError(
                        f"transaction {label} ({txid}) aborted by "
                        f"coordinator fault plan"
                    )
                for k, shard in enumerate(writers):
                    if shard.db is None:
                        # Died after the durable commit decision: its
                        # prepare is on disk and promotion will apply it —
                        # the transaction is committed, the apply is
                        # merely deferred to the new primary.
                        self.metrics.counter(
                            "repro_failover_deferred_commits_total",
                            "commit applies deferred to promotion",
                            shard=str(shard.index),
                        ).inc()
                        continue
                    expected = touched_digest(
                        staged[shard.index],
                        delta_touched(deltas[shard.index]),
                    )
                    try:
                        # Journals the prepare's commit OUTCOME (and
                        # checkpoints when the store's cadence is due).
                        final = shard.db.apply(
                            views[shard.index],
                            label=label,
                            program_name=program.name,
                            args=tuple(args),
                            prepared=prepared.get(shard.index),
                        )
                    except Fenced:  # deposed: stop serving the shard
                        shard.db.close()
                        shard.db = None
                        raise
                    except ReproError as err:  # pragma: no cover - defensive
                        self._crashed = True
                        raise ShardError(
                            f"shard {shard.index} apply diverged from its "
                            f"rehearsal after a durable commit decision: "
                            f"{err}"
                        ) from err
                    if (
                        touched_digest(
                            final, delta_touched(deltas[shard.index])
                        )
                        != expected
                    ):  # pragma: no cover - defensive
                        self._crashed = True
                        raise ShardError(
                            f"shard {shard.index} applied state differs "
                            f"from the prepared one ({txid})"
                        )
                    self._record_created(merged, after, shard.index)
                    checked.append(shard.db.last_record)
                    self.metrics.counter(
                        "repro_shard_commits_total",
                        "transactions committed, by shard and routing mode",
                        shard=str(shard.index),
                        mode="cross",
                    ).inc()
                    self._reach(f"outcome:{k}")
                    self._maybe_kill(f"outcome:{k}", writers)
            latency = time.perf_counter() - started
            self.metrics.histogram(
                "repro_shard_commit_seconds",
                "commit latency by routing mode",
                mode="cross",
            ).observe(latency)
            record = self._make_record(
                footprint, program, args, label,
                state_delta(merged, after), checked, latency,
            )
            return after, record
        except SimulatedCrash as crash:
            self._crashed = True
            decided = (
                txid is not None
                and self.coordinator.decision_for(txid) == "commit"
            )
            raise InDoubt(
                txid or label, crash.point, decided=decided
            ) from None
        finally:
            for shard in reversed(acquired):
                shard.lock.release()

    # -- queries -----------------------------------------------------------

    def query(
        self, program: DatabaseProgram, *args: object, budget=None
    ) -> object:
        """Evaluate a query: routed to one shard when its footprint is
        single-shard, else over a consistent global cut (all shard locks
        taken briefly to snapshot, evaluation outside the locks)."""
        self._check_alive()
        footprint = program_footprint(program, self.schema)
        participants = self._participants(footprint)
        for index in participants:
            self._ensure_up(index)
        if len(participants) == 1:
            return self.shards[participants[0]].db.query(
                program, *args, budget=budget
            )
        cut = self._global_cut()
        for index in participants:
            if cut[index] is None:  # killed between routing and the cut
                raise ShardUnavailable(index, retry_after=self._retry_hint())
        block_lo, _ = self._grab_block()
        merged = self._merge(
            [cut[i] for i in participants], next_tid=block_lo
        )
        return program.query(
            merged, *args, interpreter=self.interpreter.metered(budget)
        )

    def _global_cut(self) -> list[Optional[State]]:
        """A consistent snapshot across every shard: all locks in index
        order, read the heads, release.  States are immutable, so the cut
        stays valid after release.  A dead shard's slot is ``None`` —
        callers must have routed around it (``_ensure_up``)."""
        for shard in self.shards:
            shard.lock.acquire()
        try:
            return [
                shard.db.current if shard.db is not None else None
                for shard in self.shards
            ]
        finally:
            for shard in reversed(self.shards):
                shard.lock.release()

    def combined_state(self) -> State:
        """The merged global state over a consistent cut (allocator set to
        the global high-water mark; for inspection, not for evaluation)."""
        for shard in self.shards:
            self._ensure_up(shard.index)
        return self._merge(
            [s for s in self._global_cut() if s is not None],
            next_tid=self._next_free,
        )

    # -- introspection / lifecycle ------------------------------------------

    def stats(self) -> dict:
        """Routing and commit counters, resolved from the metrics registry."""
        families = self.metrics.families()
        single = sum(
            int(instrument.value)
            for labels, instrument in families.get(
                "repro_shard_commits_total", ()
            )
            if dict(labels).get("mode") == "single"
        )
        cross = sum(
            int(instrument.value)
            for labels, instrument in families.get(
                "repro_shard_decisions_total", ()
            )
            if dict(labels).get("decision") == "commit"
        )
        return {
            "shards": len(self.shards),
            "version": self._version,
            "single_shard_commits": single,
            "cross_shard_commits": cross,
            "placement": dict(self.plan.placement),
        }

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for shard in self.shards:
            if shard.db is not None:
                shard.db.close()
        self.coordinator.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
