"""Chaos for the sharding layer: crash-riddled 2PC, torn decisions, lag.

The sharding layer's contract extends the engine's (see
:mod:`repro.testing.chaos`) across process death:

* every client-visible outcome is **typed** — committed, a
  :class:`~repro.errors.ConstraintViolation`/:class:`~repro.errors.
  ShardError` abort, or :class:`~repro.errors.InDoubt` when a crash landed
  inside a 2PC window;
* after every crash, :meth:`~repro.sharding.sharded.ShardedDatabase.
  recover` resolves each in-doubt transaction to the **same fate on every
  shard**, consistent with the coordinator's durable decision record;
* a cross-shard transaction is **atomic under all interleavings of
  failure**: either every stripe it wrote shows the write after recovery
  or none does — counted directly against the committed set, so a wrong
  answer here is a zero-tolerance contract violation;
* each shard's journal replays (:meth:`~repro.storage.store.Store.
  recover`) to exactly the shard's live state — the per-shard
  journal-order-is-serial-order witness;
* a replica tailing a shard journal never serves a state outside the
  primary's committed prefix, and refuses (typed
  :class:`~repro.errors.ReplicaLagExceeded`) rather than exceed its
  staleness bound.

**Determinism.**  Round ``i`` of a soak draws its fault — a crash point
from the 2PC window, a forced abort, a torn decision record (the
coordinator journal truncated mid-frame), or nothing — from
``random.Random(f"shard-chaos:{seed}:{i}")``.  Two soaks with the same
seed crash at the identical points.

The **failover soak** (:func:`run_failover_soak`) exercises the other
death: not the whole process, but one shard *primary*, killed at every
2PC crash point.  Its contract adds, on top of the above:

* a refused transaction (:class:`~repro.errors.ShardUnavailable`) is
  **definitively not committed** — the presumed-abort decision is durable
  before the refusal surfaces;
* a cross-shard commit that lost a writer *after* the decision point
  still commits everywhere: the dead shard's apply is deferred to
  promotion, which resolves the stashed prepare from the coordinator's
  decision record;
* after promotion, **every** write the deposed primary (the zombie)
  attempts is refused with a typed :class:`~repro.errors.Fenced` — no
  zombie append ever lands in a journal the new epoch owns.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.db.schema import Schema
from repro.db.state import State
from repro.errors import (
    Fenced,
    InDoubt,
    ReplicaLagExceeded,
    ReproError,
    ShardUnavailable,
)
from repro.logic import builder as b
from repro.sharding.replica import Replica
from repro.sharding.sharded import ShardedDatabase
from repro.sharding.twopc import DECISIONS_NAME, TwoPhaseFaults
from repro.storage.serialize import state_digest
from repro.storage.store import Store
from repro.transactions.program import query, transaction

#: The crash points a fault plan may draw (``outcome:<k>`` indices beyond
#: the writer count simply never fire — the commit completes).
CRASH_POINTS = (
    "prepare:0",
    "prepare:1",
    "before-decision",
    "after-decision",
    "outcome:0",
    "outcome:1",
)


@dataclass(frozen=True)
class ShardChaosConfig:
    """Fault rates for one sharded soak (probabilities per cross-shard
    round)."""

    crash_rate: float = 0.35
    abort_rate: float = 0.15
    torn_decision_rate: float = 0.2  # applied when a crash round is drawn
    replica_poll_rate: float = 0.5
    singles_per_round: int = 4


@dataclass
class ShardChaosReport:
    """What one sharded soak did, and whether the contract held."""

    seed: int
    shards: int = 0
    rounds: int = 0
    committed_single: int = 0
    committed_cross: int = 0
    aborted: int = 0
    crashes: int = 0
    in_doubt_raised: int = 0
    torn_decisions: int = 0
    recoveries: int = 0
    resolutions: list = field(default_factory=list)
    replica_queries: int = 0
    replica_refusals: int = 0
    untyped_errors: list = field(default_factory=list)
    wrong_answers: int = 0
    atomicity_violations: int = 0
    journals_match_live: bool = False

    @property
    def ok(self) -> bool:
        return (
            not self.untyped_errors
            and self.wrong_answers == 0
            and self.atomicity_violations == 0
            and self.journals_match_live
        )

    def to_doc(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["ok"] = self.ok
        return doc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)


def _shard_soak_schema(stripes: int) -> Schema:
    schema = Schema()
    for i in range(stripes):
        schema.add_relation(f"R{i}", ("k", "v"))
    return schema


def _shard_soak_programs(stripes: int):
    x, y = b.atom_var("x"), b.atom_var("y")
    puts = [
        transaction(f"put-R{i}", (x, y), b.insert(b.mktuple(x, y), f"R{i}"))
        for i in range(stripes)
    ]
    # Every cross-shard transfer writes stripe 0 and one other stripe: the
    # atomicity check below demands both writes or neither.
    transfers = [
        transaction(
            f"pair-R0-R{i}",
            (x, y),
            b.seq(
                b.insert(b.mktuple(x, y), "R0"),
                b.insert(b.mktuple(x, y), f"R{i}"),
            ),
        )
        for i in range(1, stripes)
    ]
    sizes = [
        query(f"size-R{i}", (), b.size_of(b.rel(f"R{i}", 2)))
        for i in range(stripes)
    ]
    return puts, transfers, sizes


def _tear_decision_journal(path: str) -> bool:
    """Truncate the coordinator's decision journal mid-frame — the torn
    write a crashing ``fsync`` can leave.  Returns True if bytes were
    torn."""
    journal = os.path.join(path, "coordinator", DECISIONS_NAME)
    try:
        size = os.path.getsize(journal)
    except OSError:
        return False
    if size <= 12:
        return False
    with open(journal, "r+b") as fh:
        fh.truncate(size - 7)
    return True


def run_shard_soak(
    seed: int,
    path: str,
    *,
    rounds: int = 12,
    shards: int = 4,
    stripes: int = 8,
    config: Optional[ShardChaosConfig] = None,
) -> ShardChaosReport:
    """One crash-riddled sharded soak; returns the evidence as a report.

    Each round runs a handful of single-shard puts plus one cross-shard
    transfer under that round's fault plan.  A drawn crash kills the
    database inside the 2PC window (typed :class:`~repro.errors.InDoubt`
    to the caller), optionally tears the coordinator's decision journal at
    a frame boundary's worst enemy — mid-frame — and then recovers from
    disk before the next round.  Bookkeeping tracks exactly which writes
    the protocol promised; the final count of every stripe must equal the
    promised set (zero wrong answers), every cross-shard transfer must be
    all-or-nothing (zero atomicity violations), and each shard's journal
    must replay to its live state.
    """
    cfg = config or ShardChaosConfig()
    report = ShardChaosReport(seed=seed, shards=shards)
    schema = _shard_soak_schema(stripes)
    puts, transfers, sizes = _shard_soak_programs(stripes)
    sdb = ShardedDatabase(schema, shards=shards, path=path)

    # Ground truth: per-stripe key sets the protocol committed.
    expected: dict[str, set[int]] = {f"R{i}": set() for i in range(stripes)}
    replica: Optional[Replica] = None
    replica_shard = sdb.plan.shard_of("R0")
    key = 0

    for i in range(rounds):
        rng = random.Random(f"shard-chaos:{seed}:{i}")
        report.rounds += 1
        for _ in range(cfg.singles_per_round):
            stripe = rng.randrange(stripes)
            key += 1
            try:
                sdb.execute(puts[stripe], key, key)
                expected[f"R{stripe}"].add(key)
                report.committed_single += 1
            except ReproError as err:
                report.untyped_errors.append(
                    f"single-shard put refused: {err!r}"
                )
            except BaseException as err:  # noqa: BLE001 - the contract
                report.untyped_errors.append(repr(err))

        crash = rng.random() < cfg.crash_rate
        forced_abort = not crash and rng.random() < cfg.abort_rate
        faults = TwoPhaseFaults(
            crash_at=rng.choice(CRASH_POINTS) if crash else None,
            abort_txn=forced_abort,
        )
        sdb.faults = faults
        transfer = transfers[rng.randrange(len(transfers))]
        other = transfer.name.rsplit("-", 1)[1]
        key += 1
        decided_durably = False
        try:
            sdb.execute(transfer, key, key)
            expected["R0"].add(key)
            expected[other].add(key)
            report.committed_cross += 1
        except InDoubt as err:
            report.crashes += 1
            report.in_doubt_raised += 1
            decided_durably = err.decided
        except ReproError:
            report.aborted += 1  # typed abort (fault plan or constraint)
        except BaseException as err:  # noqa: BLE001
            report.untyped_errors.append(repr(err))
        finally:
            sdb.faults = None

        if crash:
            sdb.close()
            replica = None  # its shard directory is about to be recovered
            torn = False
            if rng.random() < cfg.torn_decision_rate:
                torn = _tear_decision_journal(path)
                if torn:
                    report.torn_decisions += 1
            sdb, recovery = ShardedDatabase.recover(schema, path)
            report.recoveries += 1
            for res in recovery.resolutions:
                report.resolutions.append(
                    (res.txid, res.shard, res.decision, res.why)
                )
            # Ground truth for the crashed transfer: did recovery land it?
            r0 = sdb.combined_state().relations["R0"]
            landed = any(
                t.values[0] == key for t in r0.tuples.values()
            )
            if landed:
                expected["R0"].add(key)
                expected[other].add(key)
            elif decided_durably and not torn:
                # The client was told the commit decision was durable;
                # losing it without a torn journal is a contract breach.
                report.untyped_errors.append(
                    f"durable commit decision for key {key} lost in "
                    f"recovery"
                )
            replica_shard = sdb.plan.shard_of("R0")

        if rng.random() < cfg.replica_poll_rate:
            if replica is None:
                replica = Replica(
                    os.path.join(path, f"shard-{replica_shard}")
                )
            report.replica_queries += 1
            try:
                seen = replica.query(sizes[0], max_lag=10_000)
                if not isinstance(seen, int) or seen > len(expected["R0"]):
                    # A replica may lag (serve fewer rows) but must never
                    # invent rows outside the committed prefix.
                    report.wrong_answers += 1
            except ReplicaLagExceeded:
                report.replica_refusals += 1
            except ReproError as err:
                report.untyped_errors.append(f"replica: {err!r}")

    # -- final audit -------------------------------------------------------
    for i in range(stripes):
        live = sdb.query(sizes[i])
        if live != len(expected[f"R{i}"]):
            report.wrong_answers += 1
    # Atomicity: every cross-shard key sits in both its stripes or neither.
    final = sdb.combined_state()
    present = {
        name: {t.values[0] for t in rel.tuples.values()}
        for name, rel in final.relations.items()
    }
    for i in range(1, stripes):
        pair_keys = expected[f"R{i}"] & expected["R0"]
        for k in pair_keys:
            if (k in present[f"R{i}"]) != (k in present["R0"]):
                report.atomicity_violations += 1
    report.journals_match_live = _journals_match_live(sdb, path)
    return report


# -- failover soak ---------------------------------------------------------

#: How a round heals its killed shard before zombie replay.  ``auto``
#: drives routed traffic at the dead shard until :meth:`~repro.sharding.
#: sharded.ShardedDatabase._ensure_up` self-heals it inline; ``tick``
#: loops :meth:`~repro.sharding.sharded.ShardedDatabase.failover_tick`
#: (the timer-driven path); ``explicit`` is the operator running
#: :meth:`~repro.sharding.sharded.ShardedDatabase.promote_shard` by hand.
HEAL_MODES = ("auto", "tick", "explicit")


@dataclass(frozen=True)
class FailoverChaosConfig:
    """Fault rates for one failover soak (per cross-shard round)."""

    kill_rate: float = 0.85
    singles_per_round: int = 4
    suspect_after: int = 1
    down_after: int = 2
    retry_after: float = 0.0


@dataclass
class FailoverChaosReport:
    """What one failover soak did, and whether the contract held."""

    seed: int
    shards: int = 0
    rounds: int = 0
    committed_single: int = 0
    committed_cross: int = 0
    aborted: int = 0
    kills: int = 0
    promotions: int = 0
    unavailable_refusals: int = 0
    deferred_commits: int = 0
    zombie_writes: int = 0
    zombie_fenced: int = 0
    heal_modes_used: list = field(default_factory=list)
    untyped_errors: list = field(default_factory=list)
    wrong_answers: int = 0
    atomicity_violations: int = 0
    journals_match_live: bool = False

    @property
    def ok(self) -> bool:
        return (
            not self.untyped_errors
            and self.wrong_answers == 0
            and self.atomicity_violations == 0
            and self.zombie_writes == self.zombie_fenced
            and self.promotions == self.kills
            and self.journals_match_live
        )

    def to_doc(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["ok"] = self.ok
        return doc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)


def run_failover_soak(
    seed: int,
    path: str,
    *,
    rounds: int = 12,
    shards: int = 3,
    stripes: int = 6,
    config: Optional[FailoverChaosConfig] = None,
) -> FailoverChaosReport:
    """One primary-killing soak; returns the evidence as a report.

    Each round runs retried single-shard puts plus one cross-shard
    transfer whose fault plan may kill one writer's primary at any 2PC
    crash point (``kill_rate`` of rounds, point and victim drawn from the
    round's RNG).  A refusal (:class:`~repro.errors.ShardUnavailable`)
    counts the key as *not* committed; a success counts it committed on
    both stripes even when the dead writer's apply was deferred.  The
    round then heals by a drawn interleaving (inline self-heal, detector
    tick, or explicit promotion), replays a commit **and** a prepare
    through the zombie's deposed store handle — both must be refused with
    :class:`~repro.errors.Fenced` — and the final audit demands exact
    per-stripe counts, all-or-nothing transfers, and journal-replay
    equality, same as :func:`run_shard_soak`.
    """
    cfg = config or FailoverChaosConfig()
    report = FailoverChaosReport(seed=seed, shards=shards)
    schema = _shard_soak_schema(stripes)
    puts, transfers, sizes = _shard_soak_programs(stripes)
    sdb = ShardedDatabase(schema, shards=shards, path=path)
    sdb.enable_failover(
        suspect_after=cfg.suspect_after,
        down_after=cfg.down_after,
        retry_after=cfg.retry_after,
        auto_promote=True,
    )

    expected: dict[str, set[int]] = {f"R{i}": set() for i in range(stripes)}
    key = 0

    def _put_with_retry(stripe: int, k: int) -> bool:
        """A routed put, retried through SUSPECT/DOWN until the shard
        self-heals; returns whether the put committed."""
        for _ in range(cfg.down_after + 3):
            try:
                sdb.execute(puts[stripe], k, k)
                return True
            except ShardUnavailable:
                report.unavailable_refusals += 1
            except ReproError as err:
                report.untyped_errors.append(f"single put refused: {err!r}")
                return False
        return False

    stripe_of_shard = {
        sdb.plan.shard_of(f"R{i}"): i for i in range(stripes)
    }

    def _heal(dead: list, mode: str) -> bool:
        """Bring every killed shard back via the drawn interleaving."""
        nonlocal key
        if mode == "explicit":
            for index in dead:
                sdb.promote_shard(index)
        elif mode == "tick":
            for _ in range(cfg.down_after + 3):
                if all(sdb.shards[i].db is not None for i in dead):
                    break
                sdb.failover_tick()
        else:  # auto: routed traffic drives detection and inline promotion
            for index in dead:
                stripe = stripe_of_shard.get(index)
                if stripe is None:  # no stripe routes there
                    sdb.promote_shard(index)
                    continue
                key += 1
                if _put_with_retry(stripe, key):
                    expected[f"R{stripe}"].add(key)
                    report.committed_single += 1
        return all(sdb.shards[i].db is not None for i in dead)

    for i in range(rounds):
        rng = random.Random(f"failover-chaos:{seed}:{i}")
        report.rounds += 1
        for _ in range(cfg.singles_per_round):
            stripe = rng.randrange(stripes)
            key += 1
            try:
                if _put_with_retry(stripe, key):
                    expected[f"R{stripe}"].add(key)
                    report.committed_single += 1
                else:
                    report.untyped_errors.append(
                        f"single put for key {key} never healed"
                    )
            except BaseException as err:  # noqa: BLE001 - the contract
                report.untyped_errors.append(repr(err))

        kill = rng.random() < cfg.kill_rate
        faults = TwoPhaseFaults(
            kill_primary_at=rng.choice(CRASH_POINTS) if kill else None,
            kill_writer=rng.randrange(2),
        )
        sdb.faults = faults
        transfer = transfers[rng.randrange(len(transfers))]
        other = transfer.name.rsplit("-", 1)[1]
        key += 1
        deferred_before = _deferred_total(sdb)
        try:
            sdb.execute(transfer, key, key)
            expected["R0"].add(key)
            expected[other].add(key)
            report.committed_cross += 1
            report.deferred_commits += _deferred_total(sdb) - deferred_before
        except ShardUnavailable:
            # Durably presumed-aborted before the decision point: the key
            # is definitively NOT committed on any stripe.
            report.unavailable_refusals += 1
        except ReproError:
            report.aborted += 1
        except BaseException as err:  # noqa: BLE001
            report.untyped_errors.append(repr(err))
        finally:
            sdb.faults = None

        zombies = list(faults.killed)
        report.kills += len(zombies)
        if zombies:
            mode = HEAL_MODES[rng.randrange(len(HEAL_MODES))]
            report.heal_modes_used.append(mode)
            healed = _heal([z.index for z in zombies], mode)
            if not healed:
                report.untyped_errors.append(
                    f"round {i}: shard(s) "
                    f"{[z.index for z in zombies]} never healed via {mode}"
                )
            else:
                report.promotions += len(zombies)
            for zombie in zombies:
                _replay_zombie(zombie, report)

    # -- final audit -------------------------------------------------------
    for i in range(stripes):
        live = sdb.query(sizes[i])
        if live != len(expected[f"R{i}"]):
            report.wrong_answers += 1
    final = sdb.combined_state()
    present = {
        name: {t.values[0] for t in rel.tuples.values()}
        for name, rel in final.relations.items()
    }
    for i in range(1, stripes):
        for k in expected[f"R{i}"] & expected["R0"]:
            if (k in present[f"R{i}"]) != (k in present["R0"]):
                report.atomicity_violations += 1

    report.journals_match_live = _journals_match_live(sdb, path)
    return report


def _journals_match_live(sdb: ShardedDatabase, path: str) -> bool:
    """Close ``sdb`` and check that every shard's journal recovers, clean
    and with nothing in doubt, to that shard's live state.  The allocator
    is normalized out of the comparison: recovery deliberately re-bases
    each shard's ``next_tid`` to a fresh block without journaling the
    jump, so relation contents and ownership are the invariant, not the
    allocator position."""

    def content(state: State) -> str:
        return state_digest(State(state.relations, state.owner, 0))

    live = [content(shard.db.current) for shard in sdb.shards]
    sdb.close()
    for i, digest in enumerate(live):
        recovery = Store(os.path.join(path, f"shard-{i}")).recover()
        if recovery.pending or not recovery.clean:
            return False
        if content(recovery.state) != digest:
            return False
    return True


def _deferred_total(sdb: ShardedDatabase) -> int:
    """Sum of the deferred-commit counters across shards (0 when the
    metric has never fired)."""
    rows = sdb.metrics.families().get(
        "repro_failover_deferred_commits_total", ()
    )
    return int(sum(instrument.value for _, instrument in rows))


def _replay_zombie(zombie, report: FailoverChaosReport) -> None:
    """Replay a commit and a PREPARE through the deposed primary's store
    handle: both must be refused with a typed :class:`Fenced`."""
    if zombie.db is None or zombie.db.store is None:
        return
    store, state = zombie.db.store, zombie.db.current
    for attempt in ("commit", "prepare"):
        report.zombie_writes += 1
        try:
            if attempt == "commit":
                store.log_commit(state, state, label="zombie-write")
            else:
                store.log_prepare(
                    state,
                    state,
                    txid="zombie-tx",
                    label="zombie-prepare",
                )
        except Fenced:
            report.zombie_fenced += 1
        except BaseException as err:  # noqa: BLE001
            report.untyped_errors.append(f"zombie write: {err!r}")
    try:
        store.close()
    except (OSError, ReproError):  # pragma: no cover
        pass
