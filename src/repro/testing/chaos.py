"""An engine-wide chaos harness: deterministic fault injection.

The governance layer claims that no matter what goes wrong — a stalled
evaluation, a storm of validation conflicts, a transaction that runs out
of fuel at the worst moment, a planner that lies — the engine's answer
is always a *typed* error or a clean degradation, never a hang, a wrong
answer, or an unserializable history.  This module is the harness that
earns that claim.

A :class:`ChaosInjector` wraps one :class:`~repro.engine.Database` and
injects four fault families into the optimistic scheduler:

* **evaluation stalls** — extra think time inside the worker, widening the
  snapshot-to-validation window (more real conflicts);
* **spurious conflicts** — the scheduler's ``chaos`` validation seam
  reports a phantom collision on a relation no transaction owns, forcing
  retries (and feeding the circuit breaker) without corrupting the log;
* **budget near-misses** — evaluation budgets drawn tight around the
  workload's actual fuel consumption, so some attempts run out mid-flight
  and abort with :class:`~repro.errors.BudgetExceeded`;
* **deadline squeezes** — sub-workload wall-clock deadlines that interrupt
  evaluation *in the middle of a foreach*, not just between retries.

Planner corruption is a fifth, serial-phase fault: the planner's answers
are flipped white-box, and a quarantined planner must detect the lie,
disable itself, and keep answering correctly from the tree walk.

**Determinism.**  Every per-transaction fault plan is pre-drawn at submit
time from an RNG seeded with ``(seed, index)`` — worker scheduling cannot
change *which* faults a transaction receives, only when they land.  Two
soak runs with the same seed inject the identical fault plans.

:func:`run_soak` drives a mixed workload (striped writers, a hot relation,
foreach sweeps) through a faulted manager and returns a
:class:`ChaosReport` asserting the contract: every outcome typed, commit
log serially replayable, final state equivalent to the unfaulted replay.
"""

from __future__ import annotations

import dataclasses
import json
import random
import warnings
from dataclasses import dataclass, field
from typing import Optional

from repro.db.schema import Schema
from repro.engine import Database
from repro.errors import ReproError
from repro.eval.quarantine import QuarantineWarning
from repro.logic import builder as b
from repro.concurrent.log import states_equivalent
from repro.concurrent.retry import RetryPolicy
from repro.concurrent.scheduler import (
    TransactionManager,
    TransactionOutcome,
    TransactionStatus,
)
from repro.transactions.budget import Budget
from repro.transactions.program import DatabaseProgram, query, transaction

CHAOS_RELATION = "<chaos>"  # phantom conflict marker; no real relation


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates and shapes (all probabilities per transaction)."""

    stall_rate: float = 0.25
    stall_seconds: float = 0.004
    conflict_rate: float = 0.25
    max_spurious: int = 2  # injected conflicts per txn (bounded => converges)
    squeeze_rate: float = 0.2
    squeeze_steps: tuple[int, int] = (4, 80)  # near-miss fuel range
    deadline_rate: float = 0.15
    deadline_seconds: tuple[float, float] = (0.001, 0.02)


@dataclass(frozen=True)
class _Plan:
    """The faults one transaction will suffer, drawn before submission."""

    stall: float = 0.0
    spurious: int = 0
    max_steps: Optional[int] = None
    deadline: Optional[float] = None

    @property
    def faulted(self) -> bool:
        return bool(
            self.stall or self.spurious or self.max_steps or self.deadline
        )


class ChaosInjector:
    """Wraps a database; arms a scheduler with deterministic faults.

    Usage::

        chaos = ChaosInjector(db, seed=7)
        with chaos.concurrent(workers=4) as mgr:
            futures = [chaos.submit(mgr, i, program, *args)
                       for i, (program, args) in enumerate(calls)]

    ``submit`` draws the transaction's fault plan from ``(seed, index)``
    and applies it through public knobs (think time, budget, deadline);
    spurious conflicts go through the scheduler's ``chaos`` seam, which
    calls back :meth:`validation_conflict` under the commit lock.
    """

    def __init__(
        self,
        database: Database,
        *,
        seed: int,
        config: Optional[ChaosConfig] = None,
    ) -> None:
        self.database = database
        self.seed = seed
        self.config = config or ChaosConfig()
        self._plans: dict[str, _Plan] = {}
        self.injected = {
            "stalls": 0,
            "spurious_conflicts": 0,
            "budget_squeezes": 0,
            "deadline_squeezes": 0,
        }

    # -- planning ----------------------------------------------------------

    def plan_for(self, index: int) -> _Plan:
        """The (deterministic) fault plan of transaction ``index``."""
        rng = random.Random(f"chaos:{self.seed}:{index}")
        cfg = self.config
        stall = (
            cfg.stall_seconds * (0.5 + rng.random())
            if rng.random() < cfg.stall_rate
            else 0.0
        )
        spurious = (
            rng.randint(1, max(1, cfg.max_spurious))
            if rng.random() < cfg.conflict_rate
            else 0
        )
        max_steps = (
            rng.randint(*cfg.squeeze_steps)
            if rng.random() < cfg.squeeze_rate
            else None
        )
        deadline = (
            rng.uniform(*cfg.deadline_seconds)
            if rng.random() < cfg.deadline_rate
            else None
        )
        return _Plan(stall, spurious, max_steps, deadline)

    # -- the scheduler hookup ----------------------------------------------

    def concurrent(self, *, workers: int = 4, **kwargs) -> TransactionManager:
        """A manager over the wrapped database with this injector armed."""
        return TransactionManager(
            self.database, workers=workers, chaos=self, **kwargs
        )

    def submit(
        self,
        manager: TransactionManager,
        index: int,
        program: DatabaseProgram,
        *args: object,
    ):
        """Submit with transaction ``index``'s fault plan applied."""
        plan = self.plan_for(index)
        label = f"chaos-{index}"
        self._plans[label] = plan
        if plan.stall:
            self.injected["stalls"] += 1
        if plan.spurious:
            self.injected["spurious_conflicts"] += plan.spurious
        if plan.max_steps is not None:
            self.injected["budget_squeezes"] += 1
        if plan.deadline is not None:
            self.injected["deadline_squeezes"] += 1
        budget = (
            Budget(max_steps=plan.max_steps)
            if plan.max_steps is not None
            else None
        )
        return manager.submit(
            program,
            *args,
            label=label,
            think_time=plan.stall,
            deadline=plan.deadline,
            budget=budget,
        )

    def validation_conflict(
        self, label: str, attempt: int
    ) -> Optional[frozenset[str]]:
        """The scheduler's chaos seam: a phantom clash for the first
        ``spurious`` attempts of a planned transaction.  Bounded, so
        retry always converges; the phantom relation name cannot collide
        with a schema relation."""
        plan = self._plans.get(label)
        if plan is not None and attempt <= plan.spurious:
            return frozenset({CHAOS_RELATION})
        return None


# -- the soak test ---------------------------------------------------------


@dataclass
class ChaosReport:
    """What one soak run did, and whether the contract held."""

    seed: int
    transactions: int = 0
    committed: int = 0
    aborted: int = 0
    failed: int = 0
    injected: dict = field(default_factory=dict)
    quarantined: int = 0
    untyped_errors: list = field(default_factory=list)
    serializable: bool = False
    replay_equivalent: bool = False
    wrong_answers: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.untyped_errors
            and self.serializable
            and self.replay_equivalent
            and self.wrong_answers == 0
        )

    def to_doc(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["ok"] = self.ok
        return doc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)


def _soak_schema(stripes: int) -> Schema:
    schema = Schema()
    for i in range(stripes):
        schema.add_relation(f"R{i}", ("k", "v"))
    schema.add_relation("HOT", ("k", "v"))
    schema.add_relation("SWEEP", ("k", "v"))
    return schema


def _soak_programs(stripes: int):
    x, y = b.atom_var("x"), b.atom_var("y")
    puts = [
        transaction(f"put-R{i}", (x, y), b.insert(b.mktuple(x, y), f"R{i}"))
        for i in range(stripes)
    ]
    bump = transaction(
        "bump-hot", (x, y), b.insert(b.mktuple(x, y), "HOT")
    )
    t = b.ftup_var("t", 2)
    sweep = transaction(
        "sweep-R0",
        (),
        b.foreach(t, b.member(t, b.rel("R0", 2)), b.insert(t, "SWEEP")),
    )
    return puts, bump, sweep


def run_soak(
    seed: int,
    *,
    transactions: int = 48,
    workers: int = 4,
    stripes: int = 6,
    config: Optional[ChaosConfig] = None,
) -> ChaosReport:
    """One full chaos soak round; returns the evidence as a report.

    Phase 1 (concurrent): ``transactions`` submissions — striped puts, a
    hot relation every fourth transaction, a ``foreach`` sweep every
    seventh — each under its deterministic fault plan.  Phase 2 (serial,
    manager closed): the planner's answers are corrupted white-box and
    the size queries re-asked; the quarantined planner must disable itself
    and every answer must come back correct from the tree walk.

    The contract checked (``report.ok``): every outcome typed (COMMITTED,
    or ABORTED/FAILED carrying a :class:`~repro.errors.ReproError`), the
    commit log replays serially to a state equivalent to the live one, and
    no query ever returned a wrong answer.
    """
    report = ChaosReport(seed=seed)
    db = Database(_soak_schema(stripes), window=2)
    planner = db.enable_planner(quarantine=True)
    puts, bump, sweep = _soak_programs(stripes)
    chaos = ChaosInjector(db, seed=seed, config=config)
    policy = RetryPolicy(
        max_attempts=16, base_delay=0.0002, max_delay=0.002,
        jitter_mode="full",
    )

    with chaos.concurrent(workers=workers, retry=policy, seed=seed) as mgr:
        futures = []
        for i in range(transactions):
            if i % 7 == 3:
                call = (sweep,)
            elif i % 4 == 1:
                call = (bump, i, i)
            else:
                call = (puts[i % stripes], i, i)
            futures.append(chaos.submit(mgr, i, call[0], *call[1:]))
        for fut in futures:
            err = fut.exception()
            if err is not None:
                # submit-side typed refusals (Overloaded/CircuitOpen) would
                # surface here; anything untyped is a contract violation.
                report.untyped_errors.append(repr(err))
                continue
            outcome: TransactionOutcome = fut.result()
            report.transactions += 1
            if outcome.status is TransactionStatus.COMMITTED:
                report.committed += 1
            else:
                if outcome.status is TransactionStatus.ABORTED:
                    report.aborted += 1
                else:
                    report.failed += 1
                if not isinstance(outcome.error, ReproError):
                    report.untyped_errors.append(repr(outcome.error))

        # Serializability witness: replay the log serially and compare.
        report.serializable = mgr.verify_serializable()
        replayed = mgr.log.replay(
            mgr.initial,
            interpreter=db.interpreter,
            encodings=db.encodings,
        )
        report.replay_equivalent = states_equivalent(
            mgr.initial, db.current, replayed
        )

    # Phase 2: corrupt the planner's answers white-box; the verify
    # cross-check must quarantine it on the first lie and every answer
    # must still be correct (served from the tree-walk oracle).
    sizes = [
        query(f"size-{name}", (), b.size_of(b.rel(name, 2)))
        for name in ["HOT", "SWEEP"] + [f"R{i}" for i in range(stripes)]
    ]
    expected = {q.name: db.query(q) for q in sizes}
    report.injected = dict(chaos.injected)
    if planner.mismatch_count:
        # A mismatch before deliberate corruption is a real planner bug,
        # not chaos — surface it as a contract violation.
        report.untyped_errors.append(
            f"planner mismatched {planner.mismatch_count}x during soak"
        )
    if planner.enabled:
        planner._chaos_corrupt = True
        report.injected["planner_corruptions"] = 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for q in sizes:
                if db.query(q) != expected[q.name]:
                    report.wrong_answers += 1
        planner._chaos_corrupt = False
        report.quarantined = sum(
            1
            for w in caught
            if issubclass(w.category, QuarantineWarning)
            and getattr(w.message, "component", "") == "planner"
        )
        if not report.quarantined:
            report.untyped_errors.append(
                "planner corruption went undetected (no quarantine)"
            )
    return report
