"""Commit records and their serial replay: the winning schedule as a value.

Under concurrent execution the interesting artifact is the **serial order
the scheduler committed** — the one path through the evolution graph that
the winning schedule traced.  Each committed
:class:`~repro.concurrent.scheduler.TransactionOutcome` carries one
:class:`CommitRecord` (program, arguments, serial position, snapshot
version, read/write sets, conflicts survived, constraint results, latency).
The manager keeps none of them: the caller holds the outcomes it wants, and
a durable database's run is its journal.  :func:`replay_states` runs
records serially from the initial state; reaching the live state (up to
the naming of freshly allocated tuple identifiers) is the operational
statement of serializability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.db.state import State
from repro.transactions.interpreter import Interpreter, _order_equivalent
from repro.transactions.program import DatabaseProgram


def states_equivalent(initial: State, a: State, b: State) -> bool:
    """State equality modulo renaming of tuple identifiers allocated after
    ``initial``.

    Fresh-identifier naming depends on commit interleaving exactly the way
    it depends on ``foreach`` enumeration order — it is an implementation
    detail, not a semantic difference.  Identifiers that already existed in
    ``initial`` must match exactly.
    """
    return _order_equivalent(initial, a, b)


@dataclass(frozen=True)
class CommitRecord:
    """One committed transaction, in serial order.

    ``seq`` is the position in the serial order (1-based);
    ``snapshot_version`` is the commit count the transaction evaluated
    against; ``conflicts`` lists, per aborted attempt, the relations that
    collided; ``latency`` is submit-to-commit wall time in seconds.
    """

    seq: int
    label: str
    program: DatabaseProgram
    args: tuple[object, ...]
    snapshot_version: int
    read_set: frozenset[str]
    write_set: frozenset[str]
    attempts: int
    conflicts: tuple[frozenset[str], ...]
    constraint_results: tuple[tuple[str, bool], ...]
    latency: float

    @property
    def retried(self) -> bool:
        return self.attempts > 1


def replay_states(
    initial: State,
    records: Iterable[CommitRecord],
    *,
    interpreter: Optional[Interpreter] = None,
    encodings: Iterable = (),
) -> list[State]:
    """The serial execution of ``records`` from ``initial``, in ``seq``
    order (the order they are given in does not matter): every
    intermediate state, starting with ``initial`` itself.

    ``encodings`` should be the database's registered history encodings
    so the replay applies the same post-transaction transforms the engine
    did.
    """
    interp = interpreter or Interpreter()
    encodings = tuple(encodings)
    states = [initial]
    for record in sorted(records, key=lambda r: r.seq):
        before = states[-1]
        after = record.program.run(before, *record.args, interpreter=interp)
        for encoding in encodings:
            after = encoding.record(before, after)
        states.append(after)
    return states
