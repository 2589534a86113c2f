"""Serializability of the optimistic scheduler (property-based).

The property: **any interleaving the** :class:`TransactionManager`
**accepts is equivalent to some serial execution of the same programs** —
concretely, to the serial execution in commit-log order, which the log
itself witnesses.  Equality is up to the naming of freshly allocated tuple
identifiers (the same caveat as ``foreach`` order-equivalence: identifier
allocation is an implementation detail, not a semantic difference).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, RetryPolicy, Schema, transaction
from repro.concurrent import replay_states, states_equivalent
from repro.logic import builder as b

RELS = ("A", "B", "C")


def make_schema() -> Schema:
    schema = Schema()
    for name in RELS:
        schema.add_relation(name, ("k", "v"))
    return schema


def make_programs():
    x, y = b.atom_var("x"), b.atom_var("y")
    pool = []
    for name in RELS:
        pool.append(
            transaction(f"put-{name}", (x, y), b.insert(b.mktuple(x, y), name))
        )
    pool.append(
        transaction(
            "move-A-B",
            (x, y),
            b.seq(b.delete(b.mktuple(x, y), "A"), b.insert(b.mktuple(x, y), "B")),
        )
    )
    pool.append(
        transaction(
            "move-B-C",
            (x, y),
            b.seq(b.delete(b.mktuple(x, y), "B"), b.insert(b.mktuple(x, y), "C")),
        )
    )
    rel_a = b.rel("A", 2)
    pool.append(transaction("clear-A", (), b.assign("A", b.diff(rel_a, rel_a))))
    return pool


PROGRAMS = make_programs()

calls = st.tuples(
    st.integers(min_value=0, max_value=len(PROGRAMS) - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)

workloads = st.lists(calls, min_size=1, max_size=8)


def run_workload(workload, workers: int):
    db = Database(make_schema(), window=2)
    generous = RetryPolicy(max_attempts=200, base_delay=0.0001, max_delay=0.002)
    with db.concurrent(workers=workers, retry=generous, seed=0) as mgr:
        submissions = []
        for index, x, y in workload:
            program = PROGRAMS[index]
            args = () if not program.params else (x, y)
            submissions.append((program, *args))
        outcomes = mgr.run_all(submissions)
    return db, mgr, outcomes


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workload=workloads, workers=st.sampled_from([2, 4]))
def test_accepted_interleavings_are_serializable(workload, workers):
    db, mgr, outcomes = run_workload(workload, workers)

    # Constraint-free workload with a generous retry budget: everything
    # must commit.
    assert all(o.ok for o in outcomes)
    records = [o.record for o in outcomes]
    assert sorted(r.seq for r in records) == list(range(1, len(workload) + 1))

    # The committed records are the witness: serial replay in commit order
    # yields the concurrently reached state.
    replayed = replay_states(mgr.initial, records, interpreter=db.interpreter)
    assert states_equivalent(mgr.initial, db.current, replayed[-1])
    assert mgr.verify_serializable(outcomes)


@settings(max_examples=15, deadline=None)
@given(workload=workloads)
def test_single_worker_matches_sequential_execution(workload):
    """With one worker the manager degenerates to ordinary serial execution:
    the final state must equal a plain Database.execute sequence."""
    db, mgr, outcomes = run_workload(workload, workers=1)

    serial_db = Database(make_schema(), window=2)
    for index, x, y in workload:
        program = PROGRAMS[index]
        args = () if not program.params else (x, y)
        serial_db.execute(program, *args)

    assert all(o.ok for o in outcomes)
    assert [o.record.seq for o in outcomes] == list(range(1, len(workload) + 1))
    assert tuple(o.record.label for o in outcomes) == tuple(
        PROGRAMS[index].name for index, _, _ in workload
    )
    assert states_equivalent(mgr.initial, db.current, serial_db.current)


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_contended_single_relation_workload_serializes(workers):
    """All writers hammer one relation: heavy conflicts, yet the accepted
    schedule must still replay serially to the same state."""
    db = Database(make_schema(), window=2)
    put_a = PROGRAMS[0]
    generous = RetryPolicy(max_attempts=500, base_delay=0.0001, max_delay=0.002)
    with db.concurrent(workers=workers, retry=generous, seed=11) as mgr:
        outcomes = mgr.run_all([(put_a, i, i) for i in range(20)])
    assert all(o.ok for o in outcomes)
    assert len(db.current.relation("A")) == 20
    assert mgr.verify_serializable(outcomes)
    snap = mgr.stats.snapshot()
    assert snap.commits == 20 and snap.aborts == 0
