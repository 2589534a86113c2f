"""E11 — optimistic scheduler: commit throughput and conflict-rate scaling.

Claims measured:

* **Low-conflict scaling** — transactions striped over 16 relations with
  TPC-style per-transaction think time (modelling client/network/IO
  latency, which dominates real OLTP traffic) overlap in the worker pool:
  8 workers must clear >= 3x the single-worker commit throughput.
* **Conflict-rate scaling** — when every writer hammers one relation, the
  conflict rate climbs with the worker count while every transaction still
  commits (retry/backoff) and the committed outcomes stay serially
  replayable.

Evaluation is pure Python (GIL-bound): the speedup comes from overlapping
think time/IO, not from parallel interpretation — the honest claim for a
CPython deployment.
"""

from __future__ import annotations

import time

import pytest

from repro import Database, RetryPolicy, Schema, transaction
from repro.logic import builder as b

from conftest import print_series

THINK_TIME = 0.002  # 2 ms of modelled client/IO latency per transaction
TRANSACTIONS = 48


def fanout_schema(relations: int = 8) -> Schema:
    schema = Schema()
    for i in range(relations):
        schema.add_relation(f"R{i}", ("k", "v"))
    return schema


def put_programs(relations: int = 8):
    x, y = b.atom_var("x"), b.atom_var("y")
    return [
        transaction(f"put-R{i}", (x, y), b.insert(b.mktuple(x, y), f"R{i}"))
        for i in range(relations)
    ]


def run_low_conflict(workers: int) -> tuple[float, object]:
    """Commit TRANSACTIONS transactions striped across 8 relations; returns
    (commits per second, stats snapshot)."""
    db = Database(fanout_schema(16), window=2)
    programs = put_programs(16)
    with db.concurrent(workers=workers, seed=42) as mgr:
        started = time.perf_counter()
        futures = [
            mgr.submit(programs[i % len(programs)], i, i, think_time=THINK_TIME)
            for i in range(TRANSACTIONS)
        ]
        outcomes = [f.result() for f in futures]
        elapsed = time.perf_counter() - started
        assert all(o.ok for o in outcomes)
        assert mgr.verify_serializable(outcomes)
    return TRANSACTIONS / elapsed, mgr.stats.snapshot()


def run_high_conflict(workers: int) -> object:
    """Every transaction writes the same relation; returns the stats."""
    db = Database(fanout_schema(1), window=2)
    (put,) = put_programs(1)
    generous = RetryPolicy(max_attempts=500, base_delay=0.0002, max_delay=0.004)
    with db.concurrent(workers=workers, retry=generous, seed=42) as mgr:
        outcomes = mgr.run_all(
            [(put, i, i) for i in range(TRANSACTIONS)], think_time=0.0005
        )
        assert all(o.ok for o in outcomes)
        assert mgr.verify_serializable(outcomes)
    return mgr.stats.snapshot()


def test_bench_commit_throughput_scales_with_workers():
    """The acceptance claim: >= 3x single-worker throughput at 8 workers on
    a low-conflict workload."""
    rows = []
    by_workers = {}
    for workers in (1, 4, 8):
        throughput, snap = run_low_conflict(workers)
        by_workers[workers] = throughput
        rows.append(
            (
                workers,
                f"{throughput:.0f}/s",
                f"{by_workers[workers] / by_workers[1]:.2f}x",
                f"{snap.conflict_rate:.1%}",
                f"{snap.p95_latency * 1e3:.2f}ms",
            )
        )
    print_series(
        "E11a commit throughput vs workers (48 txns, 2ms think time)",
        rows,
        ("workers", "throughput", "speedup", "conflict-rate", "p95"),
    )
    speedup = by_workers[8] / by_workers[1]
    assert speedup >= 3.0, f"8 workers reached only {speedup:.2f}x"


def test_bench_conflict_rate_scales_with_contention():
    rows = []
    for workers in (1, 4, 8):
        snap = run_high_conflict(workers)
        rows.append(
            (
                workers,
                snap.commits,
                snap.conflicts,
                f"{snap.conflict_rate:.1%}",
                snap.retries,
            )
        )
    print_series(
        "E11b conflict rate vs workers (single hot relation)",
        rows,
        ("workers", "commits", "conflicts", "conflict-rate", "retries"),
    )
    # One worker never conflicts with itself; contention appears with
    # parallelism and every transaction still commits.
    assert rows[0][2] == 0
    assert all(r[1] == TRANSACTIONS for r in rows)


def test_bench_validation_overhead(benchmark):
    """Microbenchmark: the serial floor of the optimistic path — evaluate,
    track, validate, merge, commit with a single worker and no think time."""
    db = Database(fanout_schema(), window=2)
    programs = put_programs()
    mgr = db.concurrent(workers=1, seed=42)
    counter = {"n": 0}

    def commit_one():
        i = counter["n"]
        counter["n"] += 1
        outcome = mgr.execute(programs[i % len(programs)], i, i)
        assert outcome.ok

    benchmark(commit_one)
    mgr.close()
