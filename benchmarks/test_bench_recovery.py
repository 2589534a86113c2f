"""E12 — durability: journal append overhead and recovery-time scaling.

Claims measured:

* **Journal overhead** — on the low-conflict concurrent workload (striped
  relations, TPC-style think time), OS-buffered journaling (``sync="os"``,
  the process-kill durability level the fault-injection suite tests) costs
  at most 25% of non-durable commit throughput.  Per-commit fsync
  (``sync="commit"``, power-cut durability) is reported alongside for the
  honest price list.
* **Recovery scaling** — recovery time grows linearly with the journal tail
  length and collapses when a checkpoint pins a newer snapshot: recovering
  a checkpointed store replays only the tail after the last snapshot.

Both series are exported as JSON (``--benchmark-json`` in CI) so the
crash-recovery job can upload them as artifacts.
"""

from __future__ import annotations

import tempfile
import time

import pytest

from repro import Database, Schema, transaction
from repro.logic import builder as b
from repro.storage import Store

from conftest import print_series

THINK_TIME = 0.002
TRANSACTIONS = 48
RELATIONS = 16


def fanout_schema(relations: int = RELATIONS) -> Schema:
    schema = Schema()
    for i in range(relations):
        schema.add_relation(f"R{i}", ("k", "v"))
    return schema


def put_programs(relations: int = RELATIONS):
    x, y = b.atom_var("x"), b.atom_var("y")
    return [
        transaction(f"put-R{i}", (x, y), b.insert(b.mktuple(x, y), f"R{i}"))
        for i in range(relations)
    ]


def run_low_conflict(store_path=None, sync: str = "os") -> float:
    """Commits per second for the striped workload, optionally durable."""
    db = Database(fanout_schema(), window=2)
    programs = put_programs()
    if store_path is not None:
        db.durable(store_path, checkpoint_every=10_000, sync=sync)
    with db.concurrent(workers=8, seed=42) as mgr:
        started = time.perf_counter()
        futures = [
            mgr.submit(programs[i % RELATIONS], i, i, think_time=THINK_TIME)
            for i in range(TRANSACTIONS)
        ]
        outcomes = [f.result() for f in futures]
        elapsed = time.perf_counter() - started
        assert all(o.ok for o in outcomes)
    db.close()
    return TRANSACTIONS / elapsed


def test_bench_journal_append_overhead():
    """Acceptance claim: OS-buffered journaling loses <= 25% throughput on
    the low-conflict workload (best of 3 to damp scheduler noise).  The
    three modes alternate trial by trial, so host drift over the run lands
    on every mode alike instead of in the ratio."""
    modes = ("memory", "os", "commit")
    best = dict.fromkeys(modes, 0.0)
    for _ in range(3):
        for mode in modes:
            if mode == "memory":
                rate = run_low_conflict(None)
            else:
                with tempfile.TemporaryDirectory() as d:
                    rate = run_low_conflict(d + "/store", sync=mode)
            best[mode] = max(best[mode], rate)
    base = best["memory"]
    rows = [("memory", f"{base:.0f}/s", "1.00x", "-")]
    for sync in ("os", "commit"):
        rows.append(
            (
                f"durable[{sync}]",
                f"{best[sync]:.0f}/s",
                f"{best[sync] / base:.2f}x",
                f"{(1 - best[sync] / base):.1%}",
            )
        )
    print_series(
        "E12a journal append overhead (48 txns, 8 workers, 2ms think time)",
        rows,
        ("mode", "throughput", "vs memory", "loss"),
    )
    loss = 1 - best["os"] / base
    assert loss <= 0.25, f"OS-buffered journaling lost {loss:.1%} throughput"


def test_bench_recovery_time_scales_with_journal_length(tmp_path):
    """Recovery cost tracks the journal tail; checkpoints collapse it."""
    schema = fanout_schema(4)
    programs = put_programs(4)
    rows = []
    for commits in (16, 64, 256):
        path = tmp_path / f"store-{commits}"
        db = Database(schema, window=2)
        db.durable(path, checkpoint_every=10_000, sync="os")
        for i in range(commits):
            db.execute(programs[i % 4], f"k{i}", i)
        db.close()
        started = time.perf_counter()
        recovery = Store(path).recover()
        elapsed = time.perf_counter() - started
        assert recovery.seq == commits and recovery.clean
        rows.append((commits, 0, f"{elapsed * 1e3:.1f}ms"))

    # Same largest run, but checkpointed: the tail shrinks to <= 16 records.
    path = tmp_path / "store-checkpointed"
    db = Database(schema, window=2)
    db.durable(path, checkpoint_every=16, sync="os")
    for i in range(256):
        db.execute(programs[i % 4], f"k{i}", i)
    db.close()
    started = time.perf_counter()
    recovery = Store(path).recover()
    checkpointed = time.perf_counter() - started
    assert recovery.seq == 256 and recovery.snapshot_seq >= 240
    rows.append((256, 16, f"{checkpointed * 1e3:.1f}ms"))

    print_series(
        "E12b recovery time vs journal length",
        rows,
        ("commits", "checkpoint-every", "recovery"),
    )
    # The checkpointed recovery replays <= 16 records; it must beat replaying
    # all 256 (generous 2x margin keeps CI noise out).
    full_tail = float(rows[2][2][:-2])
    assert checkpointed * 1e3 <= full_tail * 2


def test_bench_single_commit_journal_cost(benchmark, tmp_path):
    """Microbenchmark: one serial durable commit (delta + frame + append)."""
    schema = fanout_schema(4)
    programs = put_programs(4)
    db = Database(schema, window=2)
    db.durable(tmp_path / "store", checkpoint_every=10_000, sync="os")
    counter = {"n": 0}

    def commit_one():
        i = counter["n"]
        counter["n"] += 1
        db.execute(programs[i % 4], f"k{i}", i)

    benchmark(commit_one)
    db.close()


def test_bench_recovery_fault_sweep(tmp_path):
    """Smoke-scale fault sweep: every record boundary of a 24-commit journal
    recovers, and reports the sweep rate."""
    from repro.storage import faults

    schema = fanout_schema(4)
    programs = put_programs(4)
    path = tmp_path / "store"
    db = Database(schema, window=2)
    db.durable(path, checkpoint_every=10_000, sync="os")
    for i in range(24):
        db.execute(programs[i % 4], f"k{i}", i)
    db.close()
    boundaries = faults.record_boundaries(path)
    started = time.perf_counter()
    for offset in boundaries:
        fault = faults.crashed_copy(path, offset, tmp_path / "crashes")
        recovery = fault.store().recover()
        assert recovery.clean
    elapsed = time.perf_counter() - started
    print_series(
        "E12c fault sweep (record boundaries, 24-commit journal)",
        [(len(boundaries), f"{elapsed * 1e3:.0f}ms",
          f"{len(boundaries) / elapsed:.0f}/s")],
        ("kill points", "total", "recoveries/s"),
    )
