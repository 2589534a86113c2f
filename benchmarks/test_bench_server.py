"""E16 — wire-server throughput: batching must amortize the round trip.

Claims measured:

* **Single-request floor** — one EXECUTE per frame pays a full
  client→server→scheduler→client round trip per transaction; requests/sec
  is bounded by latency, not by worker throughput.
* **Batched submission wins ≥ 3×** — a BATCH frame fans all of its
  transactions into the scheduler's chunked batch path at once, so one
  round trip (and one worker hand-off per chunk) carries ``BATCH_SIZE``
  transactions.  The acceptance gate from the issue: batched requests/sec
  is at least **3×** the single-request rate.
* **Pipelining sits between** — ``submit()`` keeps one frame per
  transaction but overlaps the round trips; reported for shape, ungated.

The workload stripes transactions across 64 distinct relations (the E11
fanout schema, one relation per batch slot) so optimistic validation sees
disjoint footprints — the benchmark measures the wire, not a conflict
storm.  Single and batched phases run as ``TRIALS`` interleaved trials and
the gate compares **medians**, so one noisy scheduler quantum cannot decide
the verdict either way.

Headline numbers land in ``BENCH_server.json`` at the repo root.
"""

from __future__ import annotations

import statistics
import time

from repro import Database, Schema, TenantConfig, TransactionServer, transaction
from repro.logic import builder as b
from repro.server.client import Client

from conftest import print_series, write_bench_json

RELATIONS = 64
SINGLES = 96
BATCHES = 6
BATCH_SIZE = 64
TRIALS = 3


def fanout_schema() -> Schema:
    schema = Schema()
    for i in range(RELATIONS):
        schema.add_relation(f"R{i}", ("k", "v"))
    return schema


def put_programs():
    x, y = b.atom_var("x"), b.atom_var("y")
    return [
        transaction(f"put-R{i}", (x, y), b.insert(b.mktuple(x, y), f"R{i}"))
        for i in range(RELATIONS)
    ]


def striped(n: int, start: int = 0):
    """(program-name, key, value) items striped across the relations."""
    return [
        (f"put-R{i % RELATIONS}", start + i, i) for i in range(n)
    ]


def requests_per_second(count: int, elapsed: float) -> float:
    return count / elapsed if elapsed > 0 else float("inf")


def test_bench_server_single_vs_batched():
    db = Database(fanout_schema())
    # Unbounded admission: this experiment measures the wire, not quotas
    # (the pipelined phase keeps SINGLES requests in flight at once).
    ungoverned = TenantConfig(max_inflight=None)
    single_rates: list[float] = []
    batched_rates: list[float] = []
    with TransactionServer(
        db, put_programs(), workers=2, default_tenant=ungoverned
    ) as server:
        with Client(*server.address) as client:
            # Warm the path (connection, catalog, scheduler) out of band.
            client.batch(striped(BATCH_SIZE, start=1_000_000))

            for trial in range(TRIALS):
                base = 10_000 * (trial + 1)
                t0 = time.perf_counter()
                for name, k, v in striped(SINGLES, start=base):
                    assert client.execute(name, k, v).ok
                single_rates.append(
                    requests_per_second(SINGLES, time.perf_counter() - t0)
                )

                t0 = time.perf_counter()
                for batch_no in range(BATCHES):
                    results = client.batch(
                        striped(
                            BATCH_SIZE,
                            start=base + 1_000 * (batch_no + 1),
                        )
                    )
                    assert all(r.ok for r in results)
                batched_rates.append(
                    requests_per_second(
                        BATCHES * BATCH_SIZE, time.perf_counter() - t0
                    )
                )

            t0 = time.perf_counter()
            pendings = [
                client.submit(name, k, v)
                for name, k, v in striped(SINGLES, start=500_000)
            ]
            assert all(p.result().ok for p in pendings)
            pipelined_rps = requests_per_second(
                SINGLES, time.perf_counter() - t0
            )

    single_rps = statistics.median(single_rates)
    batched_rps = statistics.median(batched_rates)
    speedup = batched_rps / single_rps
    print_series(
        "E16: wire throughput, single vs pipelined vs batched "
        f"(median of {TRIALS} trials)",
        [
            ("single", TRIALS * SINGLES, f"{single_rps:8.0f}", "1.00x"),
            ("pipelined", SINGLES, f"{pipelined_rps:8.0f}",
             f"{pipelined_rps / single_rps:.2f}x"),
            (f"batched({BATCH_SIZE})", TRIALS * BATCHES * BATCH_SIZE,
             f"{batched_rps:8.0f}", f"{speedup:.2f}x"),
        ],
        ("mode", "txns", "req/s", "vs single"),
    )
    write_bench_json(
        "server",
        {
            "experiment": "E16-server-throughput",
            "relations": RELATIONS,
            "trials": TRIALS,
            "single": {
                "transactions": TRIALS * SINGLES,
                "requests_per_second": round(single_rps, 1),
                "trial_rates": [round(r, 1) for r in single_rates],
            },
            "pipelined": {
                "transactions": SINGLES,
                "requests_per_second": round(pipelined_rps, 1),
            },
            "batched": {
                "transactions": TRIALS * BATCHES * BATCH_SIZE,
                "batch_size": BATCH_SIZE,
                "requests_per_second": round(batched_rps, 1),
                "trial_rates": [round(r, 1) for r in batched_rates],
            },
            "batched_speedup": round(speedup, 2),
            "gate": "median batched >= 3x median single",
            "gate_passed": speedup >= 3.0,
        },
    )
    # The issue's acceptance gate: one frame of N transactions beats N
    # frames of one transaction by at least 3x.
    assert speedup >= 3.0, (
        f"batched submission only {speedup:.2f}x the single-request rate "
        f"({batched_rps:.0f} vs {single_rps:.0f} req/s)"
    )
