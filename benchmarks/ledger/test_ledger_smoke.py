"""``run --smoke``: all six workloads, untraced and traced, through the
front door; every metric ``BENCHMARK.json`` names is emitted with its unit
and the correctness gate passes.

Collected by ``pytest benchmarks --benchmark-disable`` (CI), not by tier-1
(``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from . import ROOT, cli, driver, metrics
from .workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py")]


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [m[:3] for m in metrics.PER_LAYER]


def test_op_streams_are_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        n = workload.connections
        assert workload.stream_sha256(3, 0, n) == workload.stream_sha256(3, 0, n)
        assert workload.stream_sha256(3, 0, n) != workload.stream_sha256(4, 0, n)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two cores")
def test_generator_and_server_are_pinned_to_different_cores():
    allowed = os.sched_getaffinity(0)
    try:
        for attempt in ("first", "second"):  # a later phase must not see the narrowed mask
            driver._pin(os.getpid(), 0)
            setup = driver._Setup(WORKLOADS["wire_put"], 1, 1, False, None, attempt)
            try:
                pid = setup.child.proc.pid
                server = set().union(*(os.sched_getaffinity(int(tid))
                                       for tid in os.listdir(f"/proc/{pid}/task")))
            finally:
                setup.teardown()
            generator = os.sched_getaffinity(0)
            assert len(generator) == 1 and len(server) == 1 and generator != server
    finally:
        os.sched_setaffinity(0, allowed)


def _ledger(repeats: list[float]) -> dict:
    untraced = {"metrics": {name: {"value": repeats[len(repeats) // 2], "unit": unit}
                            for name, unit, *_ in metrics.END_TO_END},
                "repeats": {name: repeats for name, *_ in metrics.END_TO_END}}
    return {"workloads": {"w": {"untraced": untraced}}}


def test_compare_tells_noise_from_change_with_few_repeats():
    # Three repeats 40% apart: no 25% bound can be resolved against them.
    verdicts = {r["verdict"] for r in cli.compare(_ledger([0.8, 1.0, 1.2]), _ledger([2.0]))}
    assert verdicts == {"unresolved"}
    # Three repeats 2% apart: a doubling is a change, in the metric's direction.
    rows = cli.compare(_ledger([0.99, 1.0, 1.01]), _ledger([2.0]))
    assert {(r["metric"], r["verdict"]) for r in rows} == {
        (name, "worse" if better == "lower" else "better")
        for name, _unit, better, _bound in metrics.END_TO_END}
    # One run has no spread; the row says so instead of reading 0.
    assert all(r["spread_a"] is None for r in cli.compare(_ledger([1.0]), _ledger([1.0])))


def test_smoke_emits_every_metric_and_passes_the_gate(tmp_path):
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(tmp_path)], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-4000:]
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    assert set(ledger["provenance"]) >= {"commit", "python", "platform", "cpu",
                                         "nproc", "seed"}
    for workload in BENCHMARK["workloads"]:
        entry = ledger["workloads"][workload["name"]]
        for mode, wanted in (("untraced", BENCHMARK["end_to_end"]),
                             ("traced", BENCHMARK["per_layer"])):
            got = entry[mode]["metrics"]
            assert entry[mode]["correct"] and entry[mode]["failed"] == 0
            assert entry[mode]["acked_lost"] == 0
            assert {m["name"]: m["unit"] for m in wanted} == {
                name: doc["unit"] for name, doc in got.items()}
        assert all(doc["value"] > 0 for doc in entry["untraced"]["metrics"].values())
        assert (tmp_path / "spans" / f"{workload['name']}.server.spans.json").exists()


def test_driver_mode_prints_the_contract_line():
    done = subprocess.run(
        RUN + ["--workload", "wire_put", "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
