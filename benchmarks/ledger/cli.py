"""``python -m benchmarks.ledger run | compare | selfcheck``.

``run --workload W --trace T`` is the driver's mode: it measures one
workload one way and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``run`` without
``--trace`` measures every workload (or the one named) both ways, prints
every metric by name with its unit and, with ``--out DIR``, writes
``ledger.json`` (provenance + every metric) and the span files.
Progress and diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Optional

from . import ROOT, ensure_repro_importable

#: The traced invocation splits its window: a short untraced
#: single-connection phase, then the traced one.
PLAIN_SHARE = 0.35
#: The untraced invocation of a multi-connection workload splits its window
#: too: single-connection latency phase, then the loaded phase.
LATENCY_SHARE = 0.45
SETUP_REPEATS = 3
SMOKE_SECONDS = 1.0


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def measure_end_to_end(name: str, seed: int, seconds: float, *,
                       setup_repeats: int = SETUP_REPEATS) -> dict:
    """The untraced run: every end-to-end metric of one workload.

    A multi-connection workload splits the window: a single-connection
    phase for the latency percentiles, then a phase at its full connection
    count for throughput and memory.  The set-ups of both count towards
    ``setup_s``.
    """
    from . import metrics
    from .driver import run_phase
    from .workloads import WORKLOADS

    if WORKLOADS[name].connections == 1:
        latency = loaded = run_phase(name, seed, seconds, setup_repeats=setup_repeats)
        phases = [latency]
    else:
        latency = run_phase(name, seed, seconds * LATENCY_SHARE, connections=1,
                            setup_repeats=max(1, setup_repeats - 1))
        loaded = run_phase(name, seed, seconds * (1 - LATENCY_SHARE))
        phases = [latency, loaded]
    values = metrics.end_to_end(latency, loaded)
    return _result(phases, metrics.with_units(values, metrics.END_TO_END),
                   samples=metrics.sample_counts(latency))


def measure_per_layer(name: str, seed: int, seconds: float, *,
                      ops_limit=None, spans_dir=None) -> dict:
    """The traced run: every per-layer metric of one workload, from an
    untraced and a traced single-connection phase."""
    from . import metrics
    from .driver import run_phase

    plain = run_phase(name, seed, seconds * PLAIN_SHARE, connections=1,
                      ops_limit=ops_limit)
    traced = run_phase(name, seed, seconds * (1 - PLAIN_SHARE), connections=1,
                       traced=True, ops_limit=ops_limit, spans_dir=spans_dir)
    values = metrics.per_layer(plain, traced)
    result = _result([plain, traced], metrics.with_units(values, metrics.PER_LAYER),
                     samples=metrics.sample_counts(traced))
    result["layer_ms_per_op"] = {
        layer: 1e3 * spent / max(1, traced.ops)
        for layer, spent in metrics.layer_seconds(traced).items()}
    return result


def _result(phases, metric_doc: dict, *, samples: dict) -> dict:
    failures = [f for phase in phases for f in phase.failures]
    for failure in failures:
        log("  WRONG:", failure)
    last = phases[-1]
    return {
        "correct": all(phase.correct for phase in phases),
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": metric_doc,
        "samples": samples,
        "stream_sha256": last.stream_sha256,
        "acked_lost": sum((phase.reopen or {}).get("acked_lost", 0) for phase in phases),
        "wall_s": sum(phase.wall_s for phase in phases),
        "failures": failures,
    }


def driver_line(result: dict) -> str:
    """The contract's last line: exactly these four keys."""
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def provenance(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "platform": platform.platform(), "cpu": cpu,
            "nproc": os.cpu_count(), "seed": seed, "seconds": seconds,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_all(seed: int, seconds: float, *, out=None, repeat: int = 1,
            setup_repeats: int = SETUP_REPEATS, ops_limit=None, names=None) -> dict:
    """Every workload, untraced (``repeat`` times, seeds ``seed``,
    ``seed+1``, …) and traced (once); returns the ledger document."""
    from .workloads import WORKLOADS

    ledger = {"provenance": provenance(seed, seconds), "workloads": {}}
    for name in names or WORKLOADS:
        log(f"== {name}")
        runs = []
        for k in range(repeat):
            runs.append(measure_end_to_end(name, seed + k, seconds,
                                           setup_repeats=setup_repeats))
            log("  untraced:", _brief(runs[-1]))
        traced = measure_per_layer(
            name, seed, seconds, ops_limit=ops_limit,
            spans_dir=os.path.join(out, "spans") if out else None)
        log("  traced:  ", _brief(traced, ("client.ops_per_s", "obs.trace_overhead_ratio",
                                            "obs.unattributed_share")))
        log("  ms/op by layer:", {k: round(v, 4) for k, v in traced["layer_ms_per_op"].items() if v})
        entry = dict(runs[0])
        # A repeated metric is reported by its median; the values stay, so
        # compare can tell a difference from this tree's own spread.
        entry["repeats"] = {
            metric: [run["metrics"][metric]["value"] for run in runs]
            for metric in runs[0]["metrics"]}
        for metric, values in entry["repeats"].items():
            entry["metrics"][metric]["value"] = statistics.median(values)
        entry["correct"] = all(run["correct"] for run in runs)
        ledger["workloads"][name] = {"untraced": entry, "traced": traced}
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "ledger.json"), "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
        log("wrote", os.path.join(out, "ledger.json"))
    return ledger


def _brief(result: dict, only=None) -> str:
    shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
             if only is None or k in only}
    return f"correct={result['correct']} attempted={result['attempted']} " \
           f"failed={result['failed']} {shown}"


def print_metrics(ledger: dict) -> None:
    """Every metric by name with its unit, one row per workload."""
    for name, entry in ledger["workloads"].items():
        for mode in ("untraced", "traced"):
            for metric, doc in entry[mode]["metrics"].items():
                print(f"{name:12s} {mode:8s} {metric:40s} {doc['value']:14.4f} {doc['unit']}")


def ledger_correct(ledger: dict) -> bool:
    return all(entry[mode]["correct"] for entry in ledger["workloads"].values()
               for mode in ("untraced", "traced"))


# ---------------------------------------------------------------------------
# compare / selfcheck
# ---------------------------------------------------------------------------


def _spread(values: list[float]) -> Optional[float]:
    """Run-to-run spread of one tree's repeats as a share of their median:
    the inter-quartile distance from four repeats up, max − min for two or
    three, ``None`` for a single run (which cannot tell)."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def compare(a: dict, b: dict) -> list[dict]:
    """One row per (workload, end-to-end metric): both values, the ratio
    with its base, the bound, and a verdict."""
    from .metrics import END_TO_END

    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, unit, better, bound in END_TO_END:
            va = entry_a["untraced"]["metrics"][metric]["value"]
            vb = entry_b["untraced"]["metrics"][metric]["value"]
            spread = _spread(entry_a["untraced"].get("repeats", {}).get(metric, []))
            change = (vb - va) / va if va else 0.0
            worse = change if better == "lower" else -change
            if spread is not None and spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "within-bound"
            rows.append({"workload": name, "metric": metric, "unit": unit,
                         "a": va, "b": vb, "ratio": vb / va if va else 0.0,
                         "bound": bound, "spread_a": spread, "verdict": verdict})
    return rows


def print_comparison(rows: list[dict]) -> None:
    print(f"{'workload':12s} {'metric':14s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread A':>8s}  verdict")
    for r in rows:
        spread = "n/a" if r["spread_a"] is None else f"{r['spread_a']:.3f}"
        print(f"{r['workload']:12s} {r['metric']:14s} {r['a']:12.4f} {r['b']:12.4f} "
              f"{r['ratio']:7.3f} {r['bound']:6.2f} {spread:>8s}  "
              f"{r['verdict']} ({r['unit']}, base A={r['a']:.4f})")
    if any(r["spread_a"] is None for r in rows):
        print("spread n/a: A holds one run of that metric, so noise wider than the "
              "bound cannot be told from a change; record A with --repeat 4 or more")


def selfcheck(seed: int, seconds: float, ops_limit: int, names=None) -> int:
    """Run the whole benchmark twice on this tree: every end-to-end metric
    must agree within its bound, and the traced runs (a fixed number of ops)
    must agree exactly on every count."""
    from .metrics import PER_LAYER

    first = run_all(seed, seconds, ops_limit=ops_limit, names=names)
    second = run_all(seed, seconds, ops_limit=ops_limit, names=names)
    rows = compare(first, second)
    print_comparison(rows)
    bad = [r for r in rows if r["verdict"] in ("worse", "better")]

    def exact(entry: dict) -> dict:
        counts = {m: entry["metrics"][m]["value"] for m, unit, *_ in PER_LAYER
                  if unit == "count"}
        return {**counts, "stream_sha256": entry["stream_sha256"]}

    for name, entry in first["workloads"].items():
        one, two = exact(entry["traced"]), exact(second["workloads"][name]["traced"])
        for metric in one:
            if one[metric] != two[metric]:
                print(f"{name}: traced {metric} differs: {one[metric]} vs {two[metric]}")
                bad.append(metric)
    ok = not bad and ledger_correct(first) and ledger_correct(second)
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload (driver mode) or all")
    run.add_argument("--workload", help="one workload; default: all of them")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=10.0)
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="driver mode: one workload, one way, result line last")
    run.add_argument("--ops", type=int, help="end the traced window after N ops")
    run.add_argument("--repeat", type=int, default=1,
                     help="untraced repeats per workload (seeds seed, seed+1, …)")
    run.add_argument("--out", help="directory for ledger.json and span files")
    run.add_argument("--smoke", action="store_true",
                     help=f"every workload, {SMOKE_SECONDS:g}s windows, one set-up")

    cmp_ = sub.add_parser("compare", help="diff two ledger.json files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")

    check = sub.add_parser("selfcheck", help="run twice, require agreement")
    check.add_argument("--seed", type=int, default=1)
    check.add_argument("--seconds", type=float, default=10.0)
    check.add_argument("--ops", type=int, default=150)
    check.add_argument("--workload", action="append")

    args = parser.parse_args(argv)
    if args.command == "compare":
        with open(args.a) as fa, open(args.b) as fb:
            rows = compare(json.load(fa), json.load(fb))
        print_comparison(rows)
        return 1 if any(r["verdict"] == "worse" for r in rows) else 0

    ensure_repro_importable()
    if args.command == "selfcheck":
        return selfcheck(args.seed, args.seconds, args.ops, args.workload)

    from .workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    if args.trace is None:
        seconds = SMOKE_SECONDS if args.smoke else args.seconds
        ledger = run_all(
            args.seed, seconds, out=args.out, repeat=args.repeat,
            setup_repeats=1 if args.smoke else SETUP_REPEATS, ops_limit=args.ops,
            names=[args.workload] if args.workload else None)
        print_metrics(ledger)
        return 0 if ledger_correct(ledger) else 1

    if args.workload is None:
        parser.error("--trace needs --workload")
    if args.trace:
        result = measure_per_layer(
            args.workload, args.seed, args.seconds, ops_limit=args.ops,
            spans_dir=os.path.join(args.out, "spans") if args.out else None)
    else:
        result = measure_end_to_end(args.workload, args.seed, args.seconds)
    log(_brief(result))
    print(driver_line(result))
    return 0 if result["correct"] else 1
