"""Metric definitions and their derivation from measured phases.

:data:`END_TO_END` and :data:`PER_LAYER` are the single source of truth for
names, units, directions and bounds; ``BENCHMARK.json`` at the repo root
repeats them and the smoke test checks the two agree.

End-to-end metrics come from the untraced run: latency percentiles from a
single-connection phase, throughput and memory from a phase at the
workload's connection count.  Per-layer
metrics come from one ``--trace 1`` invocation, which runs two
single-connection phases: an untraced one (the ``client.*`` latencies and
the base of ``obs.trace_overhead_ratio``) and a traced one (self times from
the wrappers' spans, counts from the child's metrics registry diffed against
its value at ``mark``).  A metric whose op type or layer a workload does not
use reads 0 there.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Optional

from . import LAYERS
from .driver import Phase

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

# name, unit, better, "end-to-end metric it should move @ workload"
PER_LAYER = (
    # what a client sees, untraced, one connection
    ("client.write_p50_ms", "ms", "lower", "write_p50_ms @ all"),
    ("client.write_p90_ms", "ms", "lower", "none (does not repeat within 25% here) @ all"),
    ("client.read_p50_ms", "ms", "lower", "ops_per_s @ emp_read, emp_oltp, shard_mix"),
    ("client.read_p95_ms", "ms", "lower", "ops_per_s @ emp_read"),
    ("client.batch_p50_ms", "ms", "lower", "ops_per_s @ wire_put"),
    ("client.xwrite_p50_ms", "ms", "lower", "ops_per_s @ shard_mix"),
    ("client.ops_per_s", "1/s", "higher", "ops_per_s @ all"),
    # server: protocol, session, client
    ("server.codec_ms_per_op", "ms", "lower", "write_p50_ms, ops_per_s @ wire_put"),
    ("server.bytes_per_op", "B", "lower", "write_p50_ms @ wire_put"),
    ("server.dispatch_ms_per_op", "ms", "lower", "write_p50_ms @ wire_put"),
    ("server.transport_ms_per_op", "ms", "lower", "write_p50_ms @ wire_put"),
    ("server.cpu_ms_per_op", "ms", "lower", "ops_per_s @ all"),
    ("server.rtt_p99_ms", "ms", "lower", "write_p50_ms @ wire_put, durable_put"),
    ("server.latency_drift", "ratio", "lower", "write_p50_ms, peak_rss_mb @ wire_put"),
    # concurrent: admission, scheduler, retry
    ("concurrent.sched_ms_per_op", "ms", "lower", "write_p50_ms @ wire_put"),
    ("concurrent.admission_wait_ms_per_op", "ms", "lower", "write_p50_ms @ wire_put"),
    ("concurrent.attempts_per_commit", "ratio", "lower", "ops_per_s @ emp_oltp"),
    ("concurrent.conflict_ratio", "ratio", "lower", "ops_per_s @ emp_oltp"),
    ("concurrent.refused_total", "count", "lower", "ops_per_s @ all"),
    # engine: Database.apply glue, history, records
    ("engine.commit_glue_ms_per_op", "ms", "lower", "write_p50_ms @ wire_put"),
    # transactions: the tree-walk interpreter
    ("transactions.interpret_ms_per_op", "ms", "lower", "write_p50_ms @ emp_paper, wire_put"),
    # constraints: check_history
    ("constraints.check_ms_per_commit", "ms", "lower", "write_p50_ms @ emp_paper, emp_oltp, shard_mix"),
    ("constraints.checks_per_commit", "ratio", "lower", "write_p50_ms @ emp_oltp"),
    ("constraints.check_share", "ratio", "lower", "write_p50_ms @ emp_paper"),
    # algebra: compiler, planner, executor
    ("algebra.exec_ms_per_op", "ms", "lower", "write_p50_ms @ emp_oltp; ops_per_s @ emp_read"),
    ("algebra.planned_share", "ratio", "higher", "write_p50_ms @ emp_paper"),
    ("algebra.plans_per_op", "ratio", "lower", "write_p50_ms @ emp_oltp"),
    ("algebra.compiled_total", "count", "lower", "setup_s @ emp_oltp"),
    # eval: incremental checker, query cache, state_delta
    ("eval.skip_ratio", "ratio", "higher", "write_p50_ms @ emp_oltp"),
    ("eval.delta_ms_per_commit", "ms", "lower", "write_p50_ms @ emp_oltp"),
    ("eval.cache_hit_ratio", "ratio", "higher", "ops_per_s @ emp_read"),
    ("eval.cache_invalidations_per_commit", "ratio", "lower", "write_p50_ms @ emp_oltp, emp_read"),
    ("eval.cache_ms_per_query", "ms", "lower", "ops_per_s @ emp_read"),
    # storage: journal, snapshot, store
    ("storage.append_ms_per_commit", "ms", "lower", "write_p50_ms @ durable_put, shard_mix"),
    ("storage.fsync_ms_per_commit", "ms", "lower", "write_p50_ms @ durable_put, shard_mix"),
    ("storage.fsyncs_per_commit", "ratio", "lower", "write_p50_ms @ durable_put"),
    ("storage.bytes_per_commit", "B", "lower", "write_p50_ms @ durable_put"),
    ("storage.disk_bytes_per_commit", "B", "lower", "setup_s @ durable_put"),
    ("storage.checkpoint_ms_total", "ms", "lower", "ops_per_s @ durable_put"),
    ("storage.checkpoints_total", "count", "lower", "ops_per_s @ durable_put"),
    ("storage.checkpoint_stall_p99_ms", "ms", "lower", "ops_per_s @ durable_put"),
    ("storage.recover_ms", "ms", "lower", "setup_s @ durable_put, shard_mix"),
    ("storage.recovery_s", "s", "lower", "setup_s @ durable_put, shard_mix"),
    ("storage.replayed_records", "count", "lower", "setup_s @ durable_put"),
    # sharding: routing, 2PC coordinator, replica, failover
    ("sharding.route_ms_per_op", "ms", "lower", "write_p50_ms @ shard_mix"),
    ("sharding.single_shard_ratio", "ratio", "higher", "ops_per_s @ shard_mix"),
    ("sharding.prepare_ms_per_xtxn", "ms", "lower", "ops_per_s @ shard_mix"),
    ("sharding.decide_ms_per_xtxn", "ms", "lower", "ops_per_s @ shard_mix"),
    ("sharding.outcome_ms_per_xtxn", "ms", "lower", "ops_per_s @ shard_mix"),
    ("sharding.replica_poll_ms", "ms", "lower", "none (diagnostic) @ shard_mix"),
    ("sharding.replica_lag_records", "records", "lower", "none (diagnostic) @ shard_mix"),
    ("sharding.failover_window_ms", "ms", "lower", "none (diagnostic) @ shard_mix"),
    # each layer's share of the traced per-op time
    ("server.time_share", "ratio", "lower", "write_p50_ms @ wire_put"),
    ("concurrent.time_share", "ratio", "lower", "write_p50_ms @ wire_put"),
    ("engine.time_share", "ratio", "lower", "write_p50_ms @ wire_put"),
    ("transactions.time_share", "ratio", "lower", "write_p50_ms @ emp_paper"),
    ("constraints.time_share", "ratio", "lower", "write_p50_ms @ emp_paper"),
    ("algebra.time_share", "ratio", "lower", "write_p50_ms @ emp_oltp"),
    ("eval.time_share", "ratio", "lower", "write_p50_ms @ emp_oltp"),
    ("storage.time_share", "ratio", "lower", "write_p50_ms @ durable_put"),
    ("sharding.time_share", "ratio", "lower", "write_p50_ms @ shard_mix"),
    # obs: what this benchmark's tracing costs and leaves unexplained
    ("obs.trace_overhead_ratio", "ratio", "lower", "none @ all"),
    ("obs.unattributed_share", "ratio", "lower", "none @ all"),
)

#: ``obs`` is what the tracing costs, not a layer that spans belong to.
TIMED_LAYERS = tuple(layer for layer in LAYERS if layer != "obs")


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 of nothing."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _latencies(phase: Phase, cls: Optional[str] = None) -> list[float]:
    return [end - start for conn in phase.samples
            for (c, start, end, _ok, _n) in conn if cls is None or c == cls]


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _series_total(doc: dict, family: str, field: str = "value", **labels) -> float:
    rows = doc.get(family, {}).get("series", ())
    return sum(row.get(field, 0.0) for row in rows
               if all(row["labels"].get(k) == v for k, v in labels.items()))


class _Counters:
    """The child's metrics registry over the measured window (final minus
    the value at ``mark``)."""

    def __init__(self, phase: Phase) -> None:
        self._final = phase.final.get("metrics", {})
        self._base = phase.baseline

    def __call__(self, family: str, field: str = "value", **labels) -> float:
        return (_series_total(self._final, family, field, **labels)
                - _series_total(self._base, family, field, **labels))


def throughput(phase: Phase) -> float:
    """Correct transactions per second of the measured window (a BATCH
    counts its transactions; a wrong outcome counts for nothing)."""
    done = [(start, end, n if ok else 0) for conn in phase.samples
            for (_c, start, end, ok, n) in conn]
    if not done:
        return 0.0
    window = max(end for _s, end, _n in done) - min(start for start, _e, _n in done)
    return _ratio(sum(n for _s, _e, n in done), window)


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def end_to_end(latency: Phase, loaded: Phase) -> dict[str, float]:
    """``latency`` is the single-connection phase (service time: nothing
    queues behind another connection, so the median maps onto the traced
    run's per-layer self times); ``loaded`` is the phase at
    the workload's full connection count.  They are the same phase for a
    single-connection workload."""
    writes = _latencies(latency, "write")
    setups = latency.setup_s + (loaded.setup_s if loaded is not latency else [])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": throughput(loaded),
        "write_p50_ms": _ms(percentile(writes, 0.50)),
        "peak_rss_mb": (loaded.peak_rss_kb or 0) / 1024.0,
    }


def sample_counts(phase: Phase) -> dict[str, int]:
    counts: dict[str, int] = {}
    for conn in phase.samples:
        for cls, *_rest in conn:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------


def _span(doc: Optional[dict], name: str, field: str) -> float:
    if not doc:
        return 0.0
    return doc["by_name"].get(name, {}).get(field, 0.0)


def _spans(doc: Optional[dict], names: Iterable[str], field: str) -> float:
    return sum(_span(doc, name, field) for name in names)


def layer_seconds(traced: Phase) -> dict[str, float]:
    """Self time per layer over the traced window, both processes.

    The client root's self time still contains the whole server-side
    residence (another process); taking the server roots' total out of it
    leaves the socket and the wake-ups, which belong to ``server``.
    """
    server, client = traced.final.get("spans"), traced.client_spans
    layers = dict.fromkeys(TIMED_LAYERS, 0.0)
    for layer, seconds in (server or {}).get("by_layer", {}).items():
        layers[layer] = layers.get(layer, 0.0) + seconds
    client_total = sum((client or {}).get("by_layer", {}).values())
    layers["server"] += client_total - _span(server, "server.request", "total_s")
    return layers


def per_layer(plain: Phase, traced: Phase) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one untraced and one traced
    single-connection phase."""
    server, client = traced.final.get("spans"), traced.client_spans
    counters = _Counters(traced)
    ops = max(1, traced.ops)
    commits = max(1.0, counters("repro_commits_total")
                  + counters("repro_shard_commits_total", mode="single")
                  + counters("repro_shard_decisions_total", decision="commit"))
    queries = max(1, sample_counts(traced).get("read", 0))
    xtxns = max(1.0, counters("repro_shard_decisions_total", decision="commit"))
    latencies = _latencies(traced)
    layers = layer_seconds(traced)
    attributed = sum(layers.values())
    mean_latency = statistics.mean(latencies) if latencies else 0.0

    codec = _spans(server, ("server.decode", "server.encode", "server.value_to_doc"), "self_s") \
        + _spans(client, ("client.encode", "client.decode", "client.value_from_doc",
                          "client.error_from_doc"), "self_s")
    request_total = _span(server, "server.request", "total_s")
    check_total = _span(server, "constraints.check_history", "total_s")
    apply_total = _span(server, "engine.apply", "total_s") \
        + _span(server, "engine.rehearse", "total_s")
    interpreted = check_total + _spans(
        server, ("transactions.run", "transactions.query"), "total_s")
    planner = ("algebra.eval_set_former", "algebra.eval_quantifier",
               "algebra.eval_foreach_domain", "algebra.eval_aggregate")
    checkpoint_total = _span(server, "storage.checkpoint", "total_s")
    skipped = counters("repro_eval_constraints_skipped_total")
    checked = counters("repro_eval_constraints_checked_total")
    hits = counters("repro_eval_cache_hits_total")
    misses = counters("repro_eval_cache_misses_total")
    conflicts = counters("repro_conflicts_total")
    scheduled = counters("repro_commits_total")
    single = counters("repro_shard_commits_total", mode="single")
    cross = counters("repro_shard_decisions_total", decision="commit")
    stalled = [end - start for conn in traced.samples for (_c, start, end, *_r) in conn
               if any(start < hi and lo < end for lo, hi in traced.final.get("checkpoints", ()))]
    fifth = max(1, len(latencies) // 5)
    drift = _ratio(statistics.median(latencies[-fifth:]),
                   statistics.median(latencies[:fifth])) if latencies else 0.0
    written = traced.final.get("counters", {})
    reopen = traced.reopen or {}
    replica = traced.replica or {}
    traced_rate, plain_rate = throughput(traced), throughput(plain)

    out = {
        "client.write_p50_ms": _ms(percentile(_latencies(plain, "write"), 0.50)),
        "client.write_p90_ms": _ms(percentile(_latencies(plain, "write"), 0.90)),
        "client.read_p50_ms": _ms(percentile(_latencies(plain, "read"), 0.50)),
        "client.read_p95_ms": _ms(percentile(_latencies(plain, "read"), 0.95)),
        "client.batch_p50_ms": _ms(percentile(_latencies(plain, "batch"), 0.50)),
        "client.xwrite_p50_ms": _ms(percentile(_latencies(plain, "xwrite"), 0.50)),
        "client.ops_per_s": plain_rate,
        "server.codec_ms_per_op": _ms(codec / ops),
        "server.bytes_per_op": (counters("repro_server_bytes_in_total")
                                + counters("repro_server_bytes_out_total")) / ops,
        "server.dispatch_ms_per_op": _ms(_span(server, "server.request", "self_s") / ops),
        "server.transport_ms_per_op": _ms(
            (_span(client, "client.request", "self_s") - request_total) / ops),
        "server.cpu_ms_per_op": _ms(_ratio(plain.server_cpu_s, plain.ops)),
        "server.rtt_p99_ms": _ms(percentile(latencies, 0.99)),
        "server.latency_drift": drift,
        "concurrent.sched_ms_per_op": _ms(_spans(
            server, ("concurrent.submit", "concurrent.run_batch"), "self_s") / ops),
        "concurrent.admission_wait_ms_per_op": _ms(
            _span(server, "concurrent.admission", "total_s") / ops),
        "concurrent.attempts_per_commit": _ratio(
            scheduled + counters("repro_retries_total"), scheduled),
        "concurrent.conflict_ratio": _ratio(conflicts, conflicts + scheduled),
        "concurrent.refused_total": counters("repro_admission_rejected_total")
        + counters("repro_breaker_rejected_total"),
        "engine.commit_glue_ms_per_op": _ms(layers["engine"] / ops),
        "transactions.interpret_ms_per_op": _ms(layers["transactions"] / ops),
        "constraints.check_ms_per_commit": _ms(check_total / commits),
        "constraints.checks_per_commit": _span(
            server, "constraints.check_history", "count") / commits,
        "constraints.check_share": _ratio(check_total, apply_total),
        "algebra.exec_ms_per_op": _ms(layers["algebra"] / ops),
        "algebra.planned_share": _ratio(layers["algebra"], interpreted),
        "algebra.plans_per_op": _spans(server, planner, "count") / ops,
        "algebra.compiled_total": counters("repro_planner_compiled_total"),
        "eval.skip_ratio": _ratio(skipped, skipped + checked),
        "eval.delta_ms_per_commit": _ms(_span(server, "eval.state_delta", "total_s") / commits),
        "eval.cache_hit_ratio": _ratio(hits, hits + misses),
        "eval.cache_invalidations_per_commit":
            counters("repro_eval_cache_invalidations_total") / commits,
        "eval.cache_ms_per_query": _ms(_span(server, "eval.cache_evaluate", "self_s") / queries),
        "storage.append_ms_per_commit": _ms(
            (_span(server, "storage.log_commit", "total_s") - checkpoint_total) / commits),
        "storage.fsync_ms_per_commit": _ms(_span(server, "storage.fsync", "total_s") / commits),
        "storage.fsyncs_per_commit": _span(server, "storage.fsync", "count") / commits,
        "storage.bytes_per_commit": (written.get("storage.frame_bytes", 0.0)
                                     + written.get("storage.snapshot_bytes", 0.0)) / commits,
        "storage.disk_bytes_per_commit": reopen.get("disk_bytes", 0) / commits,
        "storage.checkpoint_ms_total": _ms(checkpoint_total),
        "storage.checkpoints_total": counters("repro_checkpoints_total"),
        "storage.checkpoint_stall_p99_ms": _ms(percentile(stalled, 0.99)),
        "storage.recover_ms": reopen.get("recover_ms", 0.0),
        "storage.recovery_s": reopen.get("recovery_s", 0.0),
        "storage.replayed_records": reopen.get("replayed_records", 0),
        "sharding.route_ms_per_op": _ms(_spans(
            server, ("sharding.execute_outcome", "sharding.query"), "self_s") / ops),
        "sharding.single_shard_ratio": _ratio(single, single + cross),
        "sharding.prepare_ms_per_xtxn": _ms(_span(server, "sharding.log_prepare", "total_s") / xtxns),
        "sharding.decide_ms_per_xtxn": _ms(_span(server, "sharding.decide", "total_s") / xtxns),
        "sharding.outcome_ms_per_xtxn": _ms(_span(server, "sharding.log_outcome", "total_s") / xtxns),
        "sharding.replica_poll_ms": replica.get("poll_ms", 0.0),
        "sharding.replica_lag_records": replica.get("lag_records", 0.0),
        "sharding.failover_window_ms": _ms(
            statistics.median(traced.failover_windows_s)) if traced.failover_windows_s else 0.0,
        "obs.trace_overhead_ratio": _ratio(plain_rate, traced_rate),
        "obs.unattributed_share": _ratio(mean_latency - attributed / ops, mean_latency),
    }
    for layer in TIMED_LAYERS:
        out[f"{layer}.time_share"] = _ratio(layers[layer], attributed)
    return out


def with_units(values: dict[str, float], specs) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly the metrics in ``specs``."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_rest in specs}
