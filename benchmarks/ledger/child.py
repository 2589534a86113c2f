"""The serving child process.

``python -m benchmarks.ledger.child --workload W --seed N [--path DIR]
[--trace] [--spans FILE]`` builds the workload's database, optionally
installs the tracing wrappers, starts a ``TransactionServer`` on an
ephemeral loopback port and prints ``{"port": …}``.  It then answers one
JSON command per stdin line with one JSON line on stdout:

* ``mark`` — forget the warm-up: drop recorded spans, return the metrics
  registry as the baseline to diff against;
* ``failover`` / ``kill <i>`` — ``enable_failover()`` and
  ``kill_shard(i)`` on the ``ShardedDatabase`` (the failover cycles, which
  run after the window: ``failover`` freezes what ``finish`` reports);
* ``finish`` — stop serving and return the final metrics, state digest,
  per-relation cardinalities, peak RSS and (traced) span aggregates.

The server runs here, not in the driver, because in-process client threads
would share the GIL with it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from . import ensure_repro_importable, tracing

#: Two writers contending on one relation must never run out of optimistic
#: attempts: an aborted op would be a failed op, not a slow one.
RETRY_ATTEMPTS = 64
SERVER_WORKERS = 2


def _live_state(database):
    if getattr(database, "is_sharded", False):
        return database.combined_state()
    return database.current


def _measured(database, recorder) -> dict:
    """The metrics registry and (traced) the span aggregates as of now."""
    report = {"metrics": database.metrics.to_doc()}
    if recorder is not None:
        report["spans"] = tracing.aggregate(recorder.spans)
        report["counters"] = dict(recorder.counters)
        report["checkpoints"] = tracing.intervals(recorder.spans, "storage.checkpoint")
    return report


def _reply(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--path")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    ensure_repro_importable()
    from repro.concurrent.retry import RetryPolicy
    from repro.server import TransactionServer

    from .workloads import WORKLOADS, content_digest

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install_server_side(recorder)

    built = WORKLOADS[args.workload].build(args.seed, args.path)
    database = built.database
    server = TransactionServer(
        database, built.programs, workers=SERVER_WORKERS,
        retry=RetryPolicy(max_attempts=RETRY_ATTEMPTS),
    )
    host, port = server.start()
    _reply({"host": host, "port": port})
    measured = None  # frozen when the failover cycles begin

    try:
        for line in sys.stdin:
            command, *rest = line.split()
            if command == "mark":
                if recorder is not None:
                    recorder.reset()
                _reply({"metrics": database.metrics.to_doc()})
            elif command == "failover":
                # The window is over: what follows must not count towards it.
                measured = _measured(database, recorder)
                database.enable_failover()
                _reply({"failover": True})
            elif command == "kill":
                database.kill_shard(int(rest[0]))
                _reply({"killed": int(rest[0])})
            elif command == "finish":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        server.close()

    state = _live_state(database)
    final = {
        **(measured or _measured(database, recorder)),
        "digest": content_digest(state),
        "counts": {name: len(rel.tuples) for name, rel in state.relations.items()},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    database.close()
    if recorder is not None and args.spans:
        recorder.dump(args.spans, workload=args.workload, seed=args.seed,
                      process="server")
    _reply(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
