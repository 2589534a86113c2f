"""Concurrent execution: many workers, one serializable database.

Eight workers submit transactions against a shared database.  Each one
evaluates optimistically against an immutable snapshot (no locks held),
validates its read/write footprint at commit time, and retries under
exponential backoff when a conflicting commit beat it.  Each committed
outcome records its place in the serial order the winning schedule took —
replaying the outcomes in that order reproduces the final state exactly.

Run:  PYTHONPATH=src python examples/concurrent_workers.py
"""

from repro import Database, RetryPolicy, Schema, transaction
from repro.logic import builder as b


def main() -> None:
    schema = Schema()
    schema.add_relation("LEDGER", ("account", "amount"))
    schema.add_relation("AUDIT", ("account", "note"))

    x, y = b.atom_var("x"), b.atom_var("y")
    post = transaction("post", (x, y), b.insert(b.mktuple(x, y), "LEDGER"))
    note = transaction("note", (x, y), b.insert(b.mktuple(x, y), "AUDIT"))

    db = Database(schema, window=2)
    policy = RetryPolicy(max_attempts=50, base_delay=0.0005, jitter=0.5)

    with db.concurrent(workers=8, retry=policy, seed=7) as mgr:
        # think_time models per-transaction client latency; it widens the
        # snapshot window, so same-relation writers actually collide.
        futures = [
            mgr.submit(post, f"acc{i % 4}", 10 * i, think_time=0.002)
            for i in range(20)
        ]
        futures += [
            mgr.submit(note, f"acc{i % 4}", i, think_time=0.002)
            for i in range(10)
        ]
        outcomes = [f.result() for f in futures]

        committed = sum(o.ok for o in outcomes)
        retried = [o for o in outcomes if o.attempts > 1]
        print(f"committed {committed}/{len(outcomes)} transactions")
        print(f"{len(retried)} survived conflicts, e.g.:")
        for o in retried[:3]:
            clashes = ", ".join(sorted(set().union(*o.conflicts)))
            print(f"  {o.label}: {o.attempts} attempts, conflicted on {clashes}")

        print("\nscheduler metrics:", mgr.stats.summary())

        # The committed outcomes are the serializability witness: each
        # carries its serial position, and replaying them in that order
        # from the initial state reproduces the live state.
        serial = sorted((o.record for o in outcomes if o.ok), key=lambda r: r.seq)
        print("serial order (first 6):", ", ".join(r.label for r in serial[:6]), "...")
        print("serially replayable:", mgr.verify_serializable(outcomes))

    print("\nfinal LEDGER size:", len(db.current.relation("LEDGER")))
    print("final AUDIT size:", len(db.current.relation("AUDIT")))


if __name__ == "__main__":
    main()
