"""Durability: journal a concurrent workload, kill it mid-write, recover.

A concurrent workload commits through the optimistic scheduler while every
commit is journaled inside the commit critical section.  We then simulate a
crash at a *torn-write* offset — the process died while a frame was being
appended — recover the store copy, and verify the recovered state is exactly
a prefix of the serial order the committed outcomes record.  The journal
is the run: its tail names the last commits, and nothing in memory keeps
more than the history window.

Run:  PYTHONPATH=src python examples/durable_recovery.py
"""

import tempfile

from repro import Database, Schema, Store, transaction
from repro.concurrent.log import replay_states, states_equivalent
from repro.logic import builder as b
from repro.storage import faults
from repro.storage.journal import read_journal


def main() -> None:
    schema = Schema()
    schema.add_relation("LEDGER", ("account", "amount"))
    schema.add_relation("AUDIT", ("account", "note"))

    x, y = b.atom_var("x"), b.atom_var("y")
    post = transaction("post", (x, y), b.insert(b.mktuple(x, y), "LEDGER"))
    note = transaction("note", (x, y), b.insert(b.mktuple(x, y), "AUDIT"))

    workdir = tempfile.mkdtemp(prefix="repro-durable-")
    store_path = f"{workdir}/store"

    # -- run a durable concurrent workload ---------------------------------
    db = Database(schema, window=2)
    db.durable(store_path, checkpoint_every=8)
    with db.concurrent(workers=4, seed=7) as mgr:
        calls = [(post, f"acc{i % 3}", 10 * i) for i in range(14)]
        calls += [(note, f"acc{i % 3}", i) for i in range(6)]
        outcomes = mgr.run_all(calls, think_time=0.001)
        assert all(o.ok for o in outcomes)
        records = [o.record for o in outcomes]
        replayed = replay_states(
            mgr.initial, records, interpreter=db.interpreter,
            encodings=db.encodings,
        )
    db.close()
    print(f"journaled {len(records)} commits to {store_path}")
    tail = read_journal(Store(store_path).journal_path).records[-3:]
    print("last 3 commits (journal tail):", ", ".join(
        f"{r.seq}:{r.label}" for r in tail
    ))

    # -- clean recovery reproduces the exact final state -------------------
    recovery = Store(store_path).recover()
    print("\nclean shutdown:", recovery.summary())
    assert recovery.state == db.current

    # -- now kill the process mid-append -----------------------------------
    torn = faults.torn_points(store_path, stride=11)
    offset = torn[len(torn) // 2]
    crashed = faults.crashed_copy(store_path, offset, workdir)
    print(f"\nsimulated kill at journal byte {offset} (inside a frame)")

    recovery = crashed.store().recover()
    print("after crash:   ", recovery.summary())

    # The recovered state is exactly the run after `seq` commits — a prefix
    # of the committed records' serial replay, never a torn or merged state.
    assert states_equivalent(
        mgr.initial, recovery.state, replayed[recovery.seq]
    )
    lost = len(records) - recovery.seq
    print(
        f"recovered a committed prefix: {recovery.seq} commits survive, "
        f"{lost} in-flight commit(s) after the tear were lost"
    )

    # -- and resume the run from disk --------------------------------------
    db2, recovery = Database.from_store(schema, store_path, window=2)
    db2.execute(post, "acc-resumed", 999)
    print(
        f"\nresumed from store at seq {recovery.seq}; "
        f"LEDGER now has {len(db2.current.relation('LEDGER'))} rows"
    )
    db2.close()


if __name__ == "__main__":
    main()
