"""Footprints + tabled queries: what a constraint reads, what a query reuses.

``constraint_footprint`` analyzes each installed constraint into a static
*relation footprint* — the relations its verdict can depend on, which is
what sharding co-locates.  ``db.enable_query_cache()`` memoizes query
evaluations, proven still-valid per lookup by a digest of the relations
the evaluation actually read.

Run:  PYTHONPATH=src python examples/query_cache.py [out-dir]

When an output directory is given, the metrics (JSON + Prometheus-style
exposition) are written there — this is what the CI artifact step collects.
"""

import os
import sys

from repro import Database, make_domain
from repro.eval.footprint import constraint_footprint
from repro.logic import builder as b
from repro.transactions.program import query


def main() -> None:
    domain = make_domain()
    domain.install_constraints(
        "every-employee-allocated",
        "alloc-references-project",
        "allocation-within-limit",
        "skill-retention",
    )
    db = Database(domain.schema, window=2, initial=domain.sample_state())
    cache = db.enable_query_cache()

    print("=== static footprints ===")
    for c in domain.schema.constraints:
        print(f"  {constraint_footprint(c, domain.schema)}")

    # Project bookkeeping writes PROJ only, which the headcount query never
    # reads: its cached answer survives those commits.  A salary change
    # writes EMP and invalidates it.
    headcount = query("headcount", (), b.size_of(b.rel("EMP", 5)))
    print("\n=== workload ===")
    print(f"  headcount = {db.query(headcount)}   (cache miss, tables)")
    for i in range(8):
        db.execute(domain.create_project, f"proj-{i}", 10 * (i + 1))
    print(f"  headcount = {db.query(headcount)}   (hit: commits missed EMP)")
    db.execute(domain.add_skill, "alice", 7)
    db.execute(domain.set_salary, "alice", 150)   # EMP write: no hit
    print(f"  headcount = {db.query(headcount)}   (miss: EMP was written)")

    print("\n=== query cache ===")
    print(f"  hits {cache.stats.hits}, misses {cache.stats.misses}, "
          f"invalidations {cache.stats.invalidations}, entries {len(cache)}")

    print("\n=== metrics exposition (excerpt) ===")
    for line in db.metrics.exposition().splitlines():
        if line.startswith("repro_eval"):
            print(f"  {line}")

    if len(sys.argv) > 1:
        out = sys.argv[1]
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "metrics.json"), "w") as fh:
            fh.write(db.metrics.to_json(indent=2))
        with open(os.path.join(out, "metrics.prom"), "w") as fh:
            fh.write(db.metrics.exposition())
        print(f"\nwrote metrics.json and metrics.prom to {out}/")


if __name__ == "__main__":
    main()
