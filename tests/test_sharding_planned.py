"""Every shard engine plans its constraint checks — at construction, after
recovery and after promotion — while transaction bodies stay on the
router's own interpreter."""

from __future__ import annotations

from repro import Client, TransactionServer
from repro.logic import builder as b
from repro.sharding import ShardedDatabase
from repro.transactions.program import query, transaction

x, y = b.atom_var("x"), b.atom_var("y")


def put(rel):
    pad = (b.atom(0),) * (rel.arity - 2)
    return transaction(f"put-{rel.name}", (x, y), b.insert(b.mktuple(x, y, *pad), rel.name))


def evals(sdb: ShardedDatabase) -> dict[str, float]:
    return {
        dict(labels)["outcome"]: instrument.value
        for labels, instrument in sdb.metrics.families().get(
            "repro_planner_evals_total", ()
        )
    }


def write_every_stripe(sdb: ShardedDatabase, key: int) -> None:
    for rel in sdb.schema.relations.values():
        sdb.execute(put(rel), key, key)


class TestShardsPlan:
    def test_stripe_constraints_are_planned_on_every_shard(self, stripe_schema):
        sdb = ShardedDatabase(stripe_schema, shards=4)
        write_every_stripe(sdb, 1)
        assert evals(sdb).get("planned", 0) > 0
        assert evals(sdb).get("fallback", 0) == 0
        for shard in sdb.shards:
            planner = shard.db.interpreter.planner
            assert planner.exec_count > 0 and planner.fallback_count == 0
        # Transaction bodies run on the router's plain interpreter.
        assert sdb.interpreter.planner is None
        sdb.close()

    def test_cross_shard_rehearse_and_apply_are_planned(self, stripe_schema):
        sdb = ShardedDatabase(stripe_schema, shards=4)
        src, dst = (
            stripe_schema.relation(n)
            for n in ("R0", next(n for n in sorted(stripe_schema.relations)
                                 if sdb.plan.shard_of(n) != sdb.plan.shard_of("R0")))
        )
        both = transaction("both", (x, y), b.seq(put(src).body, put(dst).body))
        before = evals(sdb).get("planned", 0)
        sdb.execute(both, 1, 2)
        assert sdb.stats()["cross_shard_commits"] == 1
        # Two participants, each rehearsed and then applied.
        assert evals(sdb)["planned"] - before >= 4
        assert evals(sdb).get("fallback", 0) == 0
        sdb.close()

    def test_recovered_and_promoted_primaries_plan_too(self, stripe_schema, tmp_path):
        sdb = ShardedDatabase(stripe_schema, shards=4, path=str(tmp_path))
        write_every_stripe(sdb, 1)
        sdb.close()
        sdb, _ = ShardedDatabase.recover(stripe_schema, str(tmp_path))
        index = sdb.plan.shard_of("R0")
        sdb.kill_shard(index)
        assert sdb.promote_shard(index) is not None
        planner = sdb.shards[index].db.interpreter.planner
        assert planner is not None and planner.exec_count == 0
        write_every_stripe(sdb, 2)
        assert planner.exec_count > 0 and planner.fallback_count == 0
        assert all(s.db.interpreter.planner.exec_count > 0 for s in sdb.shards)
        assert evals(sdb).get("fallback", 0) == 0
        sdb.close()


class TestServedShards:
    def test_a_served_sharded_database_plans(self, stripe_schema):
        """A server over a ``ShardedDatabase`` needs no configuration:
        every shard engine plans the checks of the writes it serves."""
        sdb = ShardedDatabase(stripe_schema, shards=4)
        rel = stripe_schema.relation("R0")
        size = query("size-R0", (), b.size_of(rel.rel()))
        server = TransactionServer(sdb, [put(rel), size])
        server.start()
        try:
            with Client(*server.address) as client:
                client.execute("put-R0", 1, 1)
                assert client.query("size-R0") == 1
        finally:
            server.close()
        assert evals(sdb).get("planned", 0) > 0
        assert evals(sdb).get("fallback", 0) == 0
        sdb.close()
