"""A sharded database evaluates through one interpreter, as a ``Database``
does: by default it plans, and every shard engine — at construction, after
recovery and after promotion — shares it.  Shard constraint checks,
single-shard bodies, the 2PC merged body, merged-cut queries and replica
queries all answer from its one planner; an explicit ``Interpreter()``
walks all of them, and is the oracle the planned runs must agree with."""

from __future__ import annotations

import random
import sys

from repro import Client, TransactionServer
from repro.algebra.planner import QueryPlanner
from repro.db.generators import employee_state
from repro.db.schema import Schema
from repro.db.state import state_from_rows
from repro.domains import make_domain
from repro.engine import Database
from repro.logic import builder as b
from repro.sharding import Replica, ShardedDatabase
from repro.sharding.sharded import ALLOC_BLOCK
from repro.transactions.interpreter import Interpreter
from repro.transactions.program import query, transaction

x, y = b.atom_var("x"), b.atom_var("y")


def put(rel):
    pad = (b.atom(0),) * (rel.arity - 2)
    return transaction(f"put-{rel.name}", (x, y), b.insert(b.mktuple(x, y, *pad), rel.name))


def evals(sdb) -> dict[str, float]:
    return {
        dict(labels)["outcome"]: instrument.value
        for labels, instrument in sdb.metrics.families().get(
            "repro_planner_evals_total", ()
        )
    }


def planned(sdb) -> float:
    return evals(sdb).get("planned", 0)


def write_every_stripe(sdb: ShardedDatabase, key: int) -> None:
    for rel in sdb.schema.relations.values():
        sdb.execute(put(rel), key, key)


def other_stripe(sdb: ShardedDatabase, name: str) -> str:
    """A stripe placed on another shard than ``name``."""
    home = sdb.plan.shard_of(name)
    return next(n for n in sorted(sdb.schema.relations) if sdb.plan.shard_of(n) != home)


def both(sdb: ShardedDatabase):
    """A cross-shard write: one row into ``R0`` and one into a stripe of
    another shard."""
    src = sdb.schema.relation("R0")
    dst = sdb.schema.relation(other_stripe(sdb, "R0"))
    return transaction("both", (x, y), b.seq(put(src).body, put(dst).body))


def joined(sdb: ShardedDatabase):
    """A merged-cut query: ``R0`` rows whose key some row of a stripe on
    another shard carries."""
    r0 = sdb.schema.relation("R0")
    other = sdb.schema.relation(other_stripe(sdb, "R0"))
    t, u = r0.var("t"), other.var("u")
    return query("joined", (), b.size_of(b.setformer(
        r0.attr("k", t), t,
        b.land(b.member(t, r0.rel()), b.exists(u, b.land(
            b.member(u, other.rel()), b.eq(other.attr("k", u), r0.attr("k", t))
        ))),
    )))


def values(state) -> dict[str, list]:
    """Each relation's rows by value (identifiers differ between a sharded
    and an unsharded run: shards allocate from blocks)."""
    return {
        name: sorted(t.values for t in rel.tuples.values())
        for name, rel in state.relations.items()
    }


class TestShardsPlan:
    def test_stripe_constraints_are_planned_on_every_shard(self, stripe_schema):
        sdb = ShardedDatabase(stripe_schema, shards=4)
        write_every_stripe(sdb, 1)
        assert evals(sdb).get("planned", 0) > 0
        assert evals(sdb).get("fallback", 0) == 0
        for shard in sdb.shards:
            planner = shard.db.interpreter.planner
            assert planner.exec_count > 0 and planner.fallback_count == 0
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
        assert planned(sdb) == 0
        write_every_stripe(sdb, 2)
        recovered = planned(sdb)
        # One planned check per write at least: every shard planned.
        assert recovered >= len(stripe_schema.relations)
        index = sdb.plan.shard_of("R0")
        sdb.kill_shard(index)
        assert sdb.promote_shard(index) is not None
        sdb.execute(put(stripe_schema.relation("R0")), 3, 3)
        assert planned(sdb) > recovered
        assert evals(sdb).get("fallback", 0) == 0
        sdb.close()

    def test_every_shard_shares_the_routers_interpreter(self, stripe_schema, tmp_path):
        sdb = ShardedDatabase(stripe_schema, shards=4, path=str(tmp_path))
        assert sdb.interpreter.planner is not None
        assert all(s.db.interpreter is sdb.interpreter for s in sdb.shards)
        write_every_stripe(sdb, 1)
        sdb.close()
        sdb, _ = ShardedDatabase.recover(stripe_schema, str(tmp_path))
        assert all(s.db.interpreter is sdb.interpreter for s in sdb.shards)
        index = sdb.plan.shard_of("R0")
        sdb.kill_shard(index)
        assert sdb.promote_shard(index) is not None
        assert all(s.db.interpreter is sdb.interpreter for s in sdb.shards)
        sdb.close()

    def test_an_explicit_interpreter_walks_everything(self, stripe_schema):
        sdb = ShardedDatabase(stripe_schema, shards=4, interpreter=Interpreter())
        assert all(s.db.interpreter is sdb.interpreter for s in sdb.shards)
        write_every_stripe(sdb, 1)
        sdb.execute(both(sdb), 2, 2)
        assert sdb.stats()["cross_shard_commits"] == 1
        assert sdb.query(joined(sdb)) == 2
        assert evals(sdb) == {}
        sdb.close()


class TestBodiesAndQueriesPlan:
    def test_a_single_shard_body_is_planned(self):
        """``transfer``'s ``foreach`` domain — the employee named ``x`` —
        is a set former the planner answers.  The static constraints weld
        the schema onto one shard; trusting them for ``transfer`` leaves
        the body as the only evaluation of its commit."""
        domain = make_domain()
        domain.install_constraints(*(c.name for c in domain.static_constraints))
        sdb = ShardedDatabase(
            domain.schema, shards=2, initial=employee_state(domain, 16)
        )
        for shard in sdb.shards:
            for constraint in shard.db.schema.constraints:
                shard.db.trust(constraint.name, "transfer")
        sdb.execute(domain.transfer, "emp3", "ops", 70)
        assert sdb.stats()["single_shard_commits"] == 1
        assert planned(sdb) > 0
        emp = sdb.combined_state().relation("EMP")
        assert ("emp3", "ops", 70) in {t.values[:3] for t in emp.tuples.values()}
        sdb.close()

    def test_a_cross_shard_body_is_planned(self):
        """A 2PC body copying ``A`` into ``B`` on another shard plans its
        ``foreach`` domain.  It mints more ids than a block holds, so it
        re-runs once on a block sized to fit; identifiers stay unique."""
        schema = Schema()
        a = schema.add_relation("A", ("k", "v"))
        schema.add_relation("B", ("k", "v"))
        rows = [(i, i) for i in range(ALLOC_BLOCK + 8)]
        sdb = ShardedDatabase(
            schema, shards=2, placement={"A": 0, "B": 1},
            initial=state_from_rows(schema, {"A": rows}),
        )
        t = a.var("t")
        copy_all = transaction("copy-all", (), b.foreach(
            t, b.member(t, a.rel()),
            b.insert(b.mktuple(a.attr("k", t), a.attr("v", t)), "B"),
        ))
        sdb.execute(copy_all)
        assert sdb.stats()["cross_shard_commits"] == 1
        assert planned(sdb) > 0
        state = sdb.combined_state()
        assert values(state)["B"] == rows
        tids = [tid for rel in state.relations.values() for tid in rel.tuples]
        assert len(tids) == len(set(tids))
        sdb.close()

    def test_a_merged_cut_query_is_planned(self, stripe_schema):
        sdb = ShardedDatabase(stripe_schema, shards=4)
        sdb.execute(both(sdb), 1, 1)
        before = planned(sdb)
        assert sdb.query(joined(sdb)) == 1
        assert planned(sdb) > before
        sdb.close()

    def test_a_default_replica_plans_its_queries(self, tmp_path):
        schema = Schema()
        kv = schema.add_relation("KV", ("k", "v"))
        db = Database(schema)
        db.durable(str(tmp_path))
        for i in range(3):
            db.execute(put(kv), i, i)
        replica = Replica(str(tmp_path))
        assert replica.interpreter.planner is not None
        t = kv.var("t")
        big = query("big", (), b.size_of(b.setformer(
            kv.attr("k", t), t, b.land(b.member(t, kv.rel()), b.le(b.atom(1), kv.attr("v", t)))
        )))
        assert replica.query(big) == 2
        assert planned(replica) > 0
        db.close()


class TestAgreement:
    def test_a_verified_employee_stream_agrees_with_the_unsharded_walk(self):
        """``transfer`` / ``cancel-project`` / ``set-salary`` over 160
        employees: two shards whose one planner cross-checks every planned
        answer against the walk reach the error classes and relations of
        an unsharded, walked ``Database``.  No constraint is installed:
        these three cannot break the static ones, whose walked check costs
        seconds a commit at this size.  Nothing then welds the schema onto
        one shard, so every write runs the 2PC merged body."""
        domain = make_domain()
        initial = employee_state(domain, 160, seed=3)
        planner = QueryPlanner(verify=True)
        sdb = ShardedDatabase(
            domain.schema, shards=2, initial=initial,
            interpreter=Interpreter(planner=planner),
        )
        db = Database(domain.schema, initial=initial, interpreter=Interpreter())
        rng = random.Random(37)
        ops = []
        for _ in range(40):
            kind = rng.randrange(3)
            if kind == 0:
                ops.append((domain.transfer, (
                    f"emp{rng.randrange(160)}", rng.choice(["cs", "ee", "ops"]),
                    rng.randint(60, 140),
                )))
            elif kind == 1:
                ops.append((domain.cancel_project, (f"p{rng.randrange(40)}", 5)))
            else:
                ops.append((domain.set_salary, (f"emp{rng.randrange(160)}", rng.randint(60, 140))))

        def outcome(target, program, args):
            try:
                target.execute(program, *args)
            except Exception as err:  # the class is what must agree
                return type(err).__name__
            return None

        for program, args in ops:
            assert outcome(sdb, program, args) == outcome(db, program, args)
        assert planner.mismatch_count == 0
        assert planner.exec_count > 0
        assert sdb.stats()["cross_shard_commits"] > 0
        assert values(sdb.combined_state()) == values(db.current)
        sdb.close()

    def test_run_batch_on_the_shared_planner_matches_the_walk(self, stripe_schema):
        """Requests across the four shards run on four pool threads (more
        than the cores CI has), switching every microsecond, all on the one
        shared planner: outcomes and rows equal the walked run's, and the
        planner's own count of planned evaluations loses no increment."""
        rng = random.Random(11)
        planned_db = ShardedDatabase(stripe_schema, shards=4)
        walked_db = ShardedDatabase(stripe_schema, shards=4, interpreter=Interpreter())
        rels = list(stripe_schema.relations.values())
        cross = both(planned_db)
        requests = []
        for key in range(160):
            rel = rng.choice(rels)
            value = rng.choice([-1, 1, 2, 3])
            requests.append((put(rel), (key, value), None, None))
            if key % 8 == 0:
                requests.append((cross, (key, value), None, None))

        def summary(sdb):
            outcomes = []
            for start in range(0, len(requests), 32):
                outcomes += sdb.run_batch(requests[start:start + 32])
            return [
                (o.status, type(o.error).__name__ if o.error else None)
                for o in outcomes
            ], values(sdb.combined_state())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, want = summary(planned_db), summary(walked_db)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert any(error for _, error in got[0])  # some v < 0 was refused
        assert planned(planned_db) > 0 and evals(walked_db) == {}
        assert planned_db.interpreter.planner.exec_count == planned(planned_db)
        planned_db.close()
        walked_db.close()


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
