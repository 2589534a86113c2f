"""Placement planning and footprint routing for the sharded database."""

from __future__ import annotations

import pytest

from repro.db.schema import Schema
from repro.domains import make_domain
from repro.errors import ShardError
from repro.eval.footprint import program_footprint
from repro.logic import builder as b
from repro.obs.metrics import MetricsRegistry
from repro.sharding import ShardedDatabase, plan_placement
from repro.transactions.program import query, transaction


def disjoint_schema(stripes: int = 4) -> Schema:
    schema = Schema()
    for i in range(stripes):
        schema.add_relation(f"R{i}", ("k", "v"))
    return schema


x, y = b.atom_var("x"), b.atom_var("y")


def put(i: int):
    return transaction(
        f"put-R{i}", (x, y), b.insert(b.mktuple(x, y), f"R{i}")
    )


def size(i: int):
    return query(f"size-R{i}", (), b.size_of(b.rel(f"R{i}", 2)))


class TestProgramFootprint:
    def test_insert_program_is_bounded_to_its_relation(self):
        fp = program_footprint(put(0), disjoint_schema())
        assert fp.bounded
        assert set(fp.relations) == {"R0"}

    def test_state_changing_symbols_do_not_blind_the_analysis(self):
        """Transaction bodies ARE state-changing applications; the program
        analysis must not inherit the constraint analysis's refusal."""
        d = make_domain()
        fp = program_footprint(d.hire, d.schema)
        assert fp.eligible
        assert "EMP" in fp.relations

    def test_quantified_tuple_variable_widens_to_its_arity(self):
        schema = disjoint_schema()
        t = b.ftup_var("t", 2)
        sweep = transaction(
            "sweep",
            (),
            b.foreach(t, b.member(t, b.rel("R0", 2)), b.insert(t, "R1")),
        )
        fp = program_footprint(sweep, schema)
        assert 2 in fp.arities
        # Arity closure pulls in every binary relation of the schema.
        assert set(fp.relations) == {"R0", "R1", "R2", "R3"}


class TestPlacement:
    def test_all_relations_placed_deterministically(self):
        schema = disjoint_schema(6)
        a = plan_placement(schema, 3)
        c = plan_placement(schema, 3)
        assert a.placement == c.placement
        assert set(a.placement) == set(schema.relations)
        assert set(a.placement.values()) <= set(range(3))

    def test_constraint_footprints_are_co_located(self):
        d = make_domain()
        d.install_constraints()
        plan = plan_placement(d.schema, 4)
        for c in d.schema.constraints:
            home = plan.constraint_home[c.name]
            assert 0 <= home < 4

    def test_override_pins_relation(self):
        schema = disjoint_schema(4)
        plan = plan_placement(schema, 2, overrides={"R2": 1})
        assert plan.placement["R2"] == 1

    def test_override_out_of_range_rejected(self):
        with pytest.raises(ShardError):
            plan_placement(disjoint_schema(), 2, overrides={"R0": 5})

    def test_override_splitting_a_cluster_rejected(self):
        """Two relations welded together by a constraint footprint cannot
        be pinned to different shards — that would split the constraint's
        evidence."""
        d = make_domain()
        d.install_constraints()
        plan = plan_placement(d.schema, 2)
        clustered = next(c for c in plan.clusters if len(c) >= 2)
        a, c = sorted(clustered)[:2]
        with pytest.raises(ShardError):
            plan_placement(d.schema, 2, overrides={a: 0, c: 1})

    def test_shard_of_hash_routes_unknown_names(self):
        plan = plan_placement(disjoint_schema(), 4)
        assert 0 <= plan.shard_of("NEVER_DECLARED") < 4
        # Stable across calls.
        assert plan.shard_of("NEVER_DECLARED") == plan.shard_of(
            "NEVER_DECLARED"
        )


class TestRouting:
    def test_single_shard_commit_touches_no_coordinator(self):
        metrics = MetricsRegistry()
        sdb = ShardedDatabase(disjoint_schema(), shards=4, metrics=metrics)
        for i in range(4):
            sdb.execute(put(i), i, i)
        fams = metrics.families()
        prepares = sum(
            int(inst.value)
            for _, inst in fams.get("repro_shard_prepares_total", ())
        )
        decisions = sum(
            int(inst.value)
            for _, inst in fams.get("repro_shard_decisions_total", ())
        )
        singles = sum(
            int(inst.value)
            for labels, inst in fams.get("repro_shard_commits_total", ())
            if dict(labels).get("mode") == "single"
        )
        assert prepares == 0
        assert decisions == 0
        assert singles == 4
        assert sdb.stats()["single_shard_commits"] == 4
        assert sdb.stats()["cross_shard_commits"] == 0
        sdb.close()

    def test_cross_shard_commit_prepares_every_writer(self):
        metrics = MetricsRegistry()
        schema = disjoint_schema()
        sdb = ShardedDatabase(schema, shards=4, metrics=metrics)
        pair = transaction(
            "pair",
            (x, y),
            b.seq(
                b.insert(b.mktuple(x, y), "R0"),
                b.insert(b.mktuple(x, y), "R1"),
            ),
        )
        fp = program_footprint(pair, schema)
        assert len(sdb._participants(fp)) == 2
        sdb.execute(pair, 1, 1)
        fams = metrics.families()
        prepares = sum(
            int(inst.value)
            for _, inst in fams.get("repro_shard_prepares_total", ())
        )
        assert prepares == 2
        assert sdb.stats()["cross_shard_commits"] == 1
        sdb.close()

    def test_results_identical_to_unsharded(self):
        schema = disjoint_schema()
        sdb = ShardedDatabase(schema, shards=3)
        from repro.engine import Database
        from repro.transactions.interpreter import Interpreter

        db = Database(disjoint_schema(), interpreter=Interpreter())  # the walk
        for i in range(12):
            stripe = i % 4
            sdb.execute(put(stripe), i, i * 10)
            db.execute(put(stripe), i, i * 10)
        for i in range(4):
            assert sdb.query(size(i)) == db.query(size(i))
        sdb.close()

    def test_tuple_ids_never_collide_across_shards(self):
        sdb = ShardedDatabase(disjoint_schema(), shards=4)
        for i in range(40):
            sdb.execute(put(i % 4), i, i)
        state = sdb.combined_state()
        tids = [
            tid
            for rel in state.relations.values()
            for tid in rel.tuples
        ]
        assert len(tids) == len(set(tids))
        sdb.close()

    def test_block_exhaustion_rolls_to_a_fresh_block(self):
        from repro.sharding.sharded import ALLOC_BLOCK

        sdb = ShardedDatabase(disjoint_schema(), shards=2)
        n = ALLOC_BLOCK + 8
        for i in range(n):
            sdb.execute(put(0), i, i)
        assert sdb.query(size(0)) == n
        state = sdb.combined_state()
        tids = [
            tid for rel in state.relations.values() for tid in rel.tuples
        ]
        assert len(tids) == len(set(tids))
        sdb.close()

    def test_run_batch_preserves_request_order(self):
        sdb = ShardedDatabase(disjoint_schema(), shards=4)
        requests = [
            (put(i % 4), (i, i), f"tx-{i}", None) for i in range(16)
        ]
        outcomes = sdb.run_batch(requests)
        assert [o.label for o in outcomes] == [f"tx-{i}" for i in range(16)]
        assert all(o.ok for o in outcomes)
        for i in range(4):
            assert sdb.query(size(i)) == 4
        sdb.close()

    def test_constraint_enforced_on_owning_shard(self):
        schema = disjoint_schema(2)
        from repro.constraints.model import Constraint

        s = b.state_var("s")
        cap = Constraint(
            "r0-capacity",
            b.forall(
                s,
                b.holds(
                    s, b.le(b.size_of(b.rel("R0", 2)), b.atom(2))
                ),
            ),
            description="R0 holds at most two rows",
            declared_window=1,
        )
        schema.add_constraint(cap)
        sdb = ShardedDatabase(schema, shards=2)
        sdb.execute(put(0), 1, 1)
        sdb.execute(put(0), 2, 2)
        from repro.errors import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            sdb.execute(put(0), 3, 3)
        # The violation rolled back: nothing half-applied anywhere.
        assert sdb.query(size(0)) == 2
        sdb.close()
