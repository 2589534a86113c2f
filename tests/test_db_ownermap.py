"""The sparse owner index: model agreement, the chunk bound, and the
sharded and durable paths that must keep it sparse."""

from __future__ import annotations

import random

import pytest

from repro.db.ownermap import CHUNK, OwnerMap
from repro.db.schema import Schema
from repro.db.state import state_from_rows
from repro.db.values import make_tuple
from repro.engine import Database
from repro.logic import builder as b
from repro.sharding import Replica, ShardedDatabase
from repro.sharding.sharded import ALLOC_BLOCK
from repro.storage.serialize import apply_delta, state_delta
from repro.transactions.program import query, transaction

NAMES = ("A", "B", "C")


def _pool(rng: random.Random) -> list[int]:
    """Ids both scattered over [0, 2**40) and clustered inside a few
    chunks, so updates land in shared, fresh and emptied chunks alike."""
    scattered = [rng.randrange(2**40) for _ in range(24)]
    clustered = [base + rng.randrange(2 * CHUNK) for base in (0, 2**40 - 2 * CHUNK)
                 for _ in range(12)]
    return scattered + clustered


def _agrees(owner: OwnerMap, model: dict, probes) -> None:
    assert len(owner) == len(model)
    assert list(owner) == sorted(model)
    for tid in probes:
        assert owner.get(tid) == model.get(tid)
        assert (tid in owner) == (tid in model)
    assert len(owner._chunks) <= len(owner)


class TestModel:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_a_dict(self, seed):
        rng = random.Random(seed)
        pool = _pool(rng)
        probes = pool + [-1, 2**41, "x", True, None]
        owner, model = OwnerMap(), {}
        for _ in range(400):
            before, before_model = owner, dict(model)
            tid = rng.choice(pool)
            if rng.random() < 0.6:
                name = rng.choice(NAMES)
                owner = owner.set(tid, name)
                model[tid] = name
            else:
                owner = owner.discard(tid)
                model.pop(tid, None)
            _agrees(owner, model, probes)
            # Persistent: the previous version is untouched.
            _agrees(before, before_model, probes)
        assert OwnerMap.wrap(model) == owner
        assert list(OwnerMap.wrap(model)) == list(owner)
        assert dict(OwnerMap.wrap(dict(owner))) == model

    def test_wrap_is_the_identity_on_an_owner_map(self):
        owner = OwnerMap().set(3, "A")
        assert OwnerMap.wrap(owner) is owner

    def test_unchanged_updates_return_the_same_map(self):
        owner = OwnerMap().set(5, "A")
        assert owner.set(5, "A") is owner
        assert owner.discard(6) is owner
        assert owner.discard(2**40) is owner

    @pytest.mark.parametrize("tid", [-1, True, "7", 1.0])
    def test_bad_identifiers_are_refused(self, tid):
        with pytest.raises(ValueError):
            OwnerMap().set(tid, "A")
        with pytest.raises(ValueError):
            OwnerMap.wrap({tid: "A"})

    def test_none_is_not_a_relation_name(self):
        with pytest.raises(ValueError):
            OwnerMap().set(1, None)


class TestChunkBound:
    def test_chunks_never_exceed_live_entries(self):
        owner = OwnerMap()
        for k in range(10):
            owner = owner.set(k * 2**36, "A")  # one id per chunk, far apart
        assert (len(owner), len(owner._chunks)) == (10, 10)
        owner = owner.set(2**40 - 1, "B").set(2**40 - 2, "B")  # share a chunk
        assert (len(owner), len(owner._chunks)) == (12, 11)

    def test_an_emptied_chunk_is_dropped(self):
        owner = OwnerMap().set(2**40, "A").set(2**40 + 1, "A")
        assert len(owner._chunks) == 1
        owner = owner.discard(2**40).discard(2**40 + 1)
        assert (len(owner), len(owner._chunks)) == (0, 0)


x, v, w = b.atom_var("x"), b.atom_var("v"), b.atom_var("w")


def _row(arity: int, key, value):
    return b.mktuple(key, value, *(b.atom(0) for _ in range(arity - 2)))


class TestShardedOwners:
    def test_cross_shard_traffic_keeps_every_shard_owner_sparse(
        self, stripe_schema
    ):
        """200 cross-shard moves and queries each grant a fresh id block, so
        the id space grows by ~200 blocks; no shard's owner index may grow
        with it.  (A count, not a timing.)"""
        sdb = ShardedDatabase(stripe_schema, shards=4)
        rels = stripe_schema.relations
        src = "R0"
        dst = next(n for n in sorted(rels) if sdb.plan.shard_of(n) != sdb.plan.shard_of(src))
        a, c = rels[src].arity, rels[dst].arity
        put = transaction("put", (x, v), b.insert(_row(a, x, v), src))
        there = transaction("there", (x, v), b.seq(
            b.delete(_row(a, x, v), src), b.insert(_row(c, x, v), dst)))
        back = transaction("back", (x, v), b.seq(
            b.delete(_row(c, x, v), dst), b.insert(_row(a, x, v), src)))
        both = query("both", (), b.plus(b.size_of(rels[src].rel()),
                                        b.size_of(rels[dst].rel())))
        for k in range(10):
            sdb.execute(put, k, k)
        for n in range(100):
            sdb.execute(there if n % 20 < 10 else back, n % 10, n % 10)
            assert sdb.query(both) == 10
        high = sdb.combined_state().next_tid
        assert high > 150 * ALLOC_BLOCK
        for shard in sdb.shards:
            state = shard.db.current
            live = {tid: name for name, rel in state.relations.items() for tid in rel.tuples}
            assert isinstance(state.owner, OwnerMap)
            assert state.owner == live
            assert len(state.owner._chunks) <= max(len(live), 1)
        sdb.close()


class TestDurableOwners:
    """``apply_delta`` keeps the owner an :class:`OwnerMap`, so recovery
    and replica replay pay per record, not per live tuple."""

    def _primary(self, path) -> Database:
        schema = Schema()
        schema.add_relation("KV", ("k", "v"))
        db = Database(schema)
        db.durable(str(path), checkpoint_every=1000)
        put = transaction("put", (x, v), b.insert(b.mktuple(x, v), "KV"))
        drop = transaction("drop", (x, v), b.delete(b.mktuple(x, v), "KV"))
        bump = transaction("bump", (x, v, w), b.seq(
            b.delete(b.mktuple(x, v), "KV"), b.insert(b.mktuple(x, w), "KV")))
        for k in range(12):
            db.execute(put, k, k)
        for k in range(0, 12, 3):
            db.execute(drop, k, k)
        db.execute(bump, 1, 1, 100)
        return db

    def test_replay_shares_the_chunks_a_delta_does_not_touch(self):
        schema = Schema()
        schema.add_relation("KV", ("k", "v"))
        before = state_from_rows(schema, {"KV": [(k, k) for k in range(4 * CHUNK)]})
        after = before.delete_tuple("KV", make_tuple(0, 0))  # tid 1: chunk 0
        replayed = apply_delta(before, state_delta(before, after))
        assert replayed.owner == after.owner
        shared = [i for i, chunk in replayed.owner._chunks.items()
                  if chunk is before.owner._chunks[i]]
        assert shared == [1, 2, 3, 4]

    def test_recovered_owner_equals_the_live_primary(self, tmp_path):
        db = self._primary(tmp_path)
        live = db.current.owner
        db.close()
        recovered, recovery = Database.from_store(db.schema, str(tmp_path))
        assert recovery.replayed
        assert isinstance(recovery.state.owner, OwnerMap)
        assert recovery.state.owner == live
        recovered.close()

    def test_replica_owner_equals_the_live_primary(self, tmp_path):
        db = self._primary(tmp_path)
        replica = Replica(str(tmp_path))
        assert isinstance(replica.state.owner, OwnerMap)
        assert replica.state.owner == db.current.owner
        db.close()
