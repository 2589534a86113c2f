"""Graceful degradation of the evaluation accelerators (quarantine mode).

A corrupted cache entry must not fail the user's query when
``quarantine=True``: the cache disables itself (warning + metric) and the
engine falls back to full evaluation.  Without quarantine, verify mode
must keep raising — the correctness harness stays strict.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro import Database, Schema, transaction
from repro.eval.cache import CacheMismatch, QueryCache
from repro.eval.quarantine import QuarantineWarning
from repro.logic import builder as b
from repro.transactions.program import query


@pytest.fixture()
def schema():
    s = Schema()
    s.add_relation("A", ("k", "v"))
    s.add_relation("B", ("k", "v"))
    return s


@pytest.fixture()
def db(schema):
    return Database(schema, window=2)


def put(rel: str):
    x, y = b.atom_var("x"), b.atom_var("y")
    return transaction(f"put-{rel}", (x, y), b.insert(b.mktuple(x, y), rel))


def poison_entry(cache: QueryCache) -> int:
    """White-box: flip every cached value; returns how many lied."""
    flipped = 0
    for key, entry in list(cache._entries.items()):
        wrong = entry.value + 1 if isinstance(entry.value, int) else None
        cache._entries[key] = dataclasses.replace(entry, value=wrong)
        flipped += 1
    return flipped


class TestCacheQuarantine:
    def test_poisoned_hit_quarantines_and_returns_fresh_value(self, db):
        cache = db.enable_query_cache(quarantine=True)
        size_a = query("size-a", (), b.size_of(b.rel("A", 2)))
        assert db.query(size_a) == 0  # miss fills the entry
        assert poison_entry(cache) == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert db.query(size_a) == 0  # the truth, not the poison
        quarantines = [
            w for w in caught if issubclass(w.category, QuarantineWarning)
        ]
        assert len(quarantines) == 1
        assert "query-cache" in str(quarantines[0].message)
        assert not cache.enabled
        assert len(cache) == 0  # table flushed on quarantine
        metric = db.metrics.get(
            "repro_quarantined_total", component="query-cache"
        )
        assert metric is not None and metric.value == 1

    def test_quarantined_cache_keeps_answering_without_caching(self, db):
        cache = db.enable_query_cache(quarantine=True)
        size_a = query("size-a", (), b.size_of(b.rel("A", 2)))
        db.query(size_a)
        poison_entry(cache)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            db.query(size_a)  # trips quarantine
        hits_before = cache.stats.hits
        db.execute(put("A"), 1, 1)
        assert db.query(size_a) == 1
        assert db.query(size_a) == 1
        assert cache.stats.hits == hits_before  # bypassed, not consulted
        assert len(cache) == 0

    def test_quarantine_implies_verify(self):
        cache = QueryCache(quarantine=True)
        assert cache.verify

    def test_without_quarantine_verify_still_raises(self, db):
        cache = db.enable_query_cache(verify=True)
        size_a = query("size-a", (), b.size_of(b.rel("A", 2)))
        db.query(size_a)
        poison_entry(cache)
        with pytest.raises(CacheMismatch):
            db.query(size_a)
