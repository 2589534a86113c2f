"""The tabled query cache: hits, invalidation, eviction, tracer neutrality."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.engine import Database
from repro.eval.cache import CacheMismatch, QueryCache, _Entry
from repro.logic import builder as b
from repro.transactions.program import query, transaction


def headcount_query():
    return query("headcount", (), b.size_of(b.rel("EMP", 5)))


class TestTabling:
    def test_hit_after_identical_call(self, domain):
        cache = QueryCache()
        state = domain.sample_state()
        q = headcount_query()
        assert cache.evaluate(q, (), state) == 4
        assert cache.evaluate(q, (), state) == 4
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert len(cache) == 1

    def test_different_args_are_different_entries(self, domain):
        cache = QueryCache()
        state = domain.sample_state()
        x = b.atom_var("x")
        q = query("echo-size", (x,), b.size_of(b.rel("EMP", 5)))
        cache.evaluate(q, ("a",), state)
        cache.evaluate(q, ("b",), state)
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_value_correct_across_states_via_digest(self, domain):
        cache = QueryCache()
        s1 = domain.sample_state()
        s2 = domain.hire.run(s1, "erin", "cs", 90, 25, "S")
        q = headcount_query()
        assert cache.evaluate(q, (), s1) == 4
        # Same key, different EMP content: the digest check must miss.
        assert cache.evaluate(q, (), s2) == 5
        assert cache.evaluate(q, (), s2) == 5
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)

    def test_unrelated_state_change_still_hits(self, domain):
        cache = QueryCache()
        s1 = domain.sample_state()
        s2 = domain.create_project.run(s1, "web", 50)  # touches PROJ only
        q = headcount_query()
        assert cache.evaluate(q, (), s1) == 4
        assert cache.evaluate(q, (), s2) == 4
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_program_identity_checked_not_just_name(self, domain):
        cache = QueryCache()
        state = domain.sample_state()
        q1 = query("q", (), b.size_of(b.rel("EMP", 5)))
        q2 = query("q", (), b.size_of(b.rel("PROJ", 2)))
        assert cache.evaluate(q1, (), state) == 4
        assert cache.evaluate(q2, (), state) == 3
        assert cache.stats.misses == 2


class TestInvalidation:
    def test_touching_commit_invalidates(self, domain):
        cache = QueryCache()
        state = domain.sample_state()
        cache.evaluate(headcount_query(), (), state)
        assert cache.invalidate({"EMP"}) == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_unrelated_commit_does_not_invalidate(self, domain):
        cache = QueryCache()
        state = domain.sample_state()
        cache.evaluate(headcount_query(), (), state)
        assert cache.invalidate({"PROJ", "ALLOC"}) == 0
        assert len(cache) == 1

    def test_structural_commit_clears_everything(self, domain):
        cache = QueryCache()
        state = domain.sample_state()
        cache.evaluate(headcount_query(), (), state)
        assert cache.invalidate({"NEW"}, structural=True) == 1
        assert len(cache) == 0

    def test_eviction_respects_max_entries(self, domain):
        cache = QueryCache(max_entries=2)
        state = domain.sample_state()
        x = b.atom_var("x")
        q = query("echo-size", (x,), b.size_of(b.rel("EMP", 5)))
        for arg in ("a", "b", "c"):
            cache.evaluate(q, (arg,), state)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry ("a") went; "b" and "c" still hit.
        cache.evaluate(q, ("c",), state)
        assert cache.stats.hits == 1

    def test_verify_mode_catches_poisoned_entry(self, domain):
        cache = QueryCache(verify=True)
        state = domain.sample_state()
        q = headcount_query()
        cache.evaluate(q, (), state)
        (key, entry), = cache._entries.items()
        cache._entries[key] = _Entry(
            program=entry.program,
            reads=entry.reads,
            schema_sig=entry.schema_sig,
            digest=entry.digest,
            value=99,
        )
        with pytest.raises(CacheMismatch):
            cache.evaluate(q, (), state)


class TestEngineWiring:
    def test_commit_invalidates_only_touched_reads(self, domain):
        db = Database(domain.schema, initial=domain.sample_state())
        cache = db.enable_query_cache()
        q = headcount_query()
        assert db.query(q) == 4
        db.execute(domain.create_project, "web", 50)  # PROJ only
        assert db.query(q) == 4  # still a hit
        db.execute(domain.hire, "erin", "cs", 90, 25, "S")
        assert db.query(q) == 5  # invalidated, fresh value
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)

    def test_metrics_mirrored(self, domain):
        db = Database(domain.schema, initial=domain.sample_state())
        db.enable_query_cache()
        q = headcount_query()
        db.query(q)
        db.query(q)
        assert db.metrics.counter("repro_eval_cache_hits_total").value == 1
        assert db.metrics.counter("repro_eval_cache_misses_total").value == 1
        assert db.metrics.gauge("repro_eval_cache_entries").value == 1

    def test_register_encoding_clears_cache(self, domain):
        from repro.constraints.history import HistoryEncoding

        db = Database(domain.schema, initial=domain.sample_state())
        cache = db.enable_query_cache()
        q = headcount_query()
        db.query(q)
        db.register_encoding(
            HistoryEncoding(domain.schema.relation("EMP"), "FIRE", "e-name")
        )
        assert len(cache) == 0


class TestTracerNeutrality:
    """Enabling Database.profile() must not change cache keys or results."""

    def workload(self, domain, db):
        q = headcount_query()
        results = []
        results.append(db.query(q))
        results.append(db.query(q))
        db.execute(domain.create_project, "web", 50)
        results.append(db.query(q))
        db.execute(domain.hire, "erin", "cs", 90, 25, "S")
        results.append(db.query(q))
        results.append(db.query(q))
        return results

    def test_traced_and_untraced_runs_agree(self, domain):
        from repro.domains import make_domain

        d1, d2 = make_domain(), make_domain()
        db_plain = Database(d1.schema, initial=d1.sample_state())
        cache_plain = db_plain.enable_query_cache()
        plain = self.workload(d1, db_plain)

        db_traced = Database(d2.schema, initial=d2.sample_state())
        cache_traced = db_traced.enable_query_cache()
        with db_traced.profile():
            traced = self.workload(d2, db_traced)

        assert traced == plain
        assert cache_traced.stats.hits == cache_plain.stats.hits
        assert cache_traced.stats.misses == cache_plain.stats.misses
        assert (
            db_traced.current.digest() == db_plain.current.digest()
        ), "traced and untraced commits must produce identical states"

    def test_toggling_profile_mid_run_keeps_hitting(self, domain):
        db = Database(domain.schema, initial=domain.sample_state())
        cache = db.enable_query_cache()
        q = headcount_query()
        db.query(q)
        with db.profile():
            db.query(q)  # the tracer is not part of the key: still a hit
        db.query(q)
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)


class TestThreadSafety:
    def test_hot_key_survives_concurrent_hits_and_invalidation(self, domain):
        """Ledger finding 6: two ``QUERY``s hitting the hot key both ran
        the LRU re-insertion and the loser raised ``KeyError``; an
        invalidation between lookup and re-insertion did the same."""
        cache = QueryCache()
        state = domain.sample_state()
        q = headcount_query()
        cache.evaluate(q, (), state)
        errors: list[BaseException] = []
        answers: list[int] = []
        stop_at = time.monotonic() + 1.0
        workers = 6

        def reader() -> None:
            got = 0
            try:
                while time.monotonic() < stop_at:
                    assert cache.evaluate(q, (), state) == 4
                    got += 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            answers.append(got)

        def invalidator() -> None:
            try:
                while time.monotonic() < stop_at:
                    cache.invalidate({"EMP"})
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(workers)]
        threads.append(threading.Thread(target=invalidator))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # No lost updates: every answered lookup is one hit or one miss.
        assert cache.stats.hits + cache.stats.misses == sum(answers) + 1
        assert len(cache) <= 1
