"""Extension ablation — verify-and-trust (paper, Section 5 direction).

Claim reproduced: a constraint proved preserved offline costs nothing at
runtime; the per-execution saving grows with database size, while the
offline proof is size-independent.
"""

import pytest

from repro.db.generators import employee_state
from repro.engine import Database


def _db(domain, size, trust):
    domain.schema.add_constraint(domain.once_married())
    db = Database(domain.schema, window=2, initial=employee_state(domain, size))
    if trust:
        assert db.verify_and_trust(domain.once_married(), domain.add_skill)
    return db


@pytest.mark.parametrize("size", [10, 40])
def test_bench_execute_without_trust(benchmark, domain, size):
    db = _db(domain, size, trust=False)

    def run():
        # A bare post-state: ``execute`` would prove the pair at the first
        # commit and skip it from the second on.
        after = domain.add_skill.run(db.current, "emp0", 5, interpreter=db.interpreter)
        db.apply(after, label="add-skill")

    benchmark(run)
    assert db.last_record.results and db.last_record.ok


@pytest.mark.parametrize("size", [10, 40])
def test_bench_execute_with_trust(benchmark, domain, size):
    db = _db(domain, size, trust=True)

    def run():
        db.execute(domain.add_skill, "emp0", 5)

    benchmark(run)
    assert db.last_record.skipped


def test_bench_the_offline_proof(benchmark, domain):
    """The one-time cost the trust amortizes (database-size independent)."""
    from repro.verification import Verifier

    verifier = Verifier()
    result = benchmark(lambda: verifier.verify(domain.once_married(), domain.add_skill, []))
    assert result.preserved
