"""The paper's closing extension: verification × validation.

"Transaction verification can be combined with constraint validation to
make more constraints checkable with less amount of history maintained,
which leads to more knowledgable database systems."
"""

import pytest

from repro.engine import Database


@pytest.fixture()
def db(domain):
    domain.schema.add_constraint(domain.once_married())
    domain.schema.add_constraint(domain.skill_retention())
    return Database(domain.schema, window=2, initial=domain.sample_state())


class TestTrust:
    def test_verify_and_trust_on_provable_pair(self, domain, db):
        assert db.verify_and_trust(domain.once_married(), domain.add_skill)
        db.execute(domain.add_skill, "alice", 7)
        record = db.last_record
        skipped_names = {s.constraint.name for s in record.skipped}
        assert "once-married" in skipped_names
        checked_names = {r.constraint.name for r in record.results}
        assert "once-married" not in checked_names

    def test_untrusted_pairs_still_checked(self, domain, db):
        db.verify_and_trust(domain.once_married(), domain.add_skill)
        db.execute(domain.birthday, "alice")  # a different transaction
        record = db.last_record
        assert "once-married" in {r.constraint.name for r in record.results}

    def test_model_checked_verdict_not_auto_trusted(self, domain, db):
        """cancel-project has a foreach: only model-checkable, so
        verify_and_trust declines (scenario coverage is the caller's call)."""
        from repro.verification import Scenario

        scenario = Scenario(domain.sample_state(), ("net", 10))
        assert not db.verify_and_trust(
            domain.skill_retention(), domain.cancel_project, [scenario]
        )

    def test_explicit_trust_accepted(self, domain, db):
        db.trust("skill-retention", "cancel-project")
        db.execute(domain.cancel_project, "net", 10)
        record = db.last_record
        assert "skill-retention" in {s.constraint.name for s in record.skipped}

    def test_trusted_check_reduces_work(self, domain, db):
        """The point of the extension: fewer runtime checks per execution."""
        before = db.verify_and_trust(domain.once_married(), domain.add_skill)
        assert before
        db.execute(domain.add_skill, "bob", 3)
        with_trust = len(db.last_record.results)

        db2 = Database(domain.schema, window=2, initial=domain.sample_state())
        db2.execute(domain.add_skill, "bob", 3)
        without_trust = len(db2.last_record.results)
        assert with_trust < without_trust
