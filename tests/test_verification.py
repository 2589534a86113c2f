"""E5: transaction verification — Example 5's claims, mechanically."""

import pytest

from repro.verification import (
    Scenario,
    VCStatus,
    Verdict,
    Verifier,
    preservation_vc,
    verify_transaction,
)


@pytest.fixture()
def scenario(domain, sample_state):
    return Scenario(sample_state, ("net", 10))


class TestVCGeneration:
    def test_atomic_transaction_reduces(self, domain):
        vc = preservation_vc(domain.skill_retention(), domain.add_skill)
        assert vc.status is VCStatus.REDUCED

    def test_foreach_transaction_is_residual(self, domain):
        vc = preservation_vc(domain.skill_retention(), domain.set_salary)
        assert vc.status is VCStatus.RESIDUAL

    def test_cancel_project_is_residual(self, domain):
        vc = preservation_vc(domain.once_married(), domain.cancel_project)
        assert vc.status is VCStatus.RESIDUAL

    def test_params_generalized(self, domain):
        vc = preservation_vc(domain.once_married(), domain.hire)
        assert len(vc.generalized_params) == len(domain.hire.params)

    def test_static_constraint_vc(self, domain):
        vc = preservation_vc(domain.every_employee_allocated(), domain.allocate)
        assert vc.status is VCStatus.REDUCED


class TestExample5Claims:
    """The paper: cancel-project 'can be proved to preserve the validity of
    all transaction constraints in Examples 2 and 3 except that it may
    violate the one about salary modification if there are employees who
    work for projects besides p.  The validity of the first constraint in
    Example 4 [never-rehire] is also preserved since the transaction does
    not hire new employees.'"""

    def test_once_married_preserved(self, domain, scenario):
        result = Verifier().verify(domain.once_married(), domain.cancel_project, [scenario])
        assert result.preserved

    def test_skill_retention_preserved(self, domain, scenario):
        result = Verifier().verify(
            domain.skill_retention(), domain.cancel_project, [scenario]
        )
        assert result.preserved

    def test_salary_constraint_violated_with_shared_employees(self, domain, scenario):
        """carol works on 'ai' besides 'net': her salary drops with no dept
        change — the exact exception the paper predicts."""
        result = Verifier().verify(
            domain.salary_decrease_needs_dept_change(),
            domain.cancel_project,
            [scenario],
        )
        assert result.verdict is Verdict.VIOLATED
        assert result.counterexample is scenario

    def test_salary_constraint_ok_without_shared_employees(self, domain, sample_state):
        """Cancelling 'db' only touches alice (on ai too) ... pick a clean
        case: employees allocated solely to the cancelled project are
        deleted, not cut — no decrease happens."""
        s = domain.deallocate.run(sample_state, "carol", "net")
        s = domain.allocate.run(s, "carol", "ai", 50)
        # now 'net' has only dan (sole project) -> deletion, no salary cut
        result = Verifier().verify(
            domain.salary_decrease_needs_dept_change(),
            domain.cancel_project,
            [Scenario(s, ("net", 10))],
        )
        assert result.preserved

    def test_never_rehire_preserved(self, domain, scenario):
        result = Verifier().verify(domain.never_rehire(), domain.cancel_project, [scenario])
        assert result.preserved

    def test_project_deletion_cascades_preserved(self, domain, scenario):
        result = Verifier().verify(
            domain.project_deletion_cascades(), domain.cancel_project, [scenario]
        )
        assert result.preserved

    def test_report_over_battery(self, domain, scenario):
        battery = [
            domain.once_married(),
            domain.skill_retention(),
            domain.salary_decrease_needs_dept_change(),
            domain.never_rehire(),
        ]
        report = verify_transaction(domain.cancel_project, battery, [scenario])
        assert not report.all_preserved
        assert [r.constraint.name for r in report.violated()] == [
            "salary-decrease-needs-dept-change"
        ]
        assert report.by_name("once-married").preserved


class TestProofPath:
    def test_untouched_relation_proved(self, domain):
        """add-skill cannot affect once-married: the regressed constraint is
        provable by resolution (a genuine proof, no scenarios needed)."""
        result = Verifier().verify(domain.once_married(), domain.add_skill, [])
        assert result.verdict is Verdict.PROVED

    def test_insert_into_skill_preserves_retention(self, domain):
        result = Verifier().verify(domain.skill_retention(), domain.add_skill, [])
        assert result.verdict is Verdict.PROVED

    def test_unknown_without_scenarios(self, domain):
        result = Verifier().verify(
            domain.salary_decrease_needs_dept_change(), domain.cancel_project, []
        )
        assert result.verdict is Verdict.UNKNOWN

    def test_model_checking_complements_proof(self, domain, sample_state):
        """set-salary has a foreach: no proof, but scenarios decide."""
        good = Scenario(sample_state, ("alice", 500))
        result = Verifier().verify(
            domain.salary_decrease_needs_dept_change(), domain.set_salary, [good]
        )
        assert result.verdict is Verdict.MODEL_CHECKED
        bad = Scenario(sample_state, ("alice", 10))
        result2 = Verifier().verify(
            domain.salary_decrease_needs_dept_change(), domain.set_salary, [bad]
        )
        assert result2.verdict is Verdict.VIOLATED


def test_every_transaction_and_constraint_pair_gets_a_verdict():
    """Every (constraint, transaction) pair of both shipped domains: the
    verifier returns a verdict and raises nothing — the prover skips an
    ill-sorted rewrite instead of raising ``SortError`` from it."""
    from repro.domains import make_domain
    from repro.domains.banking import make_banking_domain
    from repro.transactions.program import DatabaseProgram

    pairs = []
    for domain, constraints in (
        (make_domain(), make_domain().all_constraints),
        (make_banking_domain(), make_banking_domain().constraints()),
    ):
        programs = [p for p in vars(domain).values() if isinstance(p, DatabaseProgram)]
        pairs += [(c, p) for c in constraints for p in programs]
    assert len(pairs) == 168
    verifier = Verifier()
    for constraint, program in pairs:
        result = verifier.verify(constraint, program)
        assert isinstance(result.verdict, Verdict), (constraint.name, program.name)
