"""Static footprint analysis: mentions, widening, eligibility, blockers."""

from __future__ import annotations

import pytest

from repro.constraints.model import Constraint
from repro.db.schema import Schema
from repro.eval.footprint import constraint_footprint
from repro.logic import builder as b
from repro.sharding.routing import plan_placement


def cap_constraint(name: str, relation: str, arity: int, limit: int) -> Constraint:
    """``∀s: s::(size(relation) <= limit)`` — exact footprint {relation}."""
    s = b.state_var("s")
    return Constraint(
        name,
        b.forall(s, b.holds(s, b.le(b.size_of(b.rel(relation, arity)), b.atom(limit)))),
    )


@pytest.fixture()
def schema():
    sch = Schema()
    sch.add_relation("R", ("a",))
    sch.add_relation("S", ("x", "y"))
    sch.add_relation("T", ("p", "q"))
    return sch


class TestDirectMentions:
    def test_cap_constraint_mentions_only_its_relation(self, schema):
        fp = constraint_footprint(cap_constraint("cap", "R", 1, 10), schema)
        assert fp.eligible and not fp.universe
        assert fp.relations == frozenset({"R"})
        assert fp.arities == frozenset()

    def test_domain_static_constraints_are_bounded(self, domain):
        for c in (
            domain.every_employee_allocated(),
            domain.alloc_references_project(),
            domain.allocation_within_limit(),
        ):
            fp = constraint_footprint(c, domain.schema)
            assert fp.bounded, fp

    def test_every_employee_allocated_footprint(self, domain):
        fp = constraint_footprint(
            domain.every_employee_allocated(), domain.schema
        )
        # Mentions EMP and ALLOC directly; fluent tuple variables of arity 5
        # and 3 widen to every same-arity relation — which pulls in DEPT
        # (arity 3) but not PROJ (2) or SKILL (2).
        assert fp.relations == frozenset({"EMP", "ALLOC", "DEPT"})
        assert fp.arities == frozenset({3, 5})


class TestArityWidening:
    def test_fluent_quantifier_widens_by_arity(self, schema):
        s = b.state_var("s")
        e = b.ftup_var("e", 2)
        c = Constraint(
            "some-pair",
            b.forall(
                s,
                b.holds(s, b.forall(e, b.member(e, b.rel("S", 2)))),
            ),
        )
        fp = constraint_footprint(c, schema)
        # The fluent ∀e enumerates the full arity-2 active domain, so T is
        # in the footprint even though the formula never names it.
        assert fp.relations == frozenset({"S", "T"})
        assert fp.arities == frozenset({2})


class TestBlockers:
    """An unbounded footprint blocks splitting the state: placement must
    co-locate every relation, runtime-created ones included."""

    def test_universe_blocks_on_any_touch_but_not_on_none(self, schema):
        s = b.state_var("s")
        s2 = b.state_var("s2")
        c = Constraint("frozen", b.forall([s, s2], b.eq(s, s2)))
        fp = constraint_footprint(c, schema)
        assert fp.eligible and fp.universe and not fp.bounded
        # Bounded constraints alone leave relations free to spread ...
        schema.add_constraint(cap_constraint("cap", "R", 1, 10))
        free = plan_placement(schema, 3)
        assert free.pin_creations is None
        assert len(set(free.placement.values())) > 1
        # ... but a universe footprint blocks every split, future ones too.
        schema.add_constraint(c)
        plan = plan_placement(schema, 3)
        assert len(set(plan.placement.values())) == 1
        assert plan.pin_creations == plan.placement["R"]
        assert plan.shard_of("NEW") == plan.pin_creations

    def test_ineligible_blocks_even_with_empty_touch_set(self, domain):
        fp = constraint_footprint(domain.no_eternal_project(), domain.schema)
        assert not fp.eligible
        # Ineligibility blocks regardless of which relations the formula
        # names: relations it never mentions are pinned alongside PROJ.
        sch = Schema()
        sch.add_relation("PROJ", domain.schema.relation("PROJ").attributes)
        for name in ("A", "B", "C"):
            sch.add_relation(name, ("x",))
        sch.add_constraint(domain.no_eternal_project())
        plan = plan_placement(sch, 3)
        assert len(set(plan.placement.values())) == 1
        assert plan.shard_of("NEW") == plan.pin_creations == plan.placement["A"]


class TestEligibility:
    def test_existential_state_quantification_is_ineligible(self, domain):
        fp = constraint_footprint(domain.no_eternal_project(), domain.schema)
        assert not fp.eligible
        assert "existential" in fp.reason

    def test_transition_quantification_is_ineligible(self, domain):
        fp = constraint_footprint(domain.skill_retention(), domain.schema)
        assert not fp.eligible
        assert "transition" in fp.reason

    def test_state_changing_application_is_ineligible(self, domain):
        fp = constraint_footprint(
            domain.dept_deletion_precondition(), domain.schema
        )
        assert not fp.eligible
        assert "state-changing" in fp.reason

    def test_atom_variable_widens_to_universe(self, schema):
        s = b.state_var("s")
        n = b.atom_var("n")
        c = Constraint(
            "has-r",
            b.forall(
                [s, n],
                b.holds(s, b.member(b.mktuple(n), b.rel("R", 1))),
            ),
        )
        fp = constraint_footprint(c, schema)
        assert fp.eligible and fp.universe

    def test_situationally_bound_tuple_variable_widens_to_universe(self, schema):
        s = b.state_var("s")
        e = b.ftup_var("e", 2)
        # e is bound *outside* any w:: — the situational evaluator
        # enumerates it across all window states and dereferences by
        # identifier, so no relation footprint bounds it.
        c = Constraint(
            "stays",
            b.forall([s, e], b.holds(s, b.member(e, b.rel("S", 2)))),
        )
        fp = constraint_footprint(c, schema)
        assert fp.eligible and fp.universe
        assert "dereferences" in fp.reason

    def test_state_equality_widens_to_universe(self, schema):
        s = b.state_var("s")
        s2 = b.state_var("s2")
        c = Constraint("frozen", b.forall([s, s2], b.eq(s, s2)))
        fp = constraint_footprint(c, schema)
        assert fp.eligible and fp.universe and not fp.bounded
        assert "state equality" in fp.reason

    def test_all_domain_constraints_analyze_without_error(self, domain):
        for c in domain.all_constraints:
            fp = constraint_footprint(c, domain.schema)
            assert fp.constraint_name == c.name
            assert isinstance(str(fp), str)
