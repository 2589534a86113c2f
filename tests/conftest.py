"""Shared fixtures: the employee domain, sample states, and hypothesis
strategies for random states and histories."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.constraints.model import Constraint
from repro.db import DBTuple, Schema, State, state_from_rows
from repro.domains import make_domain
from repro.logic import builder as b


@pytest.fixture()
def domain():
    return make_domain()


@pytest.fixture()
def sample_state(domain):
    return domain.sample_state()


@pytest.fixture()
def tiny_schema():
    schema = Schema()
    schema.add_relation("R", ("a", "b"))
    schema.add_relation("S", ("x", "y", "z"))
    return schema


@pytest.fixture()
def stripe_schema():
    """E18's sharding schema: stripe ``Ri`` has arity ``2 + i`` (distinct
    arities keep each per-row constraint on its own stripe) and carries the
    per-row invariant ``R{i}-values-nonnegative`` (``v >= 0``)."""
    schema = Schema()
    s = b.state_var("s")
    for i in range(8):
        rel = schema.add_relation(f"R{i}", ("k", "v") + tuple(f"p{j}" for j in range(i)))
        t = rel.var("t")
        schema.add_constraint(
            Constraint(
                f"R{i}-values-nonnegative",
                b.forall(s, b.holds(s, b.forall(t, b.implies(
                    b.member(t, rel.rel()), b.le(b.atom(0), rel.attr("v", t)),
                )))),
                declared_window=1,
            )
        )
    return schema


@pytest.fixture()
def tiny_state(tiny_schema):
    return state_from_rows(
        tiny_schema,
        {"R": [(1, 2), (3, 4)], "S": [(1, 1, 1), (2, 2, 2)]},
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

names = st.sampled_from(["alice", "bob", "carol", "dan", "erin", "frank"])
depts = st.sampled_from(["cs", "ee", "ops"])
projects = st.sampled_from(["db", "ai", "net", "web"])
small_nat = st.integers(min_value=0, max_value=200)


@st.composite
def employee_rows(draw, min_size=0, max_size=5):
    chosen = draw(
        st.lists(names, min_size=min_size, max_size=max_size, unique=True)
    )
    rows = []
    for name in chosen:
        rows.append(
            (
                name,
                draw(depts),
                draw(small_nat),
                draw(st.integers(min_value=18, max_value=70)),
                draw(st.sampled_from(["S", "M"])),
            )
        )
    return rows


@st.composite
def employee_states(draw):
    """A random consistent-ish employee state (not constraint-validated)."""
    domain = make_domain()
    emp_rows = draw(employee_rows())
    proj_rows = [(p, draw(small_nat)) for p in draw(
        st.lists(projects, min_size=1, max_size=4, unique=True)
    )]
    alloc_rows = []
    for name, *_ in emp_rows:
        for proj, _ in proj_rows:
            if draw(st.booleans()):
                alloc_rows.append((name, proj, draw(st.integers(1, 50))))
    return state_from_rows(
        domain.schema,
        {"EMP": emp_rows, "PROJ": proj_rows, "ALLOC": alloc_rows},
    )


def fresh_tuple(*values):
    return DBTuple(None, tuple(values))
