"""Immutable states: persistence, identifier allocation, sharing."""

import random

import pytest

from repro.constraints.checker import check_history
from repro.errors import EvaluationError, SchemaError
from repro.db import DBTuple, Schema, State, initial_state, make_tuple, state_from_rows
from repro.db.evolution import History
from repro.db.ownermap import OwnerMap
from repro.db.values import TupleSet
from repro.transactions.interpreter import Interpreter


@pytest.fixture()
def schema():
    s = Schema()
    s.add_relation("R", ("a", "b"))
    s.add_relation("S", ("x",))
    return s


@pytest.fixture()
def state(schema):
    return state_from_rows(schema, {"R": [(1, 2), (3, 4)], "S": [("p",)]})


class TestConstruction:
    def test_initial_state_has_all_relations_empty(self, schema):
        s0 = initial_state(schema)
        assert s0.relation("R").arity == 2 and len(s0.relation("R")) == 0

    def test_state_from_rows_allocates_ids(self, state):
        tids = sorted(t.tid for t in state.relation("R"))
        assert tids == [1, 2]

    def test_missing_relation_raises(self, state):
        with pytest.raises(EvaluationError):
            state.relation("T")


def insert_fold(schema, rows):
    """``state_from_rows``'s specification: one ``insert_tuple`` per row."""
    state = initial_state(schema)
    for name, tuples in rows.items():
        for values in tuples:
            state, _ = state.insert_tuple(name, DBTuple(None, tuple(values)))
    return state


class TestStateFromRows:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_insert_fold(self, schema, seed):
        rng = random.Random(seed)
        # Small value ranges force repeated values, within and across rows.
        rows = {
            "S": [(rng.choice("abcdef"),) for _ in range(rng.randrange(30))],
            "R": [
                (rng.randrange(6), rng.choice(["x", "y", 3]))
                for _ in range(rng.randrange(60))
            ],
        }
        built, folded = state_from_rows(schema, rows), insert_fold(schema, rows)
        for name in schema.relations:
            assert list(built.relation(name).tuples.items()) == list(
                folded.relation(name).tuples.items()
            )
        assert dict(built.owner) == dict(folded.owner)
        assert built.next_tid == folded.next_tid
        assert built.digest() == folded.digest()

    def test_arity_mismatch_raises(self, schema):
        with pytest.raises(SchemaError):
            state_from_rows(schema, {"S": [("p",), ("p", "q")]})

    def test_unknown_relation_raises(self, schema):
        with pytest.raises(EvaluationError):
            state_from_rows(schema, {"T": [(1,)]})


class TestInsert:
    def test_insert_returns_new_state(self, state):
        s2, t = state.insert_tuple("R", make_tuple(5, 6))
        assert len(s2.relation("R")) == 3
        assert len(state.relation("R")) == 2  # original untouched
        assert t.tid is not None

    def test_insert_shares_unchanged_relations(self, state):
        s2, _ = state.insert_tuple("R", make_tuple(5, 6))
        assert s2.relations["S"] is state.relations["S"]

    def test_set_semantics_insert_idempotent(self, state):
        s2, _ = state.insert_tuple("R", make_tuple(1, 2))
        assert s2 == state

    def test_arity_mismatch_rejected(self, state):
        with pytest.raises(SchemaError):
            state.insert_tuple("R", make_tuple(1))

    def test_owner_tracks_insertion(self, state):
        s2, t = state.insert_tuple("R", make_tuple(5, 6))
        assert s2.owner_of(t.tid) == "R"


class TestDelete:
    def test_delete_by_value(self, state):
        s2 = state.delete_tuple("R", make_tuple(1, 2))
        assert len(s2.relation("R")) == 1

    def test_delete_by_id(self, state):
        t = next(iter(state.relation("R")))
        s2 = state.delete_tuple("R", t)
        assert s2.relation("R").get(t.tid) is None

    def test_delete_absent_is_noop(self, state):
        s2 = state.delete_tuple("R", make_tuple(9, 9))
        assert s2 == state

    def test_delete_clears_owner(self, state):
        t = next(iter(state.relation("R")))
        s2 = state.delete_tuple("R", t)
        assert s2.owner_of(t.tid) is None


class TestModify:
    def test_modify_keeps_identifier(self, state):
        t = next(iter(state.relation("R")))
        s2 = state.modify_tuple(t, 2, 99)
        updated = s2.relation("R").get(t.tid)
        assert updated is not None and updated.values[1] == 99
        assert updated.tid == t.tid

    def test_modify_preserves_other_tuples(self, state):
        tuples = list(state.relation("R"))
        s2 = state.modify_tuple(tuples[0], 1, 42)
        other = s2.relation("R").get(tuples[1].tid)
        assert other == tuples[1]

    def test_modify_unidentified_fails(self, state):
        with pytest.raises(EvaluationError):
            state.modify_tuple(make_tuple(1, 2), 1, 0)

    def test_modify_foreign_tuple_fails(self, state):
        with pytest.raises(EvaluationError):
            state.modify_tuple(DBTuple(999, (1, 2)), 1, 0)


class TestAssign:
    def test_assign_replaces_relation(self, state):
        value = TupleSet.of(2, [make_tuple(7, 8)])
        s2 = state.assign_relation("R", 2, value)
        assert len(s2.relation("R")) == 1
        assert next(iter(s2.relation("R"))).values == (7, 8)

    def test_assign_creates_relation(self, state):
        s1 = state.create_relation("T", 1)
        value = TupleSet.of(1, [make_tuple("z")])
        s2 = s1.assign_relation("T", 1, value)
        assert len(s2.relation("T")) == 1

    def test_assign_arity_checked(self, state):
        with pytest.raises(SchemaError):
            state.assign_relation("R", 2, TupleSet.of(1, [make_tuple("z")]))

    def test_assign_is_deterministic(self, state):
        value = TupleSet.of(2, [make_tuple(7, 8), make_tuple(9, 10)])
        s2 = state.assign_relation("R", 2, value)
        s3 = state.assign_relation("R", 2, value)
        assert s2 == s3 and s2.next_tid == s3.next_tid


class TestIdentityAndDomains:
    def test_content_equality_ignores_next_tid(self, schema):
        a = state_from_rows(schema, {"R": [(1, 2)]})
        s4, _ = initial_state(schema).insert_tuple("R", make_tuple(1, 2))
        # same contents and identifiers, allocator position irrelevant
        assert a == s4

    def test_identifiers_are_part_of_state_identity(self, schema):
        """Tuple identity is semantically meaningful (the id builtin); two
        states whose equal-valued tuples carry different identifiers are
        different states."""
        a = state_from_rows(schema, {"R": [(1, 2)]})
        base = initial_state(schema)
        s2, _ = base.insert_tuple("R", make_tuple(0, 0))
        s3 = s2.delete_tuple("R", make_tuple(0, 0))
        s4, _ = s3.insert_tuple("R", make_tuple(1, 2))  # gets tid 2, not 1
        assert a != s4

    def test_hashable(self, state):
        assert hash(state) == hash(state)

    def test_tuples_of_arity(self, state):
        assert len(state.tuples_of_arity(2)) == 2
        assert len(state.tuples_of_arity(1)) == 1
        assert state.tuples_of_arity(7) == []

    def test_atoms(self, state):
        assert {1, 2, 3, 4, "p"} <= state.atoms()

    def test_total_tuples(self, state):
        assert state.total_tuples() == 3

    def test_lookup_tuple(self, state):
        t = next(iter(state.relation("S")))
        assert state.lookup_tuple(t.tid) == t
        assert state.lookup_tuple(12345) is None


class TestOwnerConversion:
    def test_a_dict_owner_is_converted_once(self, state):
        built = State(state.relations, dict(state.owner), state.next_tid)
        assert isinstance(built.owner, OwnerMap)
        assert built.owner == state.owner
        s2, _ = built.insert_tuple("R", make_tuple(5, 6))
        assert isinstance(s2.owner, OwnerMap)


class TestRelationSetCache:
    def test_to_tuple_set_is_built_once_per_relation(self, state):
        rel = state.relation("R")
        assert rel.to_tuple_set() is rel.to_tuple_set()
        s2, _ = state.insert_tuple("R", make_tuple(5, 6))
        assert len(s2.relation("R").to_tuple_set()) == 3
        assert len(rel.to_tuple_set()) == 2

    def test_walked_check_builds_one_set_per_relation_version(
        self, stripe_schema, monkeypatch
    ):
        """The walk tests ``t ∈ R0`` once per binding of ``t``; each test
        must find R0's set built, not rebuild it (O(|R|²) per check)."""
        constraint = next(
            c for c in stripe_schema.constraints if c.name == "R0-values-nonnegative"
        )
        head = state_from_rows(stripe_schema, {"R0": [(k, k) for k in range(20)]})
        history = History(window=3)
        history.start(head)
        for k in (20, 21):
            head, _ = head.insert_tuple("R0", make_tuple(k, k))
            history.advance(head, f"put-{k}")
        builds = []
        of = TupleSet.of
        monkeypatch.setattr(
            TupleSet, "of", staticmethod(lambda *a: builds.append(a) or of(*a))
        )
        assert check_history(constraint, history, Interpreter()).ok
        assert len(builds) == 3  # one per R0 version in the window
        assert check_history(constraint, history, Interpreter()).ok
        assert len(builds) == 3
