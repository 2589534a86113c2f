"""Immutable database states.

A state is one node of the paper's evolution graph: a snapshot of every
relation plus the identifier allocator.  All state-changing operations
(``insert``, ``delete``, ``modify``, ``assign``) are persistent — they return
a new state sharing every unchanged relation with the old one, which is what
makes "the computer memory represents implicitly the current state" a
property of *programs* (f-terms) rather than of the model: specifications may
freely mention many states at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import EvaluationError, SchemaError
from repro.db.ownermap import OwnerMap
from repro.db.relation import Relation, empty_relation
from repro.db.schema import Schema
from repro.db.values import Atom, DBTuple, TupleId, TupleSet


@dataclass(frozen=True)
class State:
    """An immutable database state.

    ``owner`` maps each live tuple identifier to the relation holding it
    (any mapping is accepted and converted once, here, to an
    :class:`~repro.db.ownermap.OwnerMap`, so updates never re-wrap it);
    ``next_tid`` is the fresh-identifier allocator, kept in the state so that
    evaluation is deterministic (the paper's transactions are deterministic
    programs: the resulting state is uniquely determined by the initial state
    and the transaction).
    """

    relations: Mapping[str, Relation] = field(default_factory=dict)
    owner: Mapping[TupleId, str] = field(default_factory=OwnerMap)
    next_tid: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "owner", OwnerMap.wrap(self.owner))

    # -- access ---------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise EvaluationError(f"state has no relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self.relations

    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.relations))

    def lookup_tuple(self, tid: TupleId) -> DBTuple | None:
        """The tuple with identifier ``tid`` as it exists in this state."""
        name = self.owner.get(tid)
        if name is None:
            return None
        return self.relations[name].get(tid)

    def owner_of(self, tid: TupleId) -> str | None:
        return self.owner.get(tid)

    def tuples_of_arity(self, arity: int) -> list[DBTuple]:
        """Active domain of the tuple sort ``tup(arity)`` in this state."""
        found: list[DBTuple] = []
        for rel in self.relations.values():
            if rel.arity == arity:
                found.extend(rel)
        return found

    def atoms(self) -> set[Atom]:
        """Every atom appearing in this state (active atom domain)."""
        acc: set[Atom] = set()
        for rel in self.relations.values():
            for t in rel:
                acc.update(t.values)
        return acc

    def total_tuples(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    # -- persistent updates ------------------------------------------------------

    def with_relations(
        self,
        new_relations: Mapping[str, Relation],
        new_owner: Mapping[TupleId, str] | None = None,
        next_tid: int | None = None,
    ) -> "State":
        return State(
            new_relations,
            self.owner if new_owner is None else new_owner,
            self.next_tid if next_tid is None else next_tid,
        )

    def create_relation(self, name: str, arity: int) -> "State":
        if name in self.relations:
            existing = self.relations[name]
            if existing.arity != arity:
                raise SchemaError(
                    f"relation {name} exists with arity {existing.arity}"
                )
            return self
        new = dict(self.relations)
        new[name] = empty_relation(name, arity)
        return self.with_relations(new)

    def insert_tuple(self, name: str, t: DBTuple) -> tuple["State", DBTuple]:
        """Insert ``t`` into relation ``name``; fresh tuples get a fresh id.

        Returns the new state and the identified tuple.  Inserting a tuple
        whose value is already present is the identity (set semantics) —
        matching the insert action axiom ``w;insert(t,R) : R = w:R ∪ {w:t}``.
        """
        rel = self.relation(name)
        if t.arity != rel.arity:
            raise SchemaError(
                f"inserting arity-{t.arity} tuple into {name} (arity {rel.arity})"
            )
        if t.tid is not None and self.owner.get(t.tid) == name:
            existing = rel.get(t.tid)
            if existing is not None and existing.values == t.values:
                return self, existing
        if rel.has_value(t.values):
            for existing in rel:
                if existing.values == t.values:
                    return self, existing
        identified = t if t.tid is not None and t.tid not in self.owner else t.with_tid(
            self.next_tid
        )
        allocated = identified.tid == self.next_tid
        new_rels = dict(self.relations)
        new_rels[name] = rel.with_tuple(identified)
        new_owner = self.owner.set(identified.tid, name)
        return (
            State(
                new_rels,
                new_owner,
                self.next_tid + 1 if allocated else self.next_tid,
            ),
            identified,
        )

    def delete_tuple(self, name: str, t: DBTuple) -> "State":
        """Delete ``t`` from relation ``name`` (by id, else by value)."""
        rel = self.relation(name)
        tid = t.tid
        if tid is None or rel.get(tid) is None:
            tid = next((x.tid for x in rel if x.values == t.values), None)
            if tid is None:
                return self
        new_rels = dict(self.relations)
        new_rels[name] = rel.without_tuple(tid)
        new_owner = self.owner.discard(tid)
        return State(new_rels, new_owner, self.next_tid)

    def modify_tuple(self, t: DBTuple, index: int, value: Atom) -> "State":
        """Set the i-th attribute of the identified tuple ``t`` to ``value``.

        The tuple keeps its identifier (modify-action + modify-frame axioms).
        """
        if t.tid is None:
            raise EvaluationError("modify of a tuple that is not in any relation")
        name = self.owner.get(t.tid)
        if name is None:
            raise EvaluationError(f"modify: tuple #{t.tid} not in this state")
        rel = self.relation(name)
        current = rel.get(t.tid)
        if current is None:
            raise EvaluationError(f"modify: tuple #{t.tid} not in relation {name}")
        updated = current.with_value(index, value)
        new_rels = dict(self.relations)
        new_rels[name] = rel.with_tuple(updated)
        return State(new_rels, self.owner, self.next_tid)

    def assign_relation(self, name: str, arity: int, value: TupleSet) -> "State":
        """(Re)create relation ``name`` with the tuples of ``value``.

        Existing tuples keep their identifiers when they came from a relation;
        fresh tuples are allocated identifiers deterministically.
        """
        if value.arity != arity:
            raise SchemaError(
                f"assign to {name}: set arity {value.arity} != {arity}"
            )
        old = self.relations.get(name)
        new_owner = self.owner
        if old is not None:
            for t in old:
                new_owner = new_owner.discard(t.tid)
        next_tid = self.next_tid
        tuples: dict[TupleId, DBTuple] = {}
        for t in sorted(value, key=lambda x: (x.tid is None, x.tid or 0, x.values)):
            if t.tid is not None and t.tid not in new_owner and t.tid not in tuples:
                identified = t
            else:
                identified = t.with_tid(next_tid)
                next_tid += 1
            tuples[identified.tid] = identified  # type: ignore[index]
            new_owner = new_owner.set(identified.tid, name)  # type: ignore[arg-type]
        new_rels = dict(self.relations)
        new_rels[name] = Relation(name, arity, tuples)
        return State(new_rels, new_owner, next_tid)

    # -- identity ------------------------------------------------------------------

    def digest(self) -> str:
        """A stable content digest identifying this state across processes.

        SHA-256 over the canonical serialization (sorted relations, sorted
        tuple identifiers, the allocator) — unlike ``hash()``, which Python
        salts per process, the digest of the same state content is the same
        in every process, which is what snapshot/journal integrity checks
        and cross-process comparison need.  Note it is finer than ``==``:
        states differing only in ``next_tid`` compare equal but digest
        differently, because recovery must reproduce the allocator too.
        """
        from repro.storage.serialize import state_digest

        return state_digest(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return dict(self.relations) == dict(other.relations)

    def __hash__(self) -> int:
        # States are immutable; the evolution graph keys its nodes by state,
        # so every commit hashes states repeatedly.  Cache the hash — the
        # per-relation hashes underneath are themselves cached, so even the
        # first computation is a cheap fold over shared relations.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                frozenset(
                    (name, rel) for name, rel in self.relations.items()
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        parts = ", ".join(str(self.relations[n]) for n in sorted(self.relations))
        return f"State({parts})"


def initial_state(schema: Schema) -> State:
    """The empty state over a schema: every relation present and empty."""
    state = State()
    for name, rs in schema.relations.items():
        state = state.create_relation(name, rs.arity)
    return state


def state_from_rows(
    schema: Schema, rows: Mapping[str, Iterable[tuple[Atom, ...]]]
) -> State:
    """Build a state from plain Python rows, allocating identifiers.

    The result is the fold of :meth:`State.insert_tuple` over the rows —
    identifiers in row order, a repeated value kept at its first row — but
    built in one pass per relation instead of one state per row.

    >>> from repro.db.schema import Schema
    >>> schema = Schema()
    >>> _ = schema.add_relation("EMP",
    ...     ("e-name", "e-dept", "salary", "age", "marital"))
    >>> state = state_from_rows(schema,
    ...     {"EMP": [("alice", "cs", 100, 30, "M")]})
    >>> sorted(t.values for t in state.relation("EMP").tuples.values())
    [('alice', 'cs', 100, 30, 'M')]
    """
    empty = initial_state(schema)
    relations = dict(empty.relations)
    owner: dict[TupleId, str] = {}
    next_tid = empty.next_tid
    for name, tuples in rows.items():
        first: dict[tuple[Atom, ...], DBTuple] = {}
        for values in tuples:
            t = DBTuple(next_tid, tuple(values))
            # Per row, as in the fold: an unknown relation with no rows is
            # not an error.
            arity = empty.relation(name).arity
            if t.arity != arity:
                raise SchemaError(
                    f"inserting arity-{t.arity} tuple into {name} (arity {arity})"
                )
            if t.values not in first:
                first[t.values] = t
                owner[next_tid] = name
                next_tid += 1
        if first:
            relations[name] = Relation(
                name, arity, {t.tid: t for t in first.values()}
            )
    return State(relations, owner, next_tid)
