"""Immutable relations: finite sets of identified tuples.

A relation is keyed by tuple identifier — the database-facing view of the
paper's "finite n-ary set" sort, enriched with the identifier function
``id``.  All update operations return new relations; unchanged relations are
shared between states (see DESIGN.md decision 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import EvaluationError, SchemaError
from repro.db.values import Atom, DBTuple, TupleId, TupleSet


@dataclass(frozen=True)
class Relation:
    """An immutable named relation.

    ``tuples`` maps tuple identifier to the tuple's current value.  The
    mapping is never mutated after construction.
    """

    name: str
    arity: int
    tuples: Mapping[TupleId, DBTuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for tid, t in self.tuples.items():
            if t.tid != tid:
                raise SchemaError(
                    f"relation {self.name}: tuple keyed {tid} carries id {t.tid}"
                )
            if t.arity != self.arity:
                raise SchemaError(
                    f"relation {self.name} (arity {self.arity}) contains a "
                    f"tuple of arity {t.arity}"
                )

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[DBTuple]:
        return iter(self.tuples.values())

    def __contains__(self, t: DBTuple) -> bool:
        """Membership: by identifier when the tuple has one, by value
        otherwise (freshly constructed tuples)."""
        if t.tid is not None:
            return t.tid in self.tuples
        return any(existing.values == t.values for existing in self.tuples.values())

    def get(self, tid: TupleId) -> DBTuple | None:
        return self.tuples.get(tid)

    def has_value(self, values: tuple[Atom, ...]) -> bool:
        return any(t.values == values for t in self.tuples.values())

    def to_tuple_set(self) -> TupleSet:
        """The relation's value as an n-set (the fluent RelConst's value).

        Cached like :meth:`__hash__`: the relation is immutable, and the
        tree walk evaluates ``R`` once per ``t ∈ R`` test."""
        cached = self.__dict__.get("_tuple_set")
        if cached is None:
            cached = TupleSet.of(self.arity, tuple(self.tuples.values()))
            object.__setattr__(self, "_tuple_set", cached)
        return cached

    # -- updates (persistent) ----------------------------------------------------

    def with_tuple(self, t: DBTuple) -> "Relation":
        """Insert or replace the identified tuple ``t``."""
        if t.tid is None:
            raise EvaluationError(
                f"relation {self.name}: cannot store an unidentified tuple"
            )
        new = dict(self.tuples)
        new[t.tid] = t
        return Relation(self.name, self.arity, new)

    def without_tuple(self, tid: TupleId) -> "Relation":
        """Remove the tuple with identifier ``tid`` (no-op when absent)."""
        if tid not in self.tuples:
            return self
        new = dict(self.tuples)
        del new[tid]
        return Relation(self.name, self.arity, new)

    # -- structural equality -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and dict(self.tuples) == dict(other.tuples)
        )

    def __hash__(self) -> int:
        # Relations are immutable and shared structurally between states, so
        # the hash is computed once and cached (graph/dict-heavy paths hash
        # the same relation thousands of times).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (self.name, self.arity, frozenset(self.tuples.items()))
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        rows = ", ".join(str(t) for t in sorted(self, key=lambda t: t.tid or 0))
        return f"{self.name}{{{rows}}}"


def empty_relation(name: str, arity: int) -> Relation:
    return Relation(name, arity, {})
