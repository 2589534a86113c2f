"""Footprint-driven shard placement and routing.

Placement answers one question: *which relations must live together?*  The
answer comes from static footprint analysis (:mod:`repro.eval.footprint`):
a constraint's verdict is a function of the relations in its footprint, so
checking it on a single shard is sound exactly when that whole footprint
is co-located.  :func:`plan_placement`
therefore unions each constraint's footprint relations into clusters
(union-find), widens arity-quantified constraints over every schema
relation of those arities, and deals the resulting clusters across shards
largest-first onto the least-loaded shard — deterministic, balanced, and
sound by construction.

Runtime-created relations route by a stable hash of their name
(:meth:`ShardPlan.shard_of`); relations a constraint's arity widening must
see are *homed* (:attr:`ShardPlan.arity_home`), and the sharded database
refuses a runtime creation that would scatter a homed arity (see
``sharded.py``) rather than silently weakening a constraint.  Routing a
program to the shards its footprint touches is the router's job
(``ShardedDatabase._participants``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.constraints.model import Constraint
from repro.db.schema import Schema
from repro.errors import ShardError
from repro.eval.footprint import Footprint, constraint_footprint


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def add(self, item: str) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: str) -> str:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic root choice: smallest name wins.
            if rb < ra:
                ra, rb = rb, ra
            self._parent[rb] = ra

    def clusters(self) -> list[frozenset[str]]:
        groups: dict[str, set[str]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), set()).add(item)
        return [frozenset(groups[root]) for root in sorted(groups)]


def _hash_shard(name: str, shards: int) -> int:
    """Stable fallback routing for relations the plan has never seen."""
    return zlib.crc32(name.encode("utf-8")) % shards


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of relations (and constraints) to shards.

    ``placement`` maps every schema relation to its shard;
    ``constraint_home`` maps every constraint name to the shard that checks
    it (all of its footprint relations live there); ``arity_home`` maps
    each arity some constraint quantifies over to the shard hosting *all*
    relations of that arity.  ``clusters`` records the co-location groups
    for diagnostics.  ``pin_creations`` is set when some constraint has a
    universe or ineligible footprint: every relation — including any
    created at runtime — must then live on that one shard for the
    constraint to see complete evidence.
    """

    shards: int
    placement: Mapping[str, int]
    constraint_home: Mapping[str, int]
    arity_home: Mapping[int, int]
    clusters: tuple[frozenset[str], ...] = field(default=())
    pin_creations: Optional[int] = None

    def shard_of(self, name: str) -> int:
        """The shard owning relation ``name`` (hash-routed if unplanned)."""
        placed = self.placement.get(name)
        if placed is not None:
            return placed
        if self.pin_creations is not None:
            return self.pin_creations
        return _hash_shard(name, self.shards)

    def describe(self) -> str:
        lines = [f"{self.shards} shard(s)"]
        by_shard: dict[int, list[str]] = {}
        for name, shard in sorted(self.placement.items()):
            by_shard.setdefault(shard, []).append(name)
        for shard in range(self.shards):
            names = ", ".join(by_shard.get(shard, [])) or "(empty)"
            lines.append(f"  shard {shard}: {names}")
        return "\n".join(lines)


def plan_placement(
    schema: Schema,
    shards: int,
    *,
    overrides: Optional[Mapping[str, int]] = None,
) -> ShardPlan:
    """Compute a sound, balanced placement of ``schema`` over ``shards``.

    Every constraint's footprint relations are unioned into one cluster
    (so each constraint checks entirely on one shard); arity-widened
    constraints additionally union every schema relation of those arities,
    and ineligible/universe constraints union *everything* — degenerating
    gracefully to a single shard rather than splitting a constraint's
    evidence.  Clusters are then dealt largest-first onto the least-loaded
    shard.  ``overrides`` pins relations to shards; pinning two co-located
    relations apart raises :class:`~repro.errors.ShardError` (the pin would
    break a constraint), as does pinning outside ``[0, shards)``.

    >>> from repro.domains import make_domain
    >>> d = make_domain()
    >>> plan = plan_placement(d.schema, 2)
    >>> plan.shards
    2
    >>> sorted(plan.placement) == sorted(d.schema.relations)
    True
    """
    if shards < 1:
        raise ShardError(f"shard count must be at least 1, got {shards}")
    uf = _UnionFind()
    names = sorted(schema.relations)
    for name in names:
        uf.add(name)

    arities_needed: set[int] = set()
    unbounded = False
    footprints: list[tuple[Constraint, Footprint]] = []
    for constraint in schema.constraints:
        fp = constraint_footprint(constraint, schema)
        footprints.append((constraint, fp))
        if not fp.eligible or fp.universe:
            unbounded = True
            for a, bnext in zip(names, names[1:]):
                uf.union(a, bnext)
            continue
        group = sorted(fp.relations)
        for a, bnext in zip(group, group[1:]):
            uf.union(a, bnext)
        arities_needed.update(fp.arities)
    for arity in arities_needed:
        group = sorted(
            n for n, rs in schema.relations.items() if rs.arity == arity
        )
        for a, bnext in zip(group, group[1:]):
            uf.union(a, bnext)

    clusters = uf.clusters()
    # Deal clusters largest-first onto the least-loaded shard; ties break on
    # shard index, then cluster name — fully deterministic.
    order = sorted(clusters, key=lambda c: (-len(c), min(c)))
    loads = [0] * shards
    assignment: dict[str, int] = {}
    overrides = dict(overrides or {})
    for name, shard in overrides.items():
        if not 0 <= shard < shards:
            raise ShardError(
                f"override places {name!r} on shard {shard}, "
                f"but there are only {shards}"
            )
    for cluster in order:
        pinned = {overrides[n] for n in cluster if n in overrides}
        if len(pinned) > 1:
            raise ShardError(
                f"overrides split co-located relations {sorted(cluster)} "
                f"across shards {sorted(pinned)}"
            )
        if pinned:
            target = pinned.pop()
        else:
            target = min(range(shards), key=lambda s: (loads[s], s))
        for name in cluster:
            assignment[name] = target
        loads[target] += len(cluster)

    constraint_home: dict[str, int] = {}
    for constraint, fp in footprints:
        anchor = min(fp.relations) if fp.relations else (names[0] if names else None)
        constraint_home[constraint.name] = (
            assignment[anchor] if anchor is not None else 0
        )
    arity_home: dict[int, int] = {}
    for arity in arities_needed:
        group = [n for n, rs in schema.relations.items() if rs.arity == arity]
        if group:
            arity_home[arity] = assignment[min(group)]
    pin = None
    if unbounded and names:
        pin = assignment[names[0]]
    return ShardPlan(
        shards=shards,
        placement=assignment,
        constraint_home=constraint_home,
        arity_home=arity_home,
        clusters=tuple(order),
        pin_creations=pin,
    )
