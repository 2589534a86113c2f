"""Per-column statistics for the cost-based planner.

Row counts are read off the state being planned (``len`` of a relation
is O(1)), so a plan for any state — the current one, a snapshot, a
candidate post-state — is costed on that state's own data.  Per-column
distinct counts (for join/selection selectivity) are computed lazily per
relation and cached against the immutable
:class:`~repro.db.relation.Relation` object — a commit that touches a
relation swaps the object, which invalidates the cache by identity.

Statistics influence only plan *choice* (join order, build side, index
use), never results: a poor estimate costs time, not correctness.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.db.state import State


class StatsCatalog:
    """Distinct-value bookkeeping shared by one planner."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ndv: dict[str, tuple[object, dict[int, int]]] = {}

    def distinct(self, state: State, name: str, index: int) -> int:
        """Distinct values in column ``index`` (1-based) of ``state``'s
        relation; lazily computed and cached against that relation
        object."""
        rel = state.relations.get(name)
        if rel is None:
            return 0
        with self._lock:
            cached = self._ndv.get(name)
            if cached is not None and cached[0] is rel:
                counts = cached[1]
            else:
                counts = {}
                self._ndv[name] = (rel, counts)
        got = counts.get(index)
        if got is None:
            got = len({t.values[index - 1] for t in rel}) if len(rel) else 0
            counts[index] = got
        return got

    def selectivity(self, state: State, name: str, index: Optional[int]) -> float:
        """Fraction of rows surviving an equality filter on the column
        (``None`` index — a non-equality predicate — uses a fixed 1/3)."""
        if index is None:
            return 1 / 3
        d = self.distinct(state, name, index) or 1
        return 1.0 / d
