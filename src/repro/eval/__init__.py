"""Evaluation support: footprints and the version index.

* :mod:`repro.eval.footprint` — static analysis mapping each constraint
  (or program) to the over-approximated set of relations its evaluation
  can read; sharding placement and routing run on it;
* :mod:`repro.eval.versions` — the per-relation last-writer index the
  optimistic scheduler validates footprints against in O(|footprint|).

A query is one evaluation at one state; the planner every
:class:`~repro.engine.Database` installs is what makes it fast.
DESIGN.md §7.3 gives the soundness arguments; ``docs/ARCHITECTURE.md``
places the layer in the system.
"""

from repro.eval.footprint import (
    Footprint,
    constraint_footprint,
    program_footprint,
)
from repro.eval.versions import RelationVersions

__all__ = [
    "Footprint",
    "constraint_footprint",
    "program_footprint",
    "RelationVersions",
]
