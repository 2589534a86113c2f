"""Evaluation support: footprints, version index, quarantine.

* :mod:`repro.eval.footprint` — static analysis mapping each constraint
  (or program) to the over-approximated set of relations its evaluation
  can read; sharding placement and routing run on it;
* :mod:`repro.eval.versions` — the per-relation last-writer index the
  optimistic scheduler validates footprints against in O(|footprint|);
* :mod:`repro.eval.quarantine` — graceful degradation for the algebra
  planner when its ``verify`` mode catches a mismatch.

A query is one evaluation at one state; the planner
(:meth:`~repro.engine.Database.enable_planner`) is what makes it fast.
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
