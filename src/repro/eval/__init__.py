"""Evaluation support: footprints, the tabled query cache, version index.

* :mod:`repro.eval.footprint` — static analysis mapping each constraint
  (or program) to the over-approximated set of relations its evaluation
  can read; sharding placement and routing run on it;
* :mod:`repro.eval.cache` — a tabled cache of query results keyed on
  program, arguments, and a content digest of the relations the evaluation
  actually read (tracked through the interpreter's ``_touch`` seam);
* :mod:`repro.eval.versions` — the per-relation last-writer index the
  optimistic scheduler validates footprints against in O(|footprint|);
* :mod:`repro.eval.quarantine` — graceful degradation for accelerators
  whose ``verify`` mode caught a mismatch.

Enable the cache on a database with
:meth:`~repro.engine.Database.enable_query_cache`; it defaults to off so
uncached evaluation stays the baseline.  DESIGN.md §7.3 gives the
soundness arguments; ``docs/ARCHITECTURE.md`` places the layer in the
system.
"""

from repro.eval.cache import CacheMismatch, CacheStats, QueryCache
from repro.eval.footprint import (
    Footprint,
    constraint_footprint,
    program_footprint,
)
from repro.eval.versions import RelationVersions

__all__ = [
    "CacheMismatch",
    "CacheStats",
    "QueryCache",
    "Footprint",
    "constraint_footprint",
    "program_footprint",
    "RelationVersions",
]
