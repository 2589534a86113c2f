"""A placeholder for the deleted query cache; nothing in the package uses it.

``benchmarks/ledger/tracing.py`` imports :class:`QueryCache` and wraps its
``evaluate`` / ``invalidate`` in a traced run, so the names outlive the
cache.  ROADMAP item 1 retires those wrappers and deletes this module.
"""


class QueryCache:
    def evaluate(self, *args, **kwargs):  # pragma: no cover - never called
        raise NotImplementedError("the query cache was removed")

    def invalidate(self, *args, **kwargs):  # pragma: no cover - never called
        raise NotImplementedError("the query cache was removed")
