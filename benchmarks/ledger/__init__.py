"""benchmarks.ledger — one seeded end-to-end + per-layer benchmark.

Six closed-loop workloads are driven through the real front door
(``Client`` → wire → session/admission → scheduler or ``ShardedDatabase`` →
interpreter/planner → constraint check → journal → 2PC) against a server in
a **child process**.  Each workload is measured twice: an untraced run that
yields the end-to-end metrics and a single-connection traced run whose
wrappers (installed by this package, nothing in ``src/`` changes) attribute
the time to the layers below.  ``README.md`` beside this file documents the
workloads, the metric → end-to-end map, and the first findings.

Entry points::

    python3 benchmarks/ledger/run.py --workload wire_put --seed 1 --seconds 10 --trace 0
    python3 -m benchmarks.ledger run | compare A.json B.json | selfcheck
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root (``benchmarks/ledger/`` sits two levels below it).
ROOT = Path(__file__).resolve().parents[2]

#: Layer names are the ``src/repro`` module names, plus ``obs`` for the
#: cost of this benchmark's own tracing.
LAYERS = (
    "server",
    "concurrent",
    "engine",
    "transactions",
    "algebra",
    "eval",
    "constraints",
    "storage",
    "sharding",
    "obs",
)


def ensure_repro_importable() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The driver runs the benchmark from a bare checkout with no
    ``PYTHONPATH``.  A directory without ``src/repro`` is not a checkout:
    there is no program to measure, so exit non-zero without a result
    rather than measure some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmarks.ledger: {src}/repro not found — run from a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
