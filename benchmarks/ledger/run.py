"""The command ``BENCHMARK.json`` names.

The driver runs ``python3 benchmarks/ledger/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the root of a bare checkout (no
``PYTHONPATH``, not a git repository).  This puts the checkout on
``sys.path`` and hands over to ``benchmarks.ledger run``.  In a directory
that is not a checkout (no ``src/repro``) the import fails and the process
exits non-zero without printing a result.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.ledger.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
