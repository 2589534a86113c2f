"""``python -m benchmarks.ledger run | compare | selfcheck``."""

import sys

from .cli import main

sys.exit(main())
