"""The example scripts run: each is a subprocess against the source tree.

An example that calls a deleted or renamed API fails here, in tier-1, not
only when someone next runs it by hand.  Each script runs with its working
directory and ``TMPDIR`` inside pytest's tmp directory, so anything it
writes (``durable_recovery.py``'s store) stays there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = (
    "quickstart.py",
    "concurrent_workers.py",
    "durable_recovery.py",
    "knowledgeable_database.py",
    "employee_lifecycle.py",
)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
