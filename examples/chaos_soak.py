"""Chaos soak: prove the governance layer degrades, never corrupts.

Runs the engine-wide chaos harness over one or more seeds: each round
submits a mixed workload (striped writers, a hot relation, foreach sweeps)
through an optimistic scheduler while deterministic faults are injected —
evaluation stalls, spurious validation conflicts, budget near-misses,
deadline squeezes — then corrupts the planner's answers white-box and
demands the quarantine machinery catch the lie.

Every round must end with: only typed outcomes, a serially replayable
commit log, a final state equivalent to the unfaulted replay, and zero
wrong answers.  One JSON report per seed is written to the output
directory; the exit code is nonzero if any seed violated the contract.

Run:  PYTHONPATH=src python examples/chaos_soak.py [outdir] [seed ...]
"""

from __future__ import annotations

import pathlib
import sys

from repro.testing import run_soak


def main(argv: list[str]) -> int:
    outdir = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(
        "chaos-reports"
    )
    seeds = [int(s) for s in argv[2:]] or [1, 2, 3, 4, 5]
    outdir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for seed in seeds:
        report = run_soak(seed, transactions=48, workers=4)
        path = outdir / f"chaos-report-{seed}.json"
        path.write_text(report.to_json() + "\n")
        verdict = "ok" if report.ok else "VIOLATION"
        print(
            f"seed {seed}: {verdict} — "
            f"{report.committed} committed, {report.aborted} aborted, "
            f"{report.failed} failed; "
            f"faults {sum(report.injected.values())}, "
            f"quarantined {report.quarantined} -> {path}"
        )
        if not report.ok:
            failures += 1
            print(f"  untyped errors: {report.untyped_errors}")
            print(f"  serializable={report.serializable} "
                  f"replay_equivalent={report.replay_equivalent} "
                  f"wrong_answers={report.wrong_answers}")

    total = len(seeds) * 48
    print(f"{len(seeds)} seed(s), {total} faulted transactions, "
          f"{failures} violating round(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
