#!/usr/bin/env python3
"""End-to-end correctness smoke: a short run of every perfbench workload.

Runs ``perfbench/run.py --workload W --seed 1 --seconds 3 --trace 0`` for
each workload and reads the JSON object on the last line of its output.
``run.py`` always exits 0, so this script is the gate: it exits 1 unless
every run reports ``"correct": true`` and ``"failed": 0``.

    python3 scripts/e2e_check.py      # or: make e2e-check
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("adhoc-cold", "store-scan", "store-churn")


def check(workload: str) -> bool:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "3", "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    ok = result.get("correct") is True and result.get("failed") == 0
    summary = {key: result.get(key) for key in ("correct", "attempted", "failed")}
    print(f"e2e-check {workload}: {'ok' if ok else 'FAILED'} {summary}")
    if not ok:
        sys.stdout.write(completed.stdout[-2000:] + completed.stderr[-2000:])
    return ok


def main() -> int:
    results = [check(workload) for workload in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
