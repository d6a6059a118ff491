"""End-to-end benchmark of the paper's division queries.

Run from the repository root:

    python3 perfbench/run.py --workload adhoc-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the same
workload with spans around every layer and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run (every metric, tail percentiles
with their sample counts, every operation's wall and CPU time, and the
provenance of the engine source) is written to ``perfbench/out/``; a traced
run also writes its spans and a per-layer self-time summary there.

The engine is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("adhoc-cold", "store-scan", "store-churn")


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git(*args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip()


def provenance() -> dict[str, Any]:
    """Which engine source and which machine produced the numbers.

    ``src_sha256`` hashes every file under ``src/`` (paths and contents),
    so a record identifies its source even outside a git checkout, where
    ``commit`` and ``src_dirty`` are null.
    """
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SOURCE).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--", "src")
        dirty = None if status is None else bool(status)
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "src_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine source not found at {SOURCE}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from repro.physical.parallel import shutdown_pool
    from tracing import Tracer
    from workloads import WORKLOADS, Bench

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    name = f"{workload.name}-seed{args.seed}" + ("-trace" if traced else "")
    work_dir = OUT / f"work-{name}-{os.getpid()}"
    tracer = Tracer() if traced else None
    bench = Bench(workload, args.seed, args.seconds, str(work_dir), tracer)
    if tracer is not None:
        tracer.install()
    try:
        bench.run(traced)
        metrics = bench.per_layer() if traced else bench.end_to_end()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutdown_pool()
        shutil.rmtree(work_dir, ignore_errors=True)

    recorder = bench.recorder
    correct = recorder.failed == 0
    tails = {
        metric: {"value": value, "percentile": percentile, "samples": samples}
        for metric, (value, percentile, samples) in bench.tails.items()
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "correct": correct,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "failures": recorder.failures,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "tails": tails,
        "setup_seconds": bench.setup_seconds,
        "ops": recorder.ops,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        spans = {"operations": recorder.ops, "spans": tracer.export()}
        (OUT / f"{name}.spans.json").write_text(json.dumps(spans))
        (OUT / f"{name}.layers.json").write_text(json.dumps(tracer.summary(), indent=1))

    for key, (value, unit) in metrics.items():
        extra = ""
        if key in tails:
            extra = f"  (p{tails[key]['percentile']:g} of {tails[key]['samples']} samples)"
        print(f"{key:44s} {value:14.4f} {unit}{extra}")
    source = record["provenance"]
    print(
        f"# {workload.name} seed={args.seed} src_sha256={source['src_sha256'][:16]} "
        f"commit={source['commit']} dirty={source['src_dirty']} nproc={source['nproc']} "
        f"python={source['python']} numpy={source['numpy']}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": recorder.attempted,
                "failed": recorder.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
