"""Timed operations, answer checks and the summary statistics of the run."""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from typing import Any, Callable, Optional

from tracing import Tracer

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) for the highest whole percentile,
    from 99 down to 50, that leaves at least ten samples beyond it.

    Whole percentiles rather than a few fixed ones keep the figure from
    jumping when a run's sample count crosses a threshold.
    """
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        return 0.0, 0.0, 0
    for percentile in range(99, 49, -1):
        rank = math.ceil(count * percentile / 100)  # nearest rank, from 1
        if count - rank >= 10:
            break
    return ordered[rank - 1], float(percentile), count


class Recorder:
    """Runs operations one at a time (a closed loop) and records each one.

    Every operation gets wall time (``perf_counter``) and CPU time
    (``process_time``) of this process; a wide gap between the two on a
    serial operation means the process waited for the CPU.  An operation
    fails if it raises or if its answer check returns False.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.ops: list[dict[str, Any]] = []
        self.failures: list[str] = []
        self.phase = "setup"

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op["ok"])

    def run(self, kind: str, action: Callable[[], Any], check: Callable[[Any], bool]) -> Any:
        """Time ``action()``, then check its result outside the timing."""
        op_id = len(self.ops)
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        scope = tracer.operation(op_id, kind) if traced else nullcontext()
        result: Any = None
        error: Optional[str] = None
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            with scope:
                result = action()
        except Exception:  # a failing operation is counted and the loop goes on
            error = traceback.format_exc()
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        if error is None and not check(result):
            error = f"wrong answer from {kind}"
        if error is not None and len(self.failures) < 5:
            self.failures.append(error)
            print(f"operation {op_id} ({kind}) failed: {error}", file=sys.stderr)
        self.ops.append(
            {
                "id": op_id,
                "kind": kind,
                "phase": self.phase,
                "traced": traced,
                "ok": error is None,
                "wall_ms": wall * 1000.0,
                "cpu_ms": cpu * 1000.0,
            }
        )
        return result if error is None else None

    def latencies(self, *kinds: str, phase: str = "loop", traced: Optional[bool] = None) -> list[float]:
        """Wall milliseconds of the successful operations of ``kinds``."""
        return [
            op["wall_ms"]
            for op in self.ops
            if op["kind"] in kinds
            and op["phase"] == phase
            and op["ok"]
            and (traced is None or op["traced"] == traced)
        ]
