"""Spans around the engine's layer entry points, recorded from outside it.

The traced run replaces each function in :data:`TARGETS` with a wrapper
that records a span while the tracer is enabled, and restores the
originals afterwards.  Nothing inside ``src/`` is changed.  Two targets
are internal seams rather than public functions: ``Database._prepare`` is
what both ``Query.prepare`` and ``Query.run`` call to get a plan, and
``RewriteContext.evaluate`` is where law conditions read table data.

A span is ``[id, parent id, operation id, name, start, end, attributes]``
with wall-clock times from ``perf_counter``.  The enclosing operation
(one query, edit, read, save or open) is the root span, named
``op.<kind>``.  A span's self time is its duration minus its children's.
A name with three parts (``optimizer.rewrite.law_data``) is a sub-span:
its self time counts toward its parent layer's figure and is also
reported on its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: (module, attribute path, span name, counter hook name or None)
TARGETS = (
    ("repro.sql.translator", "SQLTranslator.translate", "sql.translate", None),
    ("repro.algebra.expressions", "Expression.canonical", "algebra.canonicalize", None),
    ("repro.api.database", "Database._prepare", "api.prepare", None),
    ("repro.optimizer.statistics", "TableStatistics.from_relation", "optimizer.statistics", None),
    ("repro.optimizer.optimizer", "Optimizer.rewrite", "optimizer.rewrite", None),
    ("repro.laws.base", "RewriteContext.evaluate", "optimizer.rewrite.law_data", None),
    ("repro.optimizer.optimizer", "Optimizer.cost_report", "optimizer.cost", None),
    ("repro.optimizer.optimizer", "Optimizer.plan", "optimizer.plan", None),
    ("repro.api.database", "execute_plan", "physical.execute", "plan_counters"),
    ("repro.api.database", "Database.insert", "views.edit", None),
    ("repro.api.database", "Database.delete", "views.edit", None),
    ("repro.views.view", "MaintainedView.run", "views.read", None),
    ("repro.views.view", "MaintainedView.rebuild", "views.build", None),
    ("repro.api.database", "Database.save", "storage.save", None),
    ("repro.storage.store", "load_store", "storage.open", None),
)

ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


def plan_counters(args: tuple, _result: Any) -> dict[str, int]:
    """Storage blocks and compiled segments of the plan just executed."""
    from repro.storage.scan import StoredScan

    read = skipped = segments = 0
    for operator in args[0].walk():
        if isinstance(operator, StoredScan):
            read += operator.blocks_total - operator.blocks_skipped
            skipped += operator.blocks_skipped
        # The segment compiler marks the root of each fused segment.
        if getattr(operator, "_compiled_producer", None) is not None:
            segments += 1
    return {"blocks_read": read, "blocks_skipped": skipped, "compiled_segments": segments}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.enabled = False
        self._stack: list[int] = []
        self._operation: Optional[int] = None
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------
    def install(self) -> None:
        for module_name, path, span_name, hook_name in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = inspect.getattr_static(owner, attribute)
            hook = globals()[hook_name] if hook_name else None
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrap(original.__func__, span_name, hook))
            else:
                wrapped = self._wrap(original, span_name, hook)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function: Callable, name: str, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled or tracer._operation is None:
                return function(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = function(*args, **kwargs)
                if hook is not None:
                    span[ATTRS] = hook(args, result)
                return result
            finally:
                tracer._close(span)

        return traced

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> list[Any]:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._operation, name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span: list[Any]) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, operation_id: int, kind: str) -> Iterator[None]:
        """Root span of one benchmark operation; layer spans nest inside."""
        self._operation = operation_id
        span = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(span)
            self._operation = None

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time (s) per span, indexed by span id."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def by_operation(self) -> dict[int, dict[str, dict[str, float]]]:
        """operation id → layer figure name → {"ms": self ms, counters...}.

        Sub-span self time is added to its parent layer's figure too.
        """
        own = self.self_times()
        result: dict[int, dict[str, dict[str, float]]] = {}
        for span, seconds in zip(self.spans, own):
            figures = result.setdefault(span[OP], {})
            names = [span[NAME]]
            if span[NAME].count(".") == 2:
                names.append(span[NAME].rsplit(".", 1)[0])
            for name in names:
                entry = figures.setdefault(name, {"ms": 0.0})
                entry["ms"] += seconds * 1000.0
                for key, value in (span[ATTRS] or {}).items():
                    entry[key] = entry.get(key, 0) + value
        return result

    def coverage(self, operation_ids: set[int]) -> float:
        """Median share of an operation's time covered by layer spans."""
        own = self.self_times()
        shares = [
            1.0 - own[span[ID]] / (span[END] - span[START])
            for span in self.spans
            if span[PARENT] is None and span[OP] in operation_ids and span[END] > span[START]
        ]
        return statistics.median(shares) if shares else 0.0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self milliseconds."""
        own = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for span, seconds in zip(self.spans, own):
            entry = table.setdefault(span[NAME], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += (span[END] - span[START]) * 1000.0
            entry["self_ms"] += seconds * 1000.0
        return dict(sorted(table.items(), key=lambda item: -item[1]["self_ms"]))

    def export(self) -> list[dict[str, Any]]:
        return [
            {
                "id": span[ID],
                "parent": span[PARENT],
                "operation": span[OP],
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                **({"counters": span[ATTRS]} if span[ATTRS] else {}),
            }
            for span in self.spans
        ]
