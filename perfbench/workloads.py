"""The three workloads: what each runs, in which session, and what it reports.

One process and one client drive the engine in a closed loop: the next
operation starts only after the previous one has finished.  Every answer
is checked against :class:`dataset.Reference`.

Each workload runs rounds until its time is up.  A round makes single-row
edits on the *writer* session, each followed by a read of its maintained
view ``q1`` (a great divide over Q1), and runs queries on the *reader*
session.  Every few steps the writer saves durably to a checkpoint
directory, and a fresh session opens and answers Q2.

* ``adhoc-cold`` — the reader is an in-memory session with the plan and
  result caches off, and runs Q1, Q2, Q3 and Q2_NOT_EXISTS every round, so
  every query pays translate → canonicalize → rewrite → cost → plan →
  execute.  The writer is a second in-memory session over its own copy of
  the data (2 edits a round).  The fresh session is in memory too.
* ``store-scan`` — the reader is a saved store opened by path with
  ``workers=2``, plan cache on and result cache off, and runs the same
  cycle.  Plans are cached, so the work is block decoding in ``StoredScan``
  and the partition-parallel exchange.  The writer opens the same store
  separately (2 edits a round); the fresh session opens the store.
* ``store-churn`` — reader and writer are one session over a saved store,
  with default caches.  A round is 10 edit steps and one ad hoc query
  (Q1, Q2, Q3 and Q2_NOT_EXISTS in turn) whose plan and cached result the
  edits have just invalidated; every 100th step saves, and the fresh
  session opens the saved copy.

Spreading the writes and opens over the whole run, rather than measuring
them in one burst, averages them over the same stretch of machine time as
the queries.  On a shared host the speed of a process drifts by ±20% over
a few seconds, so a burst would carry that drift into its metrics.

Saves go to a checkpoint directory, not over the store a session has
open: saving over an open store deletes block files that the session's
lazy tables still read from, and later scans of those tables fail.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import dataset
import repro
from metrics import Recorder, median, tail
from repro.experiments.queries import Q1, Q2, Q2_NOT_EXISTS, Q3
from repro.storage import TableReader
from tracing import Tracer

QUERIES = {"q1": Q1, "q2": Q2, "q3": Q3, "q2ne": Q2_NOT_EXISTS}
COLUMNS = {
    "q1": ("s_no", "color"),
    "q2": ("s_no",),
    "q3": ("s_no", "color"),
    "q2ne": ("s_no",),
}

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Full passes over the stored ``supplies`` file in the traced run.
DECODE_PASSES = 5
#: In ``store-churn``, steps between ad hoc queries.
QUERY_EVERY = 10

#: Per-query layer times: (metric, span name).  Each is the layer's self
#: time within one query operation; sub-spans fold into their parent.
SPAN_TIMES = (
    ("sql.translate_ms", "sql.translate"),
    ("algebra.canonicalize_ms", "algebra.canonicalize"),
    ("api.prepare_ms", "api.prepare"),
    ("optimizer.statistics_ms", "optimizer.statistics"),
    ("optimizer.rewrite_ms", "optimizer.rewrite"),
    ("optimizer.law_data_ms", "optimizer.rewrite.law_data"),
    ("optimizer.cost_ms", "optimizer.cost"),
    ("optimizer.plan_ms", "optimizer.plan"),
    ("physical.execute_ms", "physical.execute"),
)
#: Per-query counters read from the executed plan: (metric, counter).
PLAN_COUNTERS = (
    ("physical.compiled_segments", "compiled_segments"),
    ("storage.blocks_read", "blocks_read"),
    ("storage.blocks_skipped", "blocks_skipped"),
)
#: Per-query figures read from the QueryResult: (metric, unit).
QUERY_COUNTS = (
    ("optimizer.rules_fired", "count"),
    ("optimizer.parallel_operators", "count"),
    ("physical.tuples_total", "count"),
    ("physical.max_intermediate", "count"),
    ("parallel.worker_ms", "ms"),
    ("parallel.coordinator_ms", "ms"),
    ("parallel.tasks_retried", "count"),
    ("parallel.tasks_degraded", "count"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Whether the data is saved and opened by path.
    stored: bool
    #: Options of every session the workload opens.
    options: dict[str, Any] = field(default_factory=dict)
    #: Edit steps per round; queries then follow as described above.
    edits_per_round: int = 2
    #: Steps between saves (each followed by a fresh-session open).
    save_every: int = 4
    #: Whether reader and writer are one session (ad hoc queries every
    #: 10th step instead of a full query cycle per round).
    churn: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "adhoc-cold",
            "in memory, plan and result caches off: every query pays the whole "
            "optimizer (rewrite, cost, plan) and the executor",
            stored=False,
            options={"cache_size": 0, "result_cache_size": 0},
        ),
        Workload(
            "store-scan",
            "saved store, workers=2, plans cached and results not: block decoding "
            "and the parallel exchange dominate, the optimizer is bypassed",
            stored=True,
            options={"workers": 2, "result_cache_size": 0},
        ),
        Workload(
            "store-churn",
            "saved store, default caches, maintained view: single-row edits beside "
            "view reads, re-planned ad hoc queries and durable saves",
            stored=True,
            edits_per_round=10,
            save_every=100,
            churn=True,
        ),
    )
}


def answer(result: Any, kind: str) -> set[tuple[Any, ...]]:
    return set(result.relation.to_tuples(COLUMNS[kind]))


class Bench:
    """One run of one workload."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        work_dir: str,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.recorder = Recorder(tracer)
        self.store = os.path.join(work_dir, "store")
        self.checkpoint = os.path.join(work_dir, "checkpoint")
        # Picks the edited rows; a stream apart from the data generator's.
        self.rng = random.Random(seed * 7919 + 1)
        self.data: Optional[dataset.Dataset] = None
        #: Expected answers of the reader (unchanged data) and expected
        #: state of the writer; one object when they are one session.
        self.answers: Optional[dataset.Reference] = None
        self.state: Optional[dataset.Reference] = None
        self.source: Any = None
        self.db: Any = None
        self.writer: Any = None
        self.view: Any = None
        self.setup_seconds: list[float] = []
        self.loop_seconds = 0.0
        self.cache_info: Any = None
        self.loaded_by_prepare: dict[str, int] = {}
        self.saved_tuples = 0
        self.tails: dict[str, tuple[float, float, int]] = {}
        self._quotient_rows: list[tuple[str, str]] = []
        self._all_rows: list[tuple[str, str]] = []
        self._deleted: Optional[tuple[str, str]] = None
        self._unsaved = False
        self._next_query = 0

    # -- set-up ---------------------------------------------------------------
    def setup(self, repeats: int) -> None:
        """Set up ``repeats`` times, keeping the last; each one is timed.

        The reference answers are the checker's work, not the engine's, so
        they come from an untimed generation of the same seeded data.
        """
        generated = dataset.generate(self.seed)
        self.answers = dataset.Reference(generated)
        self.state = self.answers if self.workload.churn else dataset.Reference(generated)
        self._quotient_rows = sorted(
            (supplier, part)
            for supplier, color in self.answers.q1
            for part in self.answers.parts_of[color]
        )
        self._all_rows = list(generated.supplies)
        for _ in range(repeats):
            self.db = self.writer = self.view = self.source = None
            gc.collect()
            shutil.rmtree(self.store, ignore_errors=True)
            start = time.perf_counter()
            self._setup_once()
            self.setup_seconds.append(time.perf_counter() - start)

    def _setup_once(self) -> None:
        """Generate the data, save the store, open the sessions, build the
        view, and run each query once."""
        workload = self.workload
        self.data = dataset.generate(self.seed)
        catalog = dataset.build_catalog(self.data)
        if workload.stored:
            repro.connect(catalog).save(self.store)
            self.source = self.store
        else:
            self.source = catalog
        self.db = repro.connect(self.source, **workload.options)
        if workload.churn:
            self.writer = self.db
        else:
            # Its own copy: edits replace tables in the catalog they run on.
            own = self.store if workload.stored else dataset.build_catalog(self.data)
            self.writer = repro.connect(own, **workload.options)
        self.build_view()
        for kind in QUERIES:
            self.query(kind)

    # -- operations -----------------------------------------------------------
    def query(self, kind: str) -> None:
        expected = self.answers.answer(kind)
        result = self.recorder.run(
            kind,
            lambda: self.db.sql(QUERIES[kind]).run(),
            lambda result: answer(result, kind) == expected,
        )
        if result is not None:
            stats = result.statistics
            worker_ms = stats.worker_seconds * 1000.0
            self.recorder.ops[-1]["counts"] = {
                "optimizer.rules_fired": len(result.rules_fired),
                "optimizer.parallel_operators": sum(
                    1 for decision in result.decisions if decision.chosen.workers > 1
                ),
                "physical.tuples_total": stats.total_tuples,
                "physical.max_intermediate": stats.max_intermediate,
                "parallel.worker_ms": worker_ms,
                "parallel.coordinator_ms": (
                    stats.elapsed_seconds * 1000.0 - worker_ms if worker_ms else 0.0
                ),
                "parallel.tasks_retried": stats.tasks_retried,
                "parallel.tasks_degraded": stats.tasks_degraded,
            }

    def open_and_query(self) -> None:
        """A fresh session: connect, then answer Q2."""
        if self.workload.churn:
            source, expected = self.checkpoint, self.state.q2
        else:
            source, expected = self.source, self.answers.q2
        options = self.workload.options

        def action():
            return repro.connect(source, **options).sql(Q2).run()

        self.recorder.run("open", action, lambda r: answer(r, "q2") == expected)

    def build_view(self) -> None:
        def action():
            self.view = self.writer.create_view("q1", Q1)
            return self.view.run()

        self.recorder.run("view_build", action, lambda r: answer(r, "q1") == self.state.q1)

    def edit(self, delete: bool, row: tuple[str, str]) -> bool:
        if delete:
            action = lambda: self.writer.delete("supplies", [row])  # noqa: E731
        else:
            action = lambda: self.writer.insert("supplies", [row])  # noqa: E731
        if self.recorder.run("edit", action, lambda result: result.changed) is None:
            return False
        (self.state.delete if delete else self.state.insert)(row)
        self._unsaved = True
        return True

    def read_view(self) -> None:
        self.recorder.run(
            "view_read", self.view.run, lambda r: answer(r, "q1") == self.state.q1
        )

    def save(self) -> None:
        self.recorder.run("save", lambda: self.writer.save(self.checkpoint), lambda path: True)
        self._unsaved = False
        self.saved_tuples = len(self.data.parts) + sum(
            len(parts) for parts in self.state.supplied.values()
        )

    def step(self, number: int) -> bool:
        """One edit step.  Even steps delete a row, odd steps re-insert it,
        and each edit is followed by a view read.  Half of the deleted rows
        support a Q1 answer, so the maintained quotient really changes;
        saves fall on even steps, so a saved state lacks one row."""
        if number % 2 == 0:
            rows = self._quotient_rows if self.rng.random() < 0.5 else self._all_rows
            self._deleted = self.rng.choice(rows)
            ok = self.edit(True, self._deleted)
        else:
            ok = self.edit(False, self._deleted)
        if not ok:
            return False  # the expected state is unknown from here on
        self.read_view()
        if self.workload.churn and number % QUERY_EVERY == 0:
            kinds = list(QUERIES)
            self.query(kinds[self._next_query % len(kinds)])
            self._next_query += 1
        if number and number % self.workload.save_every == 0:
            self.save()
            self.open_and_query()
        return True

    # -- phases ---------------------------------------------------------------
    def timed_loop(self) -> None:
        """Run rounds for ``seconds``.  In a traced run, untraced and traced
        rounds alternate, so both see the same conditions; ``store-churn``
        alternates blocks of four rounds, so that each block holds each of
        its four ad hoc queries."""
        self.recorder.phase = "loop"
        workload, tracer = self.workload, self.tracer
        block = len(QUERIES) if workload.churn else 1
        start = time.perf_counter()
        round_number = 0
        while time.perf_counter() - start < self.seconds:
            if tracer is not None:
                tracer.enabled = (round_number // block) % 2 == 1
            first = round_number * workload.edits_per_round
            for number in range(first, first + workload.edits_per_round):
                if not self.step(number):
                    raise RuntimeError("an edit failed; the expected state is unknown")
            if not workload.churn:
                for kind in QUERIES:
                    self.query(kind)
            round_number += 1
        self.loop_seconds = time.perf_counter() - start
        self.cache_info = self.db.cache_info()
        if tracer is not None:
            tracer.enabled = True

    def trace_probes(self) -> None:
        """Prepare on fresh sessions, and raw passes over the stored table."""
        self.recorder.phase = "probe"
        for kind, text in QUERIES.items():

            def action(text=text):
                session = repro.connect(self.source, **self.workload.options)
                session.sql(text).prepare()
                return sum(
                    1
                    for name in session.tables
                    if getattr(session.relation(name), "is_loaded", False)
                )

            loaded = self.recorder.run(f"prepare.{kind}", action, lambda n: n is not None)
            self.loaded_by_prepare[kind] = loaded or 0
        path = repro.connect(self.checkpoint).relation("supplies").reader.path
        expected = self.saved_tuples - len(self.data.parts)
        for _ in range(DECODE_PASSES):
            self.recorder.run(
                "decode",
                lambda: sum(len(block) for _meta, block in TableReader(path).iter_blocks()),
                lambda count: count == expected,
            )

    def durability_check(self) -> None:
        """Reopen the last save in a fresh session: every acknowledged edit
        must be there, and so must view ``q1``."""
        self.recorder.phase = "check"
        expected = (set(self.data.parts), self.state.supplies(), set(self.state.q1))

        def action():
            session = repro.connect(self.checkpoint)
            return (
                set(session.relation("parts").to_tuples(("p_no", "color"))),
                set(session.relation("supplies").to_tuples(("s_no", "p_no"))),
                answer(session.view("q1").run(), "q1"),
            )

        self.recorder.run("durability", action, lambda got: got == expected)

    def run(self, traced: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = True
        self.setup(1 if traced else SETUP_REPEATS)
        self.timed_loop()
        self.recorder.phase = "check"
        if self._unsaved:
            self.save()
        if traced:
            self.trace_probes()
        self.durability_check()

    # -- results --------------------------------------------------------------
    def end_to_end(self) -> dict[str, tuple[float, str]]:
        recorder = self.recorder
        loop_ok = sum(1 for op in recorder.ops if op["phase"] == "loop" and op["ok"])
        query_tail = tail(recorder.latencies(*QUERIES))
        edit_tail = tail(recorder.latencies("edit"))
        self.tails = {"query_tail_ms": query_tail, "edit_tail_ms": edit_tail}
        metrics = {
            "setup_s": (median(self.setup_seconds), "s"),
            "ops_per_s": (loop_ok / self.loop_seconds, "1/s"),
        }
        for kind in QUERIES:
            metrics[f"{kind}_p50_ms"] = (median(recorder.latencies(kind)), "ms")
        metrics["query_tail_ms"] = (query_tail[0], "ms")
        metrics["open_p50_ms"] = (median(recorder.latencies("open")), "ms")
        metrics["edit_p50_ms"] = (median(recorder.latencies("edit")), "ms")
        metrics["edit_tail_ms"] = (edit_tail[0], "ms")
        metrics["view_read_p50_ms"] = (
            median(recorder.latencies("view_read")),
            "ms",
        )
        metrics["save_p50_ms"] = (median(recorder.latencies("save")), "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return metrics

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The traced run's per-layer figures (see README.md for the map
        from each figure to the end-to-end metric it should move)."""
        recorder, tracer = self.recorder, self.tracer
        figures = tracer.by_operation()
        traced_loop = [
            op for op in recorder.ops if op["phase"] == "loop" and op["traced"] and op["ok"]
        ]

        def figure(op: dict[str, Any], span: str, key: str = "ms") -> float:
            return figures.get(op["id"], {}).get(span, {}).get(key, 0)

        metrics: dict[str, tuple[float, str]] = {}
        for kind in QUERIES:
            ops = [op for op in traced_loop if op["kind"] == kind]
            for metric, span in SPAN_TIMES:
                metrics[f"{kind}.{metric}"] = (median([figure(op, span) for op in ops]), "ms")
            for metric, key in PLAN_COUNTERS:
                values = [figure(op, "physical.execute", key) for op in ops]
                metrics[f"{kind}.{metric}"] = (median(values), "count")
            for metric, unit in QUERY_COUNTS:
                metrics[f"{kind}.{metric}"] = (median([op["counts"][metric] for op in ops]), unit)
            metrics[f"{kind}.storage.tables_loaded_by_prepare"] = (
                self.loaded_by_prepare[kind],
                "count",
            )

        def kind_ms(kind: str, span: str) -> float:
            ops = [op for op in recorder.ops if op["kind"] == kind and op["traced"] and op["ok"]]
            return median([figure(op, span) for op in ops])

        opened = [
            figure(op, "storage.open")
            for op in recorder.ops
            if op["traced"] and "storage.open" in figures.get(op["id"], {})
        ]
        saved_bytes = sum(entry.stat().st_size for entry in os.scandir(self.checkpoint))
        loop_ops = [op for op in recorder.ops if op["phase"] == "loop"]
        metrics.update(
            {
                "api.plan_cache_hit_rate": (self.cache_info.hit_rate, "ratio"),
                "api.result_cache_hit_rate": (self.cache_info.result_hit_rate, "ratio"),
                "storage.open_ms": (median(opened), "ms"),
                "storage.decode_ms": (median(recorder.latencies("decode", phase="probe")), "ms"),
                "storage.save_ms": (kind_ms("save", "storage.save"), "ms"),
                "storage.save_statistics_ms": (kind_ms("save", "optimizer.statistics"), "ms"),
                "storage.bytes_per_tuple": (saved_bytes / self.saved_tuples, "bytes"),
                "views.build_ms": (kind_ms("view_build", "views.build"), "ms"),
                "views.edit_ms": (kind_ms("edit", "views.edit"), "ms"),
                "views.read_ms": (kind_ms("view_read", "views.read"), "ms"),
                "views.deltas_applied": (self.view.deltas_applied, "count"),
                "trace.coverage": (tracer.coverage({op["id"] for op in traced_loop}), "ratio"),
                "trace.overhead": (self.trace_overhead(), "ratio"),
                "host.cpu_per_wall": (
                    sum(op["cpu_ms"] for op in loop_ops) / sum(op["wall_ms"] for op in loop_ops),
                    "ratio",
                ),
                "error_rate": (recorder.failed / recorder.attempted, "ratio"),
            }
        )
        return metrics

    def trace_overhead(self) -> float:
        """Traced against untraced rounds of the same loop: per operation
        kind, median traced latency over median untraced latency, weighted
        by the number of traced operations."""
        traced_total = plain_total = 0.0
        for kind in {op["kind"] for op in self.recorder.ops if op["phase"] == "loop"}:
            traced = self.recorder.latencies(kind, traced=True)
            plain = self.recorder.latencies(kind, traced=False)
            if traced and plain:
                traced_total += len(traced) * median(traced)
                plain_total += len(traced) * median(plain)
        return traced_total / plain_total - 1.0 if plain_total else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
