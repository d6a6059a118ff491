"""Chunked (columnar) execution invariants.

Every physical operator streams via ``_produce_chunks()``; the chunk size
is an execution detail that must never change the produced relation or the
per-operator tuple counts.  These tests sweep batch sizes 1, 3 and 1024
over randomized and property-generated division workloads for every small-
and great-divide algorithm, pin the chunk alignment and round-trip invariants, and
check the dictionary-encoded divisor is consumed exactly once per open.
"""

import random

import pytest
from hypothesis import given, settings

from repro.errors import ReproError
from repro.physical import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    Chunk,
    RelationScan,
    execute_plan,
)
from repro.relation import Relation
from repro.relation.schema import Schema

from tests import strategies  # noqa: E402  (repo-root import, like tests.division)

BATCH_SIZES = (1, 3, 1024)


def _random_small_workload(seed):
    rng = random.Random(seed)
    dividend = Relation(
        ["a", "b"],
        [(rng.randrange(12), rng.randrange(6)) for _ in range(rng.randrange(1, 120))],
    )
    divisor = Relation(["b"], [(value,) for value in rng.sample(range(6), rng.randrange(1, 5))])
    return dividend, divisor


def _random_great_workload(seed):
    rng = random.Random(seed)
    dividend = Relation(
        ["a", "b"],
        [(rng.randrange(10), rng.randrange(6)) for _ in range(rng.randrange(1, 100))],
    )
    divisor = Relation(
        ["b", "c"],
        [(rng.randrange(6), rng.randrange(4)) for _ in range(rng.randrange(1, 30))],
    )
    return dividend, divisor


def _outcomes_across_batch_sizes(operator_class, dividend, divisor):
    outcomes = []
    for batch_size in BATCH_SIZES:
        plan = operator_class(RelationScan(dividend), RelationScan(divisor))
        outcomes.append(execute_plan(plan, batch_size=batch_size))
    return outcomes


class TestBatchSizeInvariance:
    """Identical quotients *and* identical per-operator tuple counts for
    batch sizes {1, 3, 1024} across every division algorithm."""

    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    @pytest.mark.parametrize("seed", range(5))
    def test_small_divide(self, algorithm, seed):
        dividend, divisor = _random_small_workload(seed)
        reference, *others = _outcomes_across_batch_sizes(
            SMALL_DIVIDE_ALGORITHMS[algorithm], dividend, divisor
        )
        for outcome in others:
            assert outcome.relation == reference.relation
            assert (
                outcome.statistics.tuples_by_operator
                == reference.statistics.tuples_by_operator
            )

    @pytest.mark.parametrize("algorithm", sorted(GREAT_DIVIDE_ALGORITHMS))
    @pytest.mark.parametrize("seed", range(5))
    def test_great_divide(self, algorithm, seed):
        dividend, divisor = _random_great_workload(seed)
        reference, *others = _outcomes_across_batch_sizes(
            GREAT_DIVIDE_ALGORITHMS[algorithm], dividend, divisor
        )
        for outcome in others:
            assert outcome.relation == reference.relation
            assert (
                outcome.statistics.tuples_by_operator
                == reference.statistics.tuples_by_operator
            )

    @pytest.mark.parametrize("algorithm", sorted(SMALL_DIVIDE_ALGORITHMS))
    @settings(max_examples=25, deadline=None)
    @given(dividend=strategies.dividends(), divisor=strategies.divisors())
    def test_small_divide_property(self, algorithm, dividend, divisor):
        """Property form: edge shapes (empty inputs, empty divisor) included."""
        from repro.division import small_divide

        if not len(dividend.schema.difference(divisor.schema)):
            return  # not a valid small divide (quotient schema empty)
        reference, *others = _outcomes_across_batch_sizes(
            SMALL_DIVIDE_ALGORITHMS[algorithm], dividend, divisor
        )
        assert reference.relation == small_divide(dividend, divisor)
        for outcome in others:
            assert outcome.relation == reference.relation
            assert (
                outcome.statistics.tuples_by_operator
                == reference.statistics.tuples_by_operator
            )


class TestChunkRowRoundTrip:
    """Chunk alignment and Relation ↔ chunk conversion invariants."""

    def test_aligned_is_zero_copy_for_same_order(self):
        schema = Schema.interned(("a", "b"))
        chunk = Chunk(schema, [(1, 2)])
        assert chunk.aligned(schema) is chunk
        assert chunk.aligned(Schema.interned(("a", "b"))) is chunk

    def test_aligned_permutes_tuples(self):
        chunk = Chunk(Schema.interned(("a", "b")), [(1, 2), (3, 4)])
        flipped = chunk.aligned(Schema.interned(("b", "a")))
        assert flipped.tuples == [(2, 1), (4, 3)]
        back = flipped.aligned(Schema.interned(("a", "b")))
        assert back.tuples == chunk.tuples

    def test_column_access(self):
        chunk = Chunk(Schema.interned(("a", "b")), [(1, 2), (3, 4)])
        assert chunk.column("a") == [1, 3]
        assert chunk.column("b") == [2, 4]

    @settings(max_examples=30, deadline=None)
    @given(relation=strategies.relations(("a", "b", "c")))
    def test_relation_chunk_round_trip(self, relation):
        """Relation → chunks → Relation.from_aligned is the identity."""
        scan = RelationScan(relation)
        scan.set_batch_size(3)
        tuples = [values for chunk in scan.chunks() for values in chunk.tuples]
        rebuilt = Relation.from_aligned(relation.schema, tuples)
        assert rebuilt == relation
        assert scan.tuples_out == len(relation)


class TestExecutorChunkConsumption:
    """The executor's hot loop consumes chunks; rows() stays equivalent."""

    def test_execute_matches_rows_shim(self):
        dividend, divisor = _random_small_workload(3)
        plan = SMALL_DIVIDE_ALGORITHMS["hash"](RelationScan(dividend), RelationScan(divisor))
        via_chunks = plan.execute()
        shim = SMALL_DIVIDE_ALGORITHMS["hash"](RelationScan(dividend), RelationScan(divisor))
        via_rows = Relation(shim.schema, list(shim.rows()))
        assert via_chunks == via_rows

    def test_rows_shim_counts_per_row(self):
        relation = Relation(["a"], [(i,) for i in range(10)])
        scan = RelationScan(relation)
        iterator = scan.rows()
        next(iterator)
        assert scan.tuples_out == 1  # partial consumption charges per row

    def test_divisor_scanned_once_per_execution(self):
        """Dictionary encoding happens at operator open: the divisor side is
        consumed exactly once (its scan emits exactly |divisor| tuples)."""
        dividend, divisor = _random_small_workload(4)
        for name, operator_class in SMALL_DIVIDE_ALGORITHMS.items():
            divisor_scan = RelationScan(divisor)
            plan = operator_class(RelationScan(dividend), divisor_scan)
            execute_plan(plan)
            assert divisor_scan.tuples_out == len(divisor), name

    def test_execute_plan_batch_size_argument(self):
        dividend, divisor = _random_small_workload(5)
        plan = SMALL_DIVIDE_ALGORITHMS["hash"](RelationScan(dividend), RelationScan(divisor))
        outcome = execute_plan(plan, batch_size=7)
        assert all(operator.batch_size == 7 for operator in plan.walk())
        assert outcome.relation == execute_plan(plan, batch_size=1024).relation


class TestBatchSizePlumbing:
    """repro.connect(batch_size=...) reaches the physical plan."""

    def test_connect_forwards_batch_size(self):
        import repro
        from repro.experiments.queries import Q2

        from repro.workloads import textbook_catalog

        db = repro.connect(textbook_catalog, batch_size=2)
        query = db.sql(Q2)
        result = query.run()
        assert len(result.relation)
        prepared, _hit = db._prepare(query.expression)
        assert all(operator.batch_size == 2 for operator in prepared.plan.walk())

    def test_connect_batch_size_does_not_change_counts(self):
        import repro
        from repro.experiments.queries import Q2 as sql

        from repro.workloads import textbook_catalog

        reference = repro.connect(textbook_catalog).sql(sql).run()
        for batch_size in BATCH_SIZES:
            db = repro.connect(textbook_catalog, batch_size=batch_size)
            outcome = db.sql(sql).run()
            assert outcome.relation == reference.relation
            assert (
                outcome.statistics.tuples_by_operator
                == reference.statistics.tuples_by_operator
            )

    def test_connect_rejects_nonpositive_batch_size(self):
        import repro

        with pytest.raises(ReproError):
            repro.connect(batch_size=0)

    def test_explain_analyze_respects_session_batch_size(self):
        import repro
        from repro.experiments.queries import Q2

        from repro.workloads import textbook_catalog

        db = repro.connect(textbook_catalog, batch_size=2)
        query = db.sql(Q2)
        assert "actual=" in query.explain(analyze=True)
        prepared, _hit = db._prepare(query.expression)
        assert all(operator.batch_size == 2 for operator in prepared.plan.walk())
