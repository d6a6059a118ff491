"""The tuple paths of the relation core build no :class:`Row`.

A relation stores value tuples aligned with its schema; rows are views
built only where user code receives one.  These tests count every ``Row``
construction (``Row(...)`` and ``Row.from_schema``) while the tuple-only
operations run.
"""

import pytest

from repro.algebra import predicates as P
from repro.physical import Filter, ProjectOp, RelationScan, compile_plan, execute_plan
from repro.relation import Relation, Row


@pytest.fixture
def row_constructions(monkeypatch):
    """A one-element list holding the number of rows built so far."""
    count = [0]
    from_schema = Row.from_schema.__func__
    init = Row.__init__

    def counting_from_schema(cls, schema, values):
        count[0] += 1
        return from_schema(cls, schema, values)

    def counting_init(self, values):
        count[0] += 1
        init(self, values)

    monkeypatch.setattr(Row, "from_schema", classmethod(counting_from_schema))
    monkeypatch.setattr(Row, "__init__", counting_init)
    return count


def _relations():
    left = Relation(["a", "b"], [(i % 7, i) for i in range(40)])
    right = Relation(["b", "c"], [(i, i * 2) for i in range(0, 60, 3)])
    return left, right


def test_the_counter_sees_row_constructions(row_constructions):
    left, _right = _relations()
    assert len(list(left)) == 40
    Row({"a": 1})
    Row.from_schema(left.schema, (1, 2))
    assert row_constructions[0] == 42


def test_building_relations_builds_no_rows(row_constructions):
    Relation(["a", "b"], [(1, 2), (3, 4), [5, 6]])
    Relation(["a", "b"], [{"a": 1, "b": 2}, {"b": 4, "a": 3}])
    Relation.from_aligned(["a", "b"], [(1, 2)])
    Relation.from_columns({"a": [1, 2], "b": [3, 4]})
    assert row_constructions[0] == 0


def test_tuple_operators_build_no_rows(row_constructions):
    left, right = _relations()
    flipped = Relation(["b", "a"], [(b, a) for a, b in left.to_tuples()])
    left.aligned_tuples()
    left.project(["a"])
    left.natural_join(right)
    left.semijoin(right)
    left.union(flipped)
    left.difference(flipped)
    left.intersection(flipped)
    left.to_tuples(["b", "a"])
    left.to_set("a")
    assert len(left) == 40
    assert left == flipped
    assert hash(left) == hash(flipped)
    left.rename({"a": "x"}).product(right.rename({"b": "y", "c": "z"}))
    left.clustered(["a"])
    assert row_constructions[0] == 0


def test_executing_an_inlined_plan_builds_no_rows(row_constructions):
    left, _right = _relations()
    predicate = P.conjunction([P.greater_equal(P.attr("a"), 2), P.not_equals(P.attr("b"), 5)])
    plan = ProjectOp(Filter(RelationScan(left), predicate), ["a"])
    report = compile_plan(plan)
    assert report.segment_count == 1
    result = execute_plan(plan)
    assert result.relation == Relation(["a"], [(a,) for a in range(2, 7)])
    assert row_constructions[0] == 0


def test_callback_errors_are_not_reported_as_unhashable_values():
    """Relations reject unhashable values with a RelationError; a TypeError
    raised by a user predicate or aggregate must still surface as is."""
    from repro.errors import RelationError
    from repro.relation import aggregates

    relation = Relation(["a", "b"], [(1, "x"), (2, "y")])
    with pytest.raises(TypeError, match="not supported"):
        relation.select(lambda row: row["a"] < "x")
    with pytest.raises(TypeError, match="unsupported operand"):
        relation.group_by(["a"], {"s": aggregates.sum_of("b")})
    with pytest.raises(RelationError, match="hashable"):
        Relation(["a"], [([1],)])
