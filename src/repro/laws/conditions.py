"""Precondition predicates used by the laws (Section 5 of the paper).

These functions operate on *relation values*; the rewrite rules call them
through :class:`~repro.laws.base.RewriteContext` when they are allowed to
inspect data, and the tests call them directly to exercise both the
positive and the negative cases (e.g. Figure 5, where condition ``c1`` is
violated).
"""

from __future__ import annotations

from math import prod
from typing import Any, Optional

from repro.division.schemas import small_divide_schemas
from repro.optimizer.statistics import TableStatistics
from repro.relation.relation import Relation
from repro.relation.schema import AttributeNames, Schema, as_schema

__all__ = [
    "condition_c1",
    "condition_c2",
    "projections_disjoint",
    "is_superset_of",
    "inclusion_holds",
    "attribute_is_key",
]


def condition_c1(part1: Relation, part2: Relation, divisor: Relation) -> bool:
    """Condition ``c1(r1', r1'')`` of Law 2.

    For every quotient candidate ``a`` appearing in *both* dividend
    partitions, either one of the partitions already contains the whole
    divisor in ``a``'s group, or even the union of the two groups does not —
    i.e. the quotient membership of ``a`` is decided identically with or
    without the union.
    """
    schemas = small_divide_schemas(part1, divisor)
    divisor_values = divisor.to_tuples(schemas.b)

    def groups(relation: Relation) -> dict[Any, set[tuple[Any, ...]]]:
        a_of = relation.schema.key_getter(schemas.a)
        b_of = relation.schema.tuple_getter(schemas.b)
        grouped: dict[Any, set[tuple[Any, ...]]] = {}
        for values in relation.tuples:
            grouped.setdefault(a_of(values), set()).add(b_of(values))
        return grouped

    groups1, groups2 = groups(part1), groups(part2)
    for key in groups1.keys() & groups2.keys():
        group1 = groups1[key]
        group2 = groups2[key]
        in_first = divisor_values <= group1
        in_second = divisor_values <= group2
        in_union = divisor_values <= (group1 | group2)
        if not (in_first or in_second or not in_union):
            return False
    return True


def condition_c2(part1: Relation, part2: Relation, quotient_attributes: AttributeNames) -> bool:
    """Condition ``c2(r1', r1'')`` of Law 2: disjoint quotient candidates.

    ``π_A(r1') ∩ π_A(r1'') = ∅`` — stricter than ``c1`` but cheap to check
    (and trivially guaranteed by range partitioning on ``A``).
    """
    return projections_disjoint(part1, part2, quotient_attributes)


def projections_disjoint(left: Relation, right: Relation, attributes: AttributeNames) -> bool:
    """``π_attributes(left) ∩ π_attributes(right) = ∅`` (used by Laws 7 and 13)."""
    return left.to_tuples(attributes).isdisjoint(right.to_tuples(attributes))


def is_superset_of(left: Relation, right: Relation) -> bool:
    """``left ⊇ right`` over identical schemas (precondition of Law 6)."""
    if left.schema != right.schema:
        return False
    return right.to_tuples(left.schema) <= left.tuples


def inclusion_holds(source: Relation, target: Relation, attributes: AttributeNames) -> bool:
    """``π_attributes(source) ⊆ π_attributes(target)`` (Law 9 / Law 12 FK check)."""
    return source.to_tuples(attributes) <= target.to_tuples(attributes)


def attribute_is_key(relation: Relation, attributes: AttributeNames) -> bool:
    """True if ``attributes`` functionally determine the whole tuple.

    Laws 11 and 12 require the dividend to be the output of a grouping,
    which makes the grouping attributes a key; when the dividend is a base
    table this data-level check is the fallback for a missing declaration.
    The relation is first judged from its exact statistics when they are
    already known (a session's tables, a stored table's header), so the
    check hashes no key and reads no block when those settle it.
    """
    schema = as_schema(attributes)
    relation.schema.require(schema, "key check")
    statistics = TableStatistics.known(relation)
    if statistics is not None:
        verdict = _key_from_statistics(statistics, schema.names)
        if verdict is not None:
            return verdict
    return _key_from_data(relation, schema)


def _key_from_data(relation: Relation, schema: Schema) -> bool:
    """The data fallback: hashes every tuple's key (bare group keys, not
    ``to_tuples``' 1-tuples)."""
    keys = set(map(relation.schema.key_getter(schema), relation.tuples))
    return len(keys) == len(relation)


def _key_from_statistics(statistics: TableStatistics, names: tuple[str, ...]) -> Optional[bool]:
    """Settle the key question from exact statistics, or ``None``.

    One attribute with as many distinct values as there are rows proves a
    key; fewer value combinations than rows proves there is none.
    """
    cardinality = statistics.cardinality
    distinct = [statistics.distinct_values.get(name) for name in names]
    if None in distinct:
        return None
    if cardinality in distinct:
        return True
    if prod(distinct) < cardinality:
        return False
    return None
