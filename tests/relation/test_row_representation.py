"""Invariants of the tuple-backed row representation.

The representation refactor (interned schema + aligned value tuple) must be
invisible to users of the ``Mapping`` API: hash/eq interop with plain
mappings, attribute-order-independent equality, full Mapping protocol
conformance, and lossless round-trips through :class:`Relation`.
"""

import pytest
from collections.abc import ItemsView, KeysView, Mapping, ValuesView

from hypothesis import given, strategies as st

from repro.errors import RelationError
from repro.relation import Relation, Row, Schema


class TestHashEqInterop:
    def test_equal_to_plain_dict(self):
        assert Row({"a": 1, "b": "x"}) == {"a": 1, "b": "x"}
        assert Row({"a": 1, "b": "x"}) == {"b": "x", "a": 1}

    def test_not_equal_to_dict_with_other_values(self):
        assert Row({"a": 1}) != {"a": 2}
        assert Row({"a": 1}) != {"a": 1, "b": 2}

    def test_not_equal_to_non_mapping(self):
        assert Row({"a": 1}) != (1,)
        assert Row({"a": 1}) != 1

    def test_dict_construction_round_trip(self):
        row = Row({"a": 1, "b": 2})
        assert Row(dict(row)) == row
        assert hash(Row(dict(row))) == hash(row)

    def test_row_usable_as_dict_key_alongside_equal_row(self):
        table = {Row({"a": 1, "b": 2}): "first"}
        table[Row({"b": 2, "a": 1})] = "second"
        assert len(table) == 1
        assert table[Row({"a": 1, "b": 2})] == "second"


class TestOrderIndependence:
    def test_equality_across_attribute_orders(self):
        assert Row({"a": 1, "b": 2}) == Row({"b": 2, "a": 1})

    def test_hash_equality_across_attribute_orders(self):
        assert hash(Row({"a": 1, "b": 2})) == hash(Row({"b": 2, "a": 1}))

    def test_three_attribute_permutations_collapse_in_sets(self):
        rows = {
            Row({"x": 1, "y": 2, "z": 3}),
            Row({"z": 3, "x": 1, "y": 2}),
            Row({"y": 2, "z": 3, "x": 1}),
        }
        assert len(rows) == 1

    def test_different_name_sets_never_equal(self):
        assert Row({"a": 1}) != Row({"b": 1})
        assert Row({"a": 1, "b": 2}) != Row({"a": 1, "c": 2})

    def test_none_is_a_legal_attribute_value(self):
        assert Row({"a": None}) == Row({"a": None})
        assert Row({"a": None}) != Row({"a": 0})


class TestMappingProtocol:
    def test_isinstance_mapping(self):
        assert isinstance(Row({"a": 1}), Mapping)

    def test_views(self):
        row = Row({"a": 1, "b": 2})
        assert isinstance(row.keys(), KeysView)
        assert isinstance(row.values(), ValuesView)
        assert isinstance(row.items(), ItemsView)
        assert set(row.keys()) == {"a", "b"}
        assert sorted(row.values()) == [1, 2]
        assert dict(row.items()) == {"a": 1, "b": 2}

    def test_get(self):
        row = Row({"a": 1})
        assert row.get("a") == 1
        assert row.get("z") is None
        assert row.get("z", 42) == 42

    def test_iteration_follows_declaration_order(self):
        assert list(Row({"b": 2, "a": 1})) == ["b", "a"]

    def test_len_and_contains(self):
        row = Row({"a": 1, "b": 2})
        assert len(row) == 2
        assert "a" in row and "z" not in row

    def test_unknown_attribute_raises_relation_error(self):
        with pytest.raises(RelationError, match="no attribute"):
            Row({"a": 1})["z"]


class TestTupleBackedInternals:
    def test_schema_is_interned(self):
        assert Row({"a": 1, "b": 2}).schema is Row({"a": 9, "b": 8}).schema
        assert Row({"a": 1}).schema is Schema.interned(("a",))

    def test_values_tuple_aligned_with_schema(self):
        row = Row({"b": 2, "a": 1})
        assert row.schema.names == ("b", "a")
        assert row.values_tuple == (2, 1)

    def test_from_schema_fast_path(self):
        schema = Schema.interned(("a", "b"))
        row = Row.from_schema(schema, (1, 2))
        assert row == Row({"a": 1, "b": 2})
        assert hash(row) == hash(Row({"b": 2, "a": 1}))
        assert row.schema is schema

    def test_from_schema_rejects_unhashable_values(self):
        # The row hash is lazy: the rejection happens when the row is first
        # hashed, and relations reject such tuples at construction.
        schema = Schema.interned(("a",))
        row = Row.from_schema(schema, ([1, 2],))
        with pytest.raises(RelationError, match="hashable"):
            hash(row)
        with pytest.raises(RelationError, match="hashable"):
            Relation.from_aligned(schema, [([1, 2],)])

    def test_relation_rows_share_the_relation_schema(self):
        relation = Relation(["a", "b"], [(1, 2), (3, 4), {"b": 6, "a": 5}])
        assert all(row.schema is relation.schema for row in relation)

    def test_relation_realigns_rows_with_other_attribute_order(self):
        row = Row({"b": 2, "a": 1})
        relation = Relation(["a", "b"], [row])
        (stored,) = relation.rows
        assert stored == row
        assert stored.values_tuple == (1, 2)


# ----------------------------------------------------------------------
# property-based round trips
# ----------------------------------------------------------------------

_VALUES = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.none(), st.booleans())


@given(
    rows=st.lists(st.tuples(_VALUES, _VALUES, _VALUES), max_size=20),
)
def test_relation_to_tuples_round_trip(rows):
    """Relation(attrs, rows).to_tuples() is the set of the input tuples."""
    attributes = ("a", "b", "c")
    relation = Relation(attributes, rows)
    assert relation.to_tuples(attributes) == set(rows)
    # And re-feeding the tuples reproduces the same relation.
    assert Relation(attributes, relation.to_tuples(attributes)) == relation


@given(rows=st.lists(st.tuples(_VALUES, _VALUES), max_size=15))
def test_row_dict_round_trip(rows):
    """Rows survive a round trip through plain dicts with equal hashes."""
    relation = Relation(("x", "y"), rows)
    for row in relation:
        clone = Row(dict(row))
        assert clone == row
        assert hash(clone) == hash(row)


@given(rows=st.lists(st.tuples(_VALUES, _VALUES), max_size=15))
def test_attribute_order_invariance_of_relations(rows):
    """The same data under permuted schemas compares equal."""
    forward = Relation(("x", "y"), rows)
    backward = Relation(("y", "x"), [(y, x) for x, y in rows])
    assert forward == backward
    assert forward.rows == backward.rows


@given(
    rows=st.lists(st.tuples(_VALUES, _VALUES, _VALUES), max_size=15),
    order=st.permutations((0, 1, 2)),
)
def test_permuted_relations_compare_and_hash_equal(rows, order):
    """Same content over a permuted attribute order: equal, equal hashes,
    and rows of either relation are members of the other."""
    names = ("x", "y", "z")
    forward = Relation(names, rows)
    permuted = Relation(
        tuple(names[i] for i in order), [tuple(row[i] for i in order) for row in rows]
    )
    assert forward == permuted
    assert hash(forward) == hash(permuted)
    for row in rows:
        mapping = dict(zip(names, row))
        assert Row(mapping) in permuted
        assert Row({name: mapping[name] for name in reversed(names)}) in forward
    assert all(row in forward for row in permuted)
