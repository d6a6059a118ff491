"""``prepare()``, ``explain()`` and ``analyze()`` on a saved store read no
table data.

A stored table's statistics memo starts from its file header.  The
data-dependent law conditions (Laws 11 and 12) consult it first; for the
paper's queries it settles the key question, so planning stays
metadata-only, and so does ``analyze()``.
"""

import pytest

from repro.api import connect
from repro.experiments import Q1, Q2, Q2_NOT_EXISTS, Q3
from repro.laws.conditions import attribute_is_key
from repro.relation import Relation
from repro.workloads.suppliers_parts import generate_catalog

QUERIES = {"Q1": Q1, "Q2": Q2, "Q3": Q3, "Q2_NOT_EXISTS": Q2_NOT_EXISTS}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("store")
    connect(generate_catalog(num_suppliers=60, num_parts=30, parts_per_supplier=12)).save(path)
    return path


def _loaded(db):
    return [name for name in db.tables if db.relation(name).is_loaded]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_prepare_and_explain_load_no_table(store, name):
    db = connect(store)
    db.sql(QUERIES[name]).prepare()
    assert _loaded(db) == []
    db.sql(QUERIES[name]).explain()
    assert _loaded(db) == []


def test_analyze_loads_no_table(store):
    db = connect(store)
    report = db.analyze()
    assert set(report.tables) == set(db.tables)
    assert report.tables["supplies"].cardinality == len(db.relation("supplies"))
    assert _loaded(db) == []


def _stored(tmp_path, rows):
    path = tmp_path / "keys"
    db = connect()
    db.add_table("t", Relation(["a", "b"], rows))
    db.save(path)
    return connect(path).relation("t")


@pytest.mark.parametrize(
    "rows, attributes, expected, loads",
    [
        ([(1, 1), (2, 1), (3, 2)], ["a"], True, False),  # a is unique: a key
        ([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)], ["a"], False, False),  # 3 values < 5 rows
        ([(1, 1), (2, 2), (3, 1), (3, 2)], ["a", "b"], True, True),  # 3·2 ≥ 4: undecided
    ],
)
def test_key_check_uses_header_statistics_first(tmp_path, rows, attributes, expected, loads):
    relation = _stored(tmp_path, rows)
    assert attribute_is_key(relation, attributes) is expected
    assert relation.is_loaded is loads
