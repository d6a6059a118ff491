"""Exact statistics memoized per relation and maintained per edit.

``TableStatistics.from_relation`` keeps its result on the (immutable)
relation, and ``Database.insert``/``delete`` hand the per-column value
counts of the old relation to the new one, updated by the effective delta.
Whatever the edit history, the statistics a session plans with must equal
a fresh scan of a copy with the same scan order.
"""

import pickle
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.experiments import Q2, Q2_NOT_EXISTS
from repro.laws import conditions
from repro.optimizer import TableStatistics
from repro.relation import NULL, Relation
from repro.workloads.suppliers_parts import generate_catalog


def fresh_copy(relation):
    """An equal relation with the same scan order and no cached state."""
    relation.aligned_tuples()
    return pickle.loads(pickle.dumps(relation))


def fresh_statistics(relation):
    return TableStatistics.from_relation(fresh_copy(relation))


def planned_statistics(db, name):
    """The statistics the session plans ``name`` with (refreshed lazily)."""
    db.table(name).prepare()
    return db.optimizer.statistics.table(name)


# ----------------------------------------------------------------------
# exactness under any edit sequence
# ----------------------------------------------------------------------
values = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["x", "y", None, NULL, 2.5]),
)
rows = st.lists(st.tuples(values, values), max_size=6)
operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "reinsert", "delete_all", "replace"]),
        rows,
        st.booleans(),  # plan (and check) after this edit
    ),
    max_size=12,
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=rows, clustered=st.booleans(), script=operations)
def test_statistics_stay_exact_under_any_edit_sequence(base, clustered, script):
    relation = Relation(["a", "b"], base)
    if clustered:
        relation = relation.clustered()
    db = connect({"t": relation})
    assert planned_statistics(db, "t") == fresh_statistics(db.relation("t"))
    deleted = []
    for operation, batch, check in script:
        if operation == "insert":
            db.insert("t", batch)
        elif operation == "delete":
            deleted.extend(db.delete("t", batch + deleted[:1]).deleted.tuples)
        elif operation == "reinsert":
            db.insert("t", deleted)
            deleted.clear()
        elif operation == "delete_all":
            deleted.extend(db.delete("t", lambda row: True).deleted.tuples)
        else:
            db.replace_table("t", Relation(["a", "b"], batch))
        if check:
            assert planned_statistics(db, "t") == fresh_statistics(db.relation("t"))
    assert planned_statistics(db, "t") == fresh_statistics(db.relation("t"))


def test_edits_hand_the_counts_on_instead_of_rescanning(monkeypatch):
    from repro.optimizer import statistics as module

    db = connect({"t": Relation(["a", "b"], [(i, i % 7) for i in range(200)])})
    db.delete("t", [(0, 0)])
    planned_statistics(db, "t")  # the first edited relation is scanned once
    scans = []
    counter = module.Counter
    monkeypatch.setattr(module, "Counter", lambda *args: scans.append(args) or counter(*args))
    planned = []
    for i in range(1, 20):
        db.delete("t", [(i, i % 7)])
        db.insert("t", [(1000 + i, 3)])
        planned.append((planned_statistics(db, "t"), db.relation("t")))
    assert scans == []
    monkeypatch.undo()
    for statistics, relation in planned:
        assert statistics == fresh_statistics(relation)


def test_stored_table_memo_comes_from_the_header(tmp_path):
    connect({"t": Relation(["a"], [(i,) for i in range(50)])}).save(tmp_path / "db")
    relation = connect(tmp_path / "db").relation("t")
    assert TableStatistics.known(relation) is not None
    assert TableStatistics.from_relation(relation) is TableStatistics.known(relation)
    assert not relation.is_loaded


# ----------------------------------------------------------------------
# caches are not part of the value
# ----------------------------------------------------------------------
def _edited_with_counts():
    """A relation made by an edit whose statistics were gathered: it holds
    both the memo and the column counts."""
    db = connect({"t": Relation(["a", "b"], [(i, i % 3) for i in range(30)])})
    db.delete("t", [(0, 0)])
    planned_statistics(db, "t")
    relation = db.relation("t")
    assert TableStatistics.known(relation) is not None
    assert isinstance(relation._column_counts, list)
    return relation


def test_pickling_drops_the_memo_and_the_counts():
    relation = _edited_with_counts()
    copy = pickle.loads(pickle.dumps(relation))
    assert copy == relation and hash(copy) == hash(relation)
    assert copy.aligned_tuples() == relation.aligned_tuples()
    assert TableStatistics.known(copy) is None
    assert copy._column_counts is None


def test_equality_and_hash_ignore_the_caches():
    relation = _edited_with_counts()
    plain = Relation(["b", "a"], [(i % 3, i) for i in range(1, 30)])
    assert plain == relation and hash(plain) == hash(relation)
    assert len({plain, relation}) == 1


# ----------------------------------------------------------------------
# shared relations and threads
# ----------------------------------------------------------------------
def test_two_sessions_editing_one_shared_relation():
    shared = _edited_with_counts()
    first = connect({"t": shared})
    second = connect({"t": shared})
    # (7, 1) and (8, 2) carry unique ``a`` values, so a Counter updated by
    # both edits would be off by one distinct value in each session.
    first.delete("t", [(7, 1)])
    second.delete("t", [(8, 2)])
    # Only one successor inherited the shared counts; the other rescans.
    inherited = [isinstance(db.relation("t")._column_counts, list) for db in (first, second)]
    for db in (first, second):
        assert planned_statistics(db, "t") == fresh_statistics(db.relation("t"))
    assert sorted(inherited) == [False, True]
    # The shared relation itself is unchanged and still exact.
    assert TableStatistics.from_relation(shared) == fresh_statistics(shared)


def test_threads_editing_one_shared_relation():
    """More threads than cores, each a session over one shared relation
    with counts, starting their edits together; a Counter updated by two
    of them would leave some session's statistics inexact."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_number in range(10):
            shared = _edited_with_counts()
            sessions = [connect({"t": shared}) for _ in range(4)]
            barrier = threading.Barrier(len(sessions), timeout=30)
            errors = []

            def edit(db, offset):
                try:
                    barrier.wait()
                    for i in range(offset + 1, 30, len(sessions)):
                        db.delete("t", [(i, i % 3)])
                        db.insert("t", [(100 + i, round_number % 3)])
                except Exception as error:  # pragma: no cover - reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=edit, args=(db, offset))
                for offset, db in enumerate(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            for db in sessions:
                assert planned_statistics(db, "t") == fresh_statistics(db.relation("t"))
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# planning settles Laws 11/12 key checks from statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("query", [Q2, Q2_NOT_EXISTS], ids=["Q2", "Q2_NOT_EXISTS"])
def test_in_memory_prepare_hashes_no_keys(monkeypatch, query):
    db = connect(generate_catalog(num_suppliers=60, num_parts=30, parts_per_supplier=12))

    def data_fallback(*args):
        raise AssertionError("attribute_is_key hashed the dividend's keys")

    monkeypatch.setattr(conditions, "_key_from_data", data_fallback)
    db.sql(query).prepare()
    # Still true right after an edit: prepare refreshes the statistics
    # before the rewrite checks the key condition.
    db.delete("supplies", [db.relation("supplies").aligned_tuples()[0]])
    db.sql(query).prepare()
