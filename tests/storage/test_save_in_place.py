"""Saving over the store a session was opened from.

The orphan sweep after a commit deletes the previous generation's table
files.  The saving session's own lazy tables are rebound to the committed
files first, so the session keeps working; any *other* session still
reading a swept generation gets a typed :class:`StorageError` naming the
table instead of a raw ``FileNotFoundError``.
"""

import pytest

from repro.api import connect
from repro.errors import StorageError
from repro.experiments import Q1, Q2
from repro.workloads import textbook_catalog


@pytest.fixture
def store(tmp_path):
    path = tmp_path / "store"
    connect(textbook_catalog()).save(path)
    return path


def _answers(db):
    return {name: db.sql(query).run().relation for name, query in (("q1", Q1), ("q2", Q2))}


@pytest.mark.parametrize("edit", [False, True], ids=["unchanged", "edited"])
def test_saving_over_own_store_keeps_the_session_working(store, edit):
    reference = connect(textbook_catalog())
    db = connect(store)
    if edit:
        reference.insert("supplies", [("s9", "p1")])
        db.insert("supplies", [("s9", "p1")])
    versions = db.versions
    db.save(store)
    assert db.versions == versions
    assert _answers(db) == _answers(reference)
    assert len(db.relation("parts").aligned_tuples()) == len(db.relation("parts"))
    # Saving again sweeps the files the session was just rebound to.
    db.save(store)
    db.clear_cache()
    assert _answers(db) == _answers(reference)
    assert _answers(connect(store)) == _answers(reference)


def test_other_session_reading_a_swept_generation_gets_a_typed_error(store):
    reader = connect(store)
    writer = connect(store)
    writer.save(store)
    with pytest.raises(StorageError, match="'supplies'") as raised:
        reader.relation("supplies").aligned_tuples()
    assert isinstance(raised.value.__cause__, FileNotFoundError)
    with pytest.raises(StorageError, match="'parts'"):
        reader.sql("SELECT * FROM parts").run()
