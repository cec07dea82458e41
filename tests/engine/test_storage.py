"""Tests for base table storage and tuple ids."""

import pytest

from repro.engine.schema import Schema
from repro.engine.storage import Table
from repro.engine.types import FLOAT, INTEGER, NULL, TEXT
from repro.errors import StorageError


@pytest.fixture
def table():
    t = Table("players", Schema.of(("name", TEXT), ("score", INTEGER)))
    t.insert(("ann", 10))
    t.insert(("bob", 20))
    t.insert(("cy", 30))
    return t


class TestBasicStorage:
    def test_insert_returns_increasing_tids(self):
        t = Table("t", Schema.of(("x", INTEGER)))
        assert t.insert((1,)) == 1
        assert t.insert((2,)) == 2

    def test_get(self, table):
        assert table.get(2) == ("bob", 20)

    def test_get_missing_raises(self, table):
        with pytest.raises(StorageError):
            table.get(99)

    def test_type_coercion_on_insert(self):
        t = Table("t", Schema.of(("x", FLOAT)))
        t.insert((1,))
        assert t.get(1) == (1.0,)

    def test_type_violation_rejected(self, table):
        with pytest.raises(Exception):
            table.insert((42, "not an int"))

    def test_arity_checked(self, table):
        with pytest.raises(StorageError):
            table.insert(("ann",))

    def test_null_allowed(self, table):
        tid = table.insert((NULL, NULL))
        assert table.get(tid) == (NULL, NULL)

    def test_delete_keeps_other_tids(self, table):
        table.delete(2)
        assert table.get(1) == ("ann", 10)
        assert table.get(3) == ("cy", 30)
        assert len(table) == 2

    def test_update_returns_old(self, table):
        old = table.update(1, ("ann", 11))
        assert old == ("ann", 10)
        assert table.get(1) == ("ann", 11)

    def test_restore_reuses_tid(self, table):
        row = table.delete(2)
        table.restore(2, row)
        assert table.get(2) == ("bob", 20)

    def test_restore_existing_tid_rejected(self, table):
        with pytest.raises(StorageError):
            table.restore(1, ("x", 1))

    def test_restore_advances_tid_counter(self):
        t = Table("t", Schema.of(("x", INTEGER)))
        t.restore(10, (1,))
        assert t.insert((2,)) == 11

    def test_snapshot_is_immutable_copy(self, table):
        snap = table.snapshot()
        table.insert(("dee", 40))
        assert len(snap) == 3

    def test_snapshot_alias(self, table):
        snap = table.snapshot("p")
        assert all(c.qualifier == "p" for c in snap.schema)

    def test_delete_where(self, table):
        victims = table.delete_where(lambda row: row[1] > 15)
        assert victims == [(2, ("bob", 20)), (3, ("cy", 30))]
        assert list(table.items()) == [(1, ("ann", 10))]

    def test_update_where(self, table):
        table.update_where(
            lambda row: row[0] == "ann", lambda row: (row[0], row[1] + 1)
        )
        assert table.get(1) == ("ann", 11)

    def test_truncate(self, table):
        removed = table.truncate()
        assert len(removed) == 3
        assert len(table) == 0


class TestBulkMutations:
    def test_insert_many_returns_consecutive_tids(self, table):
        tids = table.insert_many([("dee", 40), ("eve", 50)])
        assert tids == [4, 5]
        assert table.get(4) == ("dee", 40)
        assert table.get(5) == ("eve", 50)

    def test_insert_many_empty(self, table):
        assert table.insert_many([]) == []
        assert len(table) == 3

    def test_insert_many_coerces_types(self):
        t = Table("t", Schema.of(("x", FLOAT)))
        t.insert_many([(1,), (2,)])
        assert t.get(1) == (1.0,)

    def test_insert_many_equivalent_to_repeated_insert(self):
        a = Table("a", Schema.of(("x", INTEGER)))
        b = Table("b", Schema.of(("x", INTEGER)))
        rows = [(i % 3,) for i in range(10)]
        for row in rows:
            a.insert(row)
        b.insert_many(rows)
        assert list(a.items()) == list(b.items())


class TestSnapshotCaching:
    def test_snapshot_cached_until_mutation(self, table):
        first = table.snapshot()
        assert table.snapshot() is first  # unchanged table: same object
        table.insert(("dee", 40))
        second = table.snapshot()
        assert second is not first
        assert len(first) == 3 and len(second) == 4

    def test_all_mutations_invalidate(self, table):
        baseline = table.snapshot()
        table.delete(1)
        assert len(table.snapshot()) == 2
        table.update(2, ("bob", 21))
        assert ("bob", 21) in table.snapshot().rows
        table.insert_many([("dee", 40)])
        assert len(table.snapshot()) == 3
        table.truncate()
        assert len(table.snapshot()) == 0
        assert len(baseline) == 3  # old snapshots are unaffected

    def test_aliased_snapshot_shares_rows(self, table):
        base = table.snapshot()
        aliased = table.snapshot("p")
        assert aliased.rows is base.rows  # zero-copy requalification
        assert aliased.schema.columns[0].qualifier == "p"

    def test_aliased_scan_fills_the_shared_column_cache(self, table):
        """Regression: with_schema copied the column view by value, so an
        aliased scan of a not-yet-pivoted snapshot pivoted privately and
        every later alias pivoted the whole table again."""
        base = table.snapshot()
        pivoted = table.snapshot("p").columns()
        assert base.columns() is pivoted  # the base learned of the pivot
        assert table.snapshot("q").columns() is pivoted

    def test_alias_does_not_force_a_pivot(self, table):
        table.snapshot("p")
        assert table.snapshot()._columns.columns is None

    def test_restore_invalidates(self, table):
        table.snapshot()
        row = table.delete(2)
        table.restore(2, row)
        assert len(table.snapshot()) == 3
