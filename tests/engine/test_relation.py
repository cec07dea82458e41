"""Tests for in-memory relations (multiset semantics, I/O, utilities).

Every case runs on both forms of a relation: one built from row tuples
and one built from columns (as the planner, ``repair key`` and ``pick
tuples`` build theirs).
"""

import pytest

from repro.engine import algebra, planner
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.relation import Relation, single_row_relation
from repro.engine.schema import Column, Schema
from repro.engine.types import FLOAT, INTEGER, NULL, TEXT
from repro.errors import SchemaError
from repro.server import protocol
from repro.sql.executor import StatementResult


def _from_columns(schema, rows):
    rows = [tuple(row) for row in rows]
    columns = [[row[i] for row in rows] for i in range(len(schema))]
    return Relation.from_columns(schema, columns, len(rows))


@pytest.fixture(params=[Relation, _from_columns], ids=["rows", "columns"])
def make(request):
    """Build a relation from ``(schema, rows)`` in one of the two forms."""
    return request.param


@pytest.fixture
def people(make):
    schema = Schema.of(("name", TEXT), ("age", INTEGER))
    return make(schema, [("ann", 30), ("bob", 25), ("ann", 30), ("cy", NULL)])


def _rows_built(relation):
    return relation._columns.rows is not None


class TestConstruction:
    def test_arity_checked(self):
        schema = Schema.of(("a", INTEGER))
        with pytest.raises(SchemaError):
            Relation(schema, [(1, 2)])

    def test_multiset_keeps_duplicates(self, people):
        assert len(people) == 4

    def test_from_to_dicts_roundtrip(self):
        schema = Schema.of(("a", INTEGER), ("b", TEXT))
        dicts = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        relation = Relation.from_dicts(schema, dicts)
        assert relation.to_dicts() == dicts

    def test_from_dicts_missing_key_is_null(self):
        schema = Schema.of(("a", INTEGER), ("b", TEXT))
        relation = Relation.from_dicts(schema, [{"a": 1}])
        assert relation.rows[0] == (1, NULL)


class TestEquality:
    def test_order_insensitive(self, make):
        schema = Schema.of(("a", INTEGER))
        assert make(schema, [(1,), (2,)]) == make(schema, [(2,), (1,)])

    def test_multiplicity_sensitive(self, make):
        schema = Schema.of(("a", INTEGER))
        assert make(schema, [(1,), (1,)]) != make(schema, [(1,)])

    def test_ignores_qualifiers(self, make):
        a = make(Schema([Column("x", INTEGER, "t")]), [(1,)])
        b = make(Schema([Column("x", INTEGER)]), [(1,)])
        assert a == b

    def test_null_rows_compare(self, make):
        schema = Schema.of(("a", INTEGER))
        assert make(schema, [(NULL,)]) == make(schema, [(NULL,)])


class TestOperations:
    def test_project(self, people):
        names = people.project(["name"])
        assert names.schema.names == ["name"]
        assert len(names) == 4

    def test_filter(self, people):
        young = people.filter(lambda row: row[1] is not NULL and row[1] < 28)
        assert young.rows == [("bob", 25)]

    def test_sorted_by(self, people):
        ordered = people.sorted_by(["age"])
        ages = [row[1] for row in ordered]
        assert ages[:3] == [25, 30, 30]
        assert ages[3] is NULL  # NULLs last

    def test_sorted_descending(self, people):
        ordered = people.sorted_by(["name"], descending=True)
        assert ordered.rows[0][0] == "cy"

    def test_distinct(self, people):
        assert len(people.distinct()) == 3

    def test_column(self, people):
        assert people.column("name") == ["ann", "bob", "ann", "cy"]

    def test_single_value(self):
        assert single_row_relation([("n", 7)]).single_value() == 7

    def test_single_value_rejects_multi(self, people):
        with pytest.raises(SchemaError):
            people.single_value()


class TestPresentation:
    def test_pretty_contains_header_and_rows(self, people):
        text = people.pretty()
        assert "name" in text and "ann" in text and "(4 rows)" in text
        assert "NULL" in text

    def test_pretty_max_rows(self, people):
        text = people.pretty(max_rows=2)
        assert "2 more rows" in text

    def test_csv_roundtrip(self, people):
        text = people.to_csv()
        back = Relation.from_csv(people.schema, text)
        assert back == people

    def test_csv_preserves_null(self, make):
        schema = Schema.of(("a", INTEGER), ("b", FLOAT))
        relation = make(schema, [(1, NULL), (NULL, 2.5)])
        assert Relation.from_csv(schema, relation.to_csv()) == relation


class TestTwoForms:
    def test_rows_and_columns_agree(self, people):
        assert people.rows == [("ann", 30), ("bob", 25), ("ann", 30), ("cy", NULL)]
        assert [list(c) for c in people.columns()] == [
            ["ann", "bob", "ann", "cy"],
            [30, 25, 30, NULL],
        ]

    def test_each_form_is_built_once(self, people):
        assert people.rows is people.rows
        assert people.columns() is people.columns()

    def test_with_schema_shares_both_forms(self, people):
        alias = people.with_schema(people.schema.with_qualifier("p"))
        assert alias.rows is people.rows
        assert alias.columns() is people.columns()

    def test_zero_arity_keeps_its_length(self, make):
        relation = make(Schema([]), [(), (), ()])
        assert len(relation) == 3 and relation
        assert relation.rows == [(), (), ()]
        assert relation.columns() == ()
        assert len(relation.project_positions([])) == 3

    def test_empty_is_false(self, make):
        relation = make(Schema.of(("a", INTEGER)), [])
        assert len(relation) == 0 and not relation
        assert relation.rows == [] and [list(c) for c in relation.columns()] == [[]]

    def test_length_does_not_build_rows(self):
        relation = _from_columns(Schema.of(("a", INTEGER)), [(1,), (2,)])
        assert len(relation) == 2 and bool(relation)
        relation.columns()
        relation.project_positions([0])
        assert not _rows_built(relation)


def _planner_result(n):
    schema = Schema.of(("a", INTEGER), ("b", FLOAT), ("c", TEXT))
    source = Relation(schema, [(i, i / 4, f"t{i % 3}") for i in range(n)])
    keep = Comparison(">=", ColumnRef("a"), Literal(0))
    return planner.run(algebra.Select(algebra.RelationScan(source), keep))


def test_planner_result_builds_no_rows_until_read():
    result = _planner_result(100)
    assert len(result) == 100
    assert not _rows_built(result)
    assert result.rows[7] == (7, 1.75, "t1")
    assert _rows_built(result)


def test_encode_result_reads_columns_only():
    """A result of 32 rows or more goes out as column blocks without its
    rows ever being built, and frames exactly like its row-built twin."""
    result = _planner_result(protocol._COLUMNAR_MIN_ROWS)
    frame = _frame(result)
    assert not _rows_built(result)
    assert frame == _frame(Relation(result.schema, result.rows))


def _frame(relation):
    encoded = protocol.encode_result(StatementResult(output=relation))
    return protocol._frame({"ok": True, "result": encoded})
