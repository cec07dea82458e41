"""Tests for the system catalog (standard vs U-relation bookkeeping)."""

import pytest

from repro.engine.catalog import (
    KIND_STANDARD,
    KIND_URELATION,
    Catalog,
    CatalogEntry,
)
from repro.engine.schema import Schema
from repro.engine.storage import Table
from repro.engine.types import INTEGER, TEXT
from repro.errors import CatalogError, TableExistsError, TableNotFoundError


@pytest.fixture
def catalog():
    c = Catalog()
    c.create_table("plain", Schema.of(("a", INTEGER)))
    c.create_table(
        "probs",
        Schema.of(("a", INTEGER), ("_v0", INTEGER), ("_d0", INTEGER)),
        KIND_URELATION,
        {"payload_arity": 1, "cond_arity": 1},
    )
    return c


class TestLifecycle:
    def test_create_and_lookup(self, catalog):
        assert catalog.has_table("plain")
        assert catalog.table("plain").name == "plain"

    def test_case_insensitive(self, catalog):
        assert catalog.has_table("PLAIN")
        assert catalog.entry("Probs").is_urelation

    def test_duplicate_rejected(self, catalog):
        with pytest.raises(TableExistsError):
            catalog.create_table("plain", Schema.of(("x", TEXT)))

    def test_if_not_exists_returns_existing(self, catalog):
        entry = catalog.create_table(
            "plain", Schema.of(("zzz", TEXT)), if_not_exists=True
        )
        assert entry.table.schema.names == ["a"]

    def test_drop(self, catalog):
        catalog.drop_table("plain")
        assert not catalog.has_table("plain")

    def test_drop_missing_raises(self, catalog):
        with pytest.raises(TableNotFoundError):
            catalog.drop_table("ghost")

    def test_drop_if_exists_silent(self, catalog):
        assert catalog.drop_table("ghost", if_exists=True) is None

    def test_rename(self, catalog):
        catalog.rename_table("plain", "renamed")
        assert catalog.has_table("renamed")
        assert not catalog.has_table("plain")
        assert catalog.table("renamed").name == "renamed"

    def test_rename_to_existing_rejected(self, catalog):
        with pytest.raises(TableExistsError):
            catalog.rename_table("plain", "probs")

    def test_register_external(self, catalog):
        table = Table("ext", Schema.of(("x", TEXT)))
        catalog.register(CatalogEntry(table, KIND_STANDARD))
        assert catalog.has_table("ext")

    def test_unknown_kind_rejected(self):
        table = Table("t", Schema.of(("x", TEXT)))
        with pytest.raises(CatalogError):
            CatalogEntry(table, "weird")

    def test_table_names_sorted(self, catalog):
        assert catalog.table_names() == ["plain", "probs"]


class TestIntrospection:
    def test_sys_tables_distinguishes_kinds(self, catalog):
        rows = {row[0]: row for row in catalog.sys_tables()}
        assert rows["plain"][1] == KIND_STANDARD
        assert rows["probs"][1] == KIND_URELATION
        assert rows["probs"][3] == 1  # cond_arity

    def test_sys_tables_row_counts(self, catalog):
        catalog.table("plain").insert((1,))
        rows = {row[0]: row for row in catalog.sys_tables()}
        assert rows["plain"][2] == 1

    def test_sys_columns_marks_condition_columns(self, catalog):
        rows = [r for r in catalog.sys_columns() if r[0] == "probs"]
        flags = {name: is_cond for _, _, name, _, is_cond in rows}
        assert flags["a"] is False
        assert flags["_v0"] is True and flags["_d0"] is True
        assert "_p0" not in flags

    def test_sys_columns_types(self, catalog):
        rows = [r for r in catalog.sys_columns() if r[0] == "plain"]
        assert rows[0][3] == "INTEGER"
