"""The system catalog.

The paper (Section 2.4): "The major changes lie in the system catalog,
parser, and executor.  The system catalog can distinguish between
U-relations and standard relational tables."  This module is that catalog:
it owns all :class:`~repro.engine.storage.Table` objects, tags each with a
*kind* (``standard`` or ``urelation``) plus kind-specific properties (for
U-relations: how many condition-column pairs the table carries and which
columns are payload), and exposes introspection relations
(``sys_tables``, ``sys_columns``) in the spirit of ``pg_class`` /
``pg_attribute``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.storage import Table
from repro.engine.types import BOOLEAN, INTEGER, TEXT, type_from_name
from repro.errors import CatalogError, TableExistsError, TableNotFoundError

KIND_STANDARD = "standard"
KIND_URELATION = "urelation"


class CatalogEntry:
    """A table plus its catalog metadata."""

    def __init__(self, table: Table, kind: str, properties: Optional[Dict[str, Any]] = None):
        if kind not in (KIND_STANDARD, KIND_URELATION):
            raise CatalogError(f"unknown table kind {kind!r}")
        self.table = table
        self.kind = kind
        #: Kind-specific metadata.  For U-relations the core layer stores
        #: ``cond_arity`` (number of (variable, assignment) column pairs)
        #: and ``payload_arity`` here.
        self.properties: Dict[str, Any] = dict(properties or {})

    @property
    def is_urelation(self) -> bool:
        return self.kind == KIND_URELATION

    def __repr__(self) -> str:
        return f"<CatalogEntry {self.table.name!r} kind={self.kind}>"


class Catalog:
    """Name -> entry mapping with case-insensitive lookup."""

    def __init__(self):
        self._entries: Dict[str, CatalogEntry] = {}

    # -- definition ------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        kind: str = KIND_STANDARD,
        properties: Optional[Dict[str, Any]] = None,
        if_not_exists: bool = False,
    ) -> CatalogEntry:
        key = name.lower()
        if key in self._entries:
            if if_not_exists:
                return self._entries[key]
            raise TableExistsError(f"table {name!r} already exists")
        entry = CatalogEntry(Table(name, schema), kind, properties)
        self._entries[key] = entry
        return entry

    def register(self, entry: CatalogEntry, if_not_exists: bool = False) -> CatalogEntry:
        """Register an externally built table (CREATE TABLE ... AS ...)."""
        key = entry.table.name.lower()
        if key in self._entries:
            if if_not_exists:
                return self._entries[key]
            raise TableExistsError(f"table {entry.table.name!r} already exists")
        self._entries[key] = entry
        return entry

    def drop_table(self, name: str, if_exists: bool = False) -> Optional[CatalogEntry]:
        key = name.lower()
        entry = self._entries.pop(key, None)
        if entry is None and not if_exists:
            raise TableNotFoundError(f"table {name!r} does not exist")
        return entry

    def rename_table(self, old: str, new: str) -> None:
        entry = self.entry(old)
        if new.lower() in self._entries:
            raise TableExistsError(f"table {new!r} already exists")
        del self._entries[old.lower()]
        entry.table.name = new
        self._entries[new.lower()] = entry

    # -- lookup ---------------------------------------------------------------
    def entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    def table(self, name: str) -> Table:
        return self.entry(name).table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._entries

    def table_names(self) -> List[str]:
        return sorted(entry.table.name for entry in self._entries.values())

    def entries(self) -> Iterator[CatalogEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def retained_snapshot_versions(self) -> int:
        """Total MVCC snapshot-chain entries across all tables: how many
        distinct pinned versions in-flight read statements are holding
        right now (see :meth:`repro.engine.storage.Table.pin_snapshot`).
        Zero when no reads are in flight -- released pins reclaim their
        chain entries eagerly."""
        return sum(
            entry.table.pinned_version_count() for entry in self._entries.values()
        )

    # -- checkpoint recovery ------------------------------------------------------
    def restore_table_from_segment(self, decoded: Dict[str, Any]) -> CatalogEntry:
        """Create one table from a decoded binary column segment
        (:func:`repro.engine.segments.decode_table_segment`) and bulk-load
        its columns through the recovery fast path -- decoded arrays feed
        the batch engine's snapshot cache zero-copy."""
        schema = Schema(
            Column(name, type_from_name(type_name))
            for name, type_name in decoded["columns"]
        )
        entry = self.create_table(
            decoded["table"], schema, decoded["table_kind"],
            decoded["properties"],
        )
        entry.table.load_columns(
            decoded["tids"],
            decoded["column_values"],
            decoded["row_count"],
            decoded["next_tid"],
        )
        return entry

    # -- introspection relations -------------------------------------------------
    def sys_tables(self) -> Relation:
        """One row per table: (table_name, kind, row_count, cond_arity)."""
        schema = Schema(
            [
                Column("table_name", TEXT),
                Column("kind", TEXT),
                Column("row_count", INTEGER),
                Column("cond_arity", INTEGER),
            ]
        )
        rows = [
            (
                entry.table.name,
                entry.kind,
                len(entry.table),
                int(entry.properties.get("cond_arity", 0)),
            )
            for entry in sorted(self._entries.values(), key=lambda e: e.table.name.lower())
        ]
        return Relation(schema, rows)

    def sys_columns(self) -> Relation:
        """One row per column: (table_name, position, column_name, type, is_condition)."""
        schema = Schema(
            [
                Column("table_name", TEXT),
                Column("position", INTEGER),
                Column("column_name", TEXT),
                Column("type", TEXT),
                Column("is_condition", BOOLEAN),
            ]
        )
        rows = []
        for entry in sorted(self._entries.values(), key=lambda e: e.table.name.lower()):
            payload_arity = entry.properties.get("payload_arity")
            for position, column in enumerate(entry.table.schema):
                is_condition = (
                    entry.is_urelation
                    and payload_arity is not None
                    and position >= payload_arity
                )
                rows.append(
                    (
                        entry.table.name,
                        position,
                        column.name,
                        column.type.name,
                        bool(is_condition),
                    )
                )
        return Relation(schema, rows)
