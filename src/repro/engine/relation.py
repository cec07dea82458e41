"""In-memory relations.

A :class:`Relation` is a schema plus a multiset of rows, held as plain
Python tuples, as columns, or both (see :class:`ColumnCell`).
Relations are *multisets*: duplicates are kept, as required by SQL semantics
and, crucially, by U-relations, where duplicate payload tuples with
different conditions encode disjunction of their lineages.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine import columnar
from repro.engine.schema import Column, Schema
from repro.engine.types import NULL, sort_key
from repro.errors import SchemaError

Row = Tuple[Any, ...]

_UNSET = object()


class ColumnCell:
    """A relation's rows in both forms, and everything derived from them
    that is worth keeping: for base-table snapshots, the typed NumPy
    mirrors and single-key hash-join build tables.

    ``rows`` (row tuples) and ``columns`` (one immutable sequence per
    column) may each be None until someone asks; the missing form is
    built from the other once and kept.  ``length`` is stored, so a
    zero-arity relation built from columns keeps its row count.

    One cell is shared by a relation and all its ``with_schema()``
    aliases, so whichever of them pivots, mirrors or hashes first does it
    for all.  A snapshot lives as long as its table version (and as long
    as some statement pins it), so the cell is implicitly keyed by table
    version and dies with it.
    """

    __slots__ = ("rows", "columns", "length", "derived")

    def __init__(self, rows: Optional[List[Row]], columns: Any, length: int) -> None:
        self.rows = rows
        self.columns: Optional[Tuple[Sequence[Any], ...]] = columns
        self.length = length
        # Relation.derived()'s memo: ("mirror", position, dtype) -> ndarray
        # or None for "not mirrorable"; ("hash", position) -> build table;
        # ("groups", ...) / ("lineages", ...) -> repro.core.aggregates.
        self.derived: Dict[tuple, Any] = {}


class Relation:
    """A schema and a multiset of rows, held as row tuples, as columns,
    or both (:class:`ColumnCell`): planner, ``repair key`` and ``pick
    tuples`` results are built from columns and build their rows only
    when ``rows`` is first read.

    Construction from rows validates arity (not per-value types, which
    would be too slow on hot paths; the storage layer validates types on
    insert instead).
    """

    __slots__ = ("schema", "_columns", "source")

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()):
        self.schema = schema
        rows = [tuple(r) for r in rows]
        self._columns = ColumnCell(rows, None, len(rows))
        # Provenance tag for base-table snapshots: (table name, version)
        # stamped by storage.Table.snapshot(), None for derived relations.
        # Only a tagged relation keeps what derived() builds.
        self.source: Optional[Tuple[str, int]] = None
        arity = len(schema)
        for row in rows:
            if len(row) != arity:
                raise SchemaError(
                    f"row {row!r} has arity {len(row)}, schema expects {arity}"
                )

    @staticmethod
    def _adopt(schema: Schema, cell: ColumnCell) -> "Relation":
        relation = Relation.__new__(Relation)
        relation.schema = schema
        relation._columns = cell
        relation.source = None
        return relation

    @staticmethod
    def from_trusted_rows(schema: Schema, rows: List[Row]) -> "Relation":
        """Adopt an already-validated list of row tuples without copying
        (the storage layer's snapshots); it must not be mutated after."""
        return Relation._adopt(schema, ColumnCell(rows, None, len(rows)))

    @staticmethod
    def from_columns(
        schema: Schema, columns: Sequence[Sequence[Any]], length: int
    ) -> "Relation":
        """Adopt one sequence of ``length`` values per schema column
        without copying; they must not be mutated after."""
        return Relation._adopt(schema, ColumnCell(None, tuple(columns), length))

    @property
    def rows(self) -> List[Row]:
        """The row tuples (built on first read, then kept)."""
        cell = self._columns
        rows = cell.rows
        if rows is None:
            rows = cell.rows = columnar.columns_to_rows(cell.columns, cell.length)
        return rows

    def columns(self) -> Tuple[Sequence[Any], ...]:
        """The relation column-wise (built on first read, then kept).
        This is the batch engine's scan input."""
        cell = self._columns
        columns = cell.columns
        if columns is None:
            if cell.rows:
                columns = tuple(zip(*cell.rows))
            else:
                columns = tuple(() for _ in self.schema)
            cell.columns = columns
        return columns

    def derived(self, key: tuple, build: Callable[[], Any]) -> Any:
        """``build()``, kept under ``key`` in the shared cell when this is
        a base-table snapshot -- a table version then pays for a mirror or
        a join build table once, whichever statement or alias asks first.
        A derived relation is gone after its statement: it builds per use
        and keeps nothing."""
        if self.source is None:
            return build()
        memo = self._columns.derived
        value = memo.get(key, _UNSET)
        if value is _UNSET:
            value = memo[key] = build()
        return value

    def has_derived(self, key: tuple) -> bool:
        """Is ``key`` already in the shared cell?  (EXPLAIN's "build
        cached" versus "built".)"""
        return key in self._columns.derived

    def mirror(self, position: int, dtype: str) -> Any:
        """Column ``position`` as an ``"int64"`` or ``"float64"`` ndarray,
        or None when it cannot be mirrored exactly (NULLs, non-numeric
        values; see :mod:`repro.engine.columnar`)."""
        build = columnar.int_array if dtype == "int64" else columnar.float_array
        return self.derived(
            ("mirror", position, dtype),
            lambda: build(self.columns()[position], len(self)),
        )

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return self._columns.length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return self._columns.length > 0

    def __eq__(self, other: object) -> bool:
        """Multiset equality: same schema types/names and same rows up to
        order.  Qualifiers are ignored, as two equivalent queries may tag
        their outputs differently."""
        if not isinstance(other, Relation):
            return NotImplemented
        if [c.name.lower() for c in self.schema] != [c.name.lower() for c in other.schema]:
            return False
        return sorted(map(_row_key, self.rows)) == sorted(map(_row_key, other.rows))

    def __repr__(self) -> str:
        return f"<Relation {self.schema.names} with {len(self)} rows>"

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_dicts(schema: Schema, dicts: Iterable[dict]) -> "Relation":
        """Build a relation from dicts keyed by (case-insensitive) column name."""
        rows = []
        lower_names = [c.name.lower() for c in schema]
        for d in dicts:
            lowered = {k.lower(): v for k, v in d.items()}
            rows.append(tuple(lowered.get(name, NULL) for name in lower_names))
        return Relation(schema, rows)

    def to_dicts(self) -> List[dict]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    # -- common manipulations ---------------------------------------------------
    def copy(self) -> "Relation":
        return Relation(self.schema, list(self.rows))

    def with_schema(self, schema: Schema) -> "Relation":
        """The same rows under a different (equal-arity) schema.

        Zero-copy: the cell holding both forms is shared with the new
        relation (both are immutable by convention), so a pivot or a row
        build done through either one serves both.
        """
        if len(schema) != len(self.schema):
            raise SchemaError("with_schema requires equal arity")
        relation = Relation._adopt(schema, self._columns)
        relation.source = self.source
        return relation

    def project_positions(self, positions: Sequence[int]) -> "Relation":
        columns = self.columns()
        return Relation.from_columns(
            self.schema.project(positions), [columns[i] for i in positions], len(self)
        )

    def project(self, names: Sequence[str]) -> "Relation":
        return self.project_positions([self.schema.resolve(n) for n in names])

    def filter(self, predicate: Callable[[Row], bool]) -> "Relation":
        return Relation(self.schema, [r for r in self.rows if predicate(r)])

    def sorted_by(self, names: Sequence[str], descending: bool = False) -> "Relation":
        positions = [self.schema.resolve(n) for n in names]
        rows = sorted(
            self.rows,
            key=lambda r: tuple(sort_key(r[i]) for i in positions),
            reverse=descending,
        )
        return Relation(self.schema, rows)

    def distinct(self) -> "Relation":
        seen = set()
        rows = []
        for row in self.rows:
            key = _row_key(row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return Relation(self.schema, rows)

    def column(self, name: str) -> List[Any]:
        return list(self.columns()[self.schema.resolve(name)])

    def single_value(self) -> Any:
        """The value of a 1x1 relation (e.g. a scalar aggregate query)."""
        if len(self) != 1 or len(self.schema) != 1:
            raise SchemaError(
                f"expected a 1x1 relation, got {len(self)} rows x "
                f"{len(self.schema)} columns"
            )
        return self.rows[0][0]

    # -- presentation ----------------------------------------------------------
    def pretty(self, max_rows: Optional[int] = None, floatfmt: str = "{:.6g}") -> str:
        """An aligned, psql-style rendering of the relation."""
        header = [c.name for c in self.schema]
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        body = [
            [_render(v, floatfmt) for v in row]
            for row in shown
        ]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            sep,
        ]
        for row in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        omitted = len(self) - len(shown)
        if omitted > 0:
            lines.append(f"... ({omitted} more rows)")
        lines.append(f"({len(self)} rows)")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.schema.names)
        for row in self.rows:
            writer.writerow(["" if v is NULL else v for v in row])
        return buf.getvalue()

    @staticmethod
    def from_csv(schema: Schema, text: str) -> "Relation":
        """Parse CSV (with a header row that is ignored) into typed rows."""
        reader = csv.reader(io.StringIO(text))
        rows = []
        for line_no, raw in enumerate(reader):
            if line_no == 0:
                continue
            if not raw:
                continue
            row = []
            for cell, col in zip(raw, schema):
                if cell == "":
                    row.append(NULL)
                elif col.type.name == "INTEGER":
                    row.append(int(cell))
                elif col.type.name == "FLOAT":
                    row.append(float(cell))
                elif col.type.name == "BOOLEAN":
                    row.append(cell.strip().lower() in ("t", "true", "1"))
                else:
                    row.append(cell)
            rows.append(tuple(row))
        return Relation(schema, rows)


def _render(value: Any, floatfmt: str) -> str:
    if value is NULL:
        return "NULL"
    if isinstance(value, float):
        return floatfmt.format(value)
    return str(value)


def _row_key(row: Row) -> tuple:
    """A total-order sort key for whole rows (NULL-safe)."""
    return tuple(sort_key(v) for v in row)


def empty_like(relation: Relation) -> Relation:
    return Relation(relation.schema, [])


def single_row_relation(names_values: Sequence[Tuple[str, Any]]) -> Relation:
    """Build a one-row relation from (name, value) pairs, inferring types."""
    from repro.engine.types import type_of_literal

    schema = Schema(
        Column(name, type_of_literal(value)) for name, value in names_values
    )
    return Relation(schema, [tuple(v for _, v in names_values)])
