"""Columnar batches: the unit of work of the execution engine.

The executor moves a :class:`ColumnBatch` -- a fixed-length slice of the
input held as per-column sequences -- through the operator tree, and
evaluates expressions as *column kernels* (see
:mod:`repro.engine.kernels`) that produce a whole output column in one
pass.  This is the MayBMS thesis taken seriously: the wide U-relation
encoding makes probabilistic query processing ordinary relational
processing, so the relational engine's constant factor is the whole ball
game.

Columns are plain Python sequences (lists or tuples) holding SQL values
(``None`` is NULL).  Purely numeric columns are mirrored into NumPy
``ndarray``s for vectorized kernels -- see :func:`int_array` /
:func:`float_array`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Rows per batch.  Large enough to amortize per-batch overhead, small
#: enough that intermediate columns stay cache-friendly.
BATCH_SIZE = 1024


class ColumnBatch:
    """A horizontal slice of a relation, stored column-wise.

    ``columns`` is a sequence of per-column sequences, all of length
    ``length``.  Batches are treated as immutable: operators build new
    batches (possibly sharing column objects) instead of mutating.

    ``origin`` is set by scans only: ``(relation, rows)`` says the batch
    holds exactly rows ``rows`` (a slice or an index array) of
    ``relation``, column for column, so :meth:`int_mirror` can cut the
    relation's cached mirror; a batch without one has no mirrors, and a
    caller converts whatever rows it ends up needing.
    """

    __slots__ = ("columns", "length", "origin")

    def __init__(
        self,
        columns: Sequence[Sequence[Any]],
        length: Optional[int] = None,
        origin: Optional[Tuple[Any, Any]] = None,
    ):
        self.columns: Tuple[Sequence[Any], ...] = tuple(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self.length = length
        self.origin = origin

    def int_mirror(self, position: int):
        """Column ``position`` cut from its relation's cached int64 mirror;
        None when the batch has no ``origin`` or the column no mirror."""
        if self.origin is None:
            return None
        relation, rows = self.origin
        mirror = relation.mirror(position, "int64")
        return None if mirror is None else mirror[rows]

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Tuple[Any, ...]], arity: int) -> "ColumnBatch":
        """Pivot row tuples into a batch (used at batch/row boundaries)."""
        if not rows:
            return ColumnBatch(tuple([] for _ in range(arity)), 0)
        return ColumnBatch(tuple(zip(*rows)), len(rows))

    @staticmethod
    def empty(arity: int) -> "ColumnBatch":
        return ColumnBatch(tuple([] for _ in range(arity)), 0)

    # -- basic protocol -----------------------------------------------------
    def __len__(self) -> int:
        return self.length

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        return f"<ColumnBatch {self.arity} cols x {self.length} rows>"

    # -- row views ----------------------------------------------------------
    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate the batch as row tuples (the batch/row boundary).

        A zero-arity batch still carries ``length`` empty rows -- the
        column representation alone cannot express the row count, so it
        must come from ``self.length``, never from zip.
        """
        if not self.columns:
            return iter(() for _ in range(self.length))
        return zip(*self.columns)

    # -- restructuring ------------------------------------------------------
    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather the given row positions into a new batch."""
        return ColumnBatch(
            tuple([column[i] for i in indices] for column in self.columns),
            len(indices),
        )

    def filter_by_mask(self, mask: Sequence[Any]) -> "ColumnBatch":
        """Keep rows whose mask entry is SQL TRUE (Python ``True``)."""
        indices = [i for i, keep in enumerate(mask) if keep is True]
        if len(indices) == self.length:
            return self
        return self.take(indices)

    def project(self, positions: Sequence[int]) -> "ColumnBatch":
        """Keep only the given columns (zero-copy)."""
        return ColumnBatch(tuple(self.columns[p] for p in positions), self.length)

    def concat_columns(self, other: "ColumnBatch") -> "ColumnBatch":
        """Widen: self's columns then other's (lengths must agree)."""
        return ColumnBatch(self.columns + other.columns, self.length)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        return ColumnBatch(
            tuple(column[start:stop] for column in self.columns),
            max(0, min(stop, self.length) - start),
        )


def batches_of_columns(
    columns: Sequence[Sequence[Any]],
    total: int,
    batch_size: int = BATCH_SIZE,
    relation: Any = None,
) -> Iterator[ColumnBatch]:
    """Slice full-length columns into batches.

    When everything fits in one batch the columns are passed through
    without copying -- the common case for base-table scans, and the
    "zero-copy read path" the storage layer relies on.  ``relation``,
    when the columns are those of a relation with cached mirrors, becomes
    each batch's ``origin``.
    """
    if total <= batch_size:
        origin = (relation, slice(None)) if relation is not None else None
        yield ColumnBatch(columns, total, origin)
        return
    for start in range(0, total, batch_size):
        stop = start + batch_size
        yield ColumnBatch(
            tuple(column[start:stop] for column in columns),
            min(batch_size, total - start),
            (relation, slice(start, stop)) if relation is not None else None,
        )


def columns_to_rows(
    columns: Sequence[Sequence[Any]], length: int
) -> List[Tuple[Any, ...]]:
    """Pivot full-length columns into a list of row tuples.

    The inverse of :meth:`Relation.columns` / a whole-relation
    :meth:`ColumnBatch.rows`, sharing its caveat: a zero-arity input
    still carries ``length`` empty rows, which ``zip`` alone would drop.
    Builds a column-backed relation's ``rows`` and, on the checkpoint
    recovery fast path, storage rows from decoded column segments.
    """
    if not columns:
        return [() for _ in range(length)]
    return list(zip(*columns))


def concat_batches(batches: Iterable[ColumnBatch], arity: int) -> ColumnBatch:
    """Stack batches vertically into one (materialization points: build
    sides of joins, sorts, aggregations)."""
    batches = [b for b in batches if b.length]
    if not batches:
        return ColumnBatch.empty(arity)
    if len(batches) == 1:
        return batches[0]
    columns: List[List[Any]] = [[] for _ in range(arity)]
    for batch in batches:
        for i, column in enumerate(batch.columns):
            columns[i].extend(column)
    return ColumnBatch(tuple(columns), sum(b.length for b in batches))


# ---------------------------------------------------------------------------
# NumPy mirrors.
#
# A mirror is an exact typed copy of a NULL-free numeric column.  Both
# builders are strict: anything a vectorized comparison could not
# reproduce bit for bit (NULLs, booleans, non-integers in an int mirror,
# integers a float64 cannot hold exactly) yields ``None`` and the caller
# keeps the Python kernels.  The type scan is what makes that safe:
# ``np.fromiter`` alone maps ``None`` to NaN and truncates ``1.5`` to 1.
# ---------------------------------------------------------------------------

#: Integers up to this magnitude convert to float64 without rounding.
FLOAT_EXACT_INT = 2**53


def int_array(column: Sequence[Any], length: int):
    """Mirror an all-``int`` column into an int64 ndarray, or None if any
    value is not a plain int that fits."""
    if set(map(type, column)) - {int}:
        return None
    try:
        return np.fromiter(column, dtype=np.int64, count=length)
    except OverflowError:
        return None


def float_array(column: Sequence[Any], length: int):
    """Mirror a column of floats (and exactly representable ints) into a
    float64 ndarray, or None."""
    kinds = set(map(type, column))
    if kinds - {float, int}:
        return None
    if int in kinds and not all(
        -FLOAT_EXACT_INT <= v <= FLOAT_EXACT_INT
        for v in column
        if type(v) is int
    ):
        return None
    return np.fromiter(column, dtype=np.float64, count=length)
