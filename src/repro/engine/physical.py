"""Physical operators (iterator model).

Each operator is a callable that yields row tuples.  The planner wires
logical plans into trees of these; :func:`execute` materializes the result
into a :class:`~repro.engine.relation.Relation`.

The operator set mirrors a textbook executor: sequential scan, values
scan, filter, projection, nested-loop and hash joins, hash aggregation,
sort, limit, union-all, distinct.  Hash-based operators key rows with NULL-safe keys so
NULL groups correctly (SQL GROUP BY treats NULLs as equal).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.expressions import ConsistencyPredicate, Evaluator
from repro.engine.relation import Relation, Row
from repro.engine.schema import Schema
from repro.engine.types import NULL, sort_key
from repro.errors import PlanError, SchemaError

RowIterator = Iterator[Row]
PhysicalOp = Callable[[], RowIterator]

# A sentinel used in hash keys so that NULL == NULL for grouping purposes
# while staying distinct from any real value.
_NULL_KEY = ("__null__",)


def group_key(values: Iterable[Any]) -> tuple:
    """Hashable grouping key where NULLs compare equal to each other."""
    return tuple(_NULL_KEY if v is NULL else v for v in values)


def seq_scan(relation: Relation) -> PhysicalOp:
    def run() -> RowIterator:
        return iter(relation.rows)

    return run


def values_scan(rows: Sequence[Row]) -> PhysicalOp:
    def run() -> RowIterator:
        return iter(rows)

    return run


def filter_op(child: PhysicalOp, predicate: Evaluator) -> PhysicalOp:
    """Keep rows for which the predicate is SQL TRUE (not NULL)."""

    def run() -> RowIterator:
        for row in child():
            if predicate(row) is True:
                yield row

    return run


def project_op(child: PhysicalOp, evaluators: Sequence[Evaluator]) -> PhysicalOp:
    def run() -> RowIterator:
        for row in child():
            yield tuple(e(row) for e in evaluators)

    return run


def nested_loop_join(
    left: PhysicalOp,
    right: PhysicalOp,
    predicate: Optional[Evaluator],
) -> PhysicalOp:
    """Materializes the right input and loops.  Used for non-equi joins and
    cross products."""

    def run() -> RowIterator:
        right_rows = list(right())
        for lrow in left():
            for rrow in right_rows:
                combined = lrow + rrow
                if predicate is None or predicate(combined) is True:
                    yield combined

    return run


def hash_join(
    left: PhysicalOp,
    right: PhysicalOp,
    left_key: Sequence[Evaluator],
    right_key: Sequence[Evaluator],
    residual: Optional[Evaluator] = None,
) -> PhysicalOp:
    """Equi-join: build a hash table on the right input, probe with the left.

    SQL equality semantics: rows whose key contains NULL never match, so
    they are simply not inserted / probed.
    """

    def run() -> RowIterator:
        table: Dict[tuple, List[Row]] = {}
        for rrow in right():
            key = tuple(e(rrow) for e in right_key)
            if any(v is NULL for v in key):
                continue
            table.setdefault(key, []).append(rrow)
        for lrow in left():
            key = tuple(e(lrow) for e in left_key)
            if any(v is NULL for v in key):
                continue
            bucket = table.get(key)
            if not bucket:
                continue
            for rrow in bucket:
                combined = lrow + rrow
                if residual is None or residual(combined) is True:
                    yield combined

    return run


def union_all(left: PhysicalOp, right: PhysicalOp) -> PhysicalOp:
    def run() -> RowIterator:
        yield from left()
        yield from right()

    return run


def distinct_op(child: PhysicalOp) -> PhysicalOp:
    def run() -> RowIterator:
        seen = set()
        for row in child():
            key = group_key(row)
            if key not in seen:
                seen.add(key)
                yield row

    return run


def sort_op(
    child: PhysicalOp,
    key_evaluators: Sequence[Evaluator],
    ascendings: Sequence[bool],
) -> PhysicalOp:
    """Stable multi-key sort; NULLs last in ascending order (PostgreSQL
    default), first in descending."""

    def run() -> RowIterator:
        rows = list(child())
        # Stable sorts compose: apply keys right-to-left.
        for evaluator, ascending in reversed(list(zip(key_evaluators, ascendings))):
            rows.sort(key=lambda r: sort_key(evaluator(r)), reverse=not ascending)
        return iter(rows)

    return run


def limit_op(child: PhysicalOp, count: Optional[int], offset: int) -> PhysicalOp:
    def run() -> RowIterator:
        it = child()
        for _ in range(offset):
            try:
                next(it)
            except StopIteration:
                return
        if count is None:
            yield from it
            return
        for _, row in zip(range(count), it):
            yield row

    return run


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


class _AggState:
    """Accumulator for one aggregate over one group."""

    __slots__ = ("function", "count", "total", "extreme", "argmax_pairs", "seen")

    def __init__(self, function: str, distinct: bool):
        self.function = function
        self.count = 0
        self.total: Any = None
        self.extreme: Any = None
        self.argmax_pairs: List[Tuple[Any, Any]] = []
        self.seen: Optional[set] = set() if distinct else None

    def update(self, value: Any, second: Any = None) -> None:
        if self.function == "count_star":
            self.count += 1
            return
        if value is NULL:
            return  # SQL aggregates ignore NULLs
        if self.seen is not None:
            key = value if value is not NULL else _NULL_KEY
            if key in self.seen:
                return
            self.seen.add(key)
        self.count += 1
        if self.function == "sum" or self.function == "avg":
            self.total = value if self.total is None else self.total + value
        elif self.function == "min":
            if self.extreme is None or sort_key(value) < sort_key(self.extreme):
                self.extreme = value
        elif self.function == "max":
            if self.extreme is None or sort_key(value) > sort_key(self.extreme):
                self.extreme = value
        elif self.function == "argmax":
            self.argmax_pairs.append((value, second))

    def result(self) -> Any:
        if self.function in ("count", "count_star"):
            return self.count
        if self.function == "sum":
            return self.total if self.total is not None else NULL
        if self.function == "avg":
            if self.count == 0:
                return NULL
            return self.total / self.count
        if self.function in ("min", "max"):
            return self.extreme if self.extreme is not None else NULL
        if self.function == "argmax":
            # Handled specially by hash_aggregate (may emit several rows).
            raise AssertionError("argmax result is multi-valued")
        raise AssertionError(self.function)

    def argmax_results(self) -> List[Any]:
        """All arg values whose paired value attains the group maximum."""
        best = None
        for _, v in self.argmax_pairs:
            if v is NULL:
                continue
            if best is None or sort_key(v) > sort_key(best):
                best = v
        if best is None:
            return [NULL]
        return [a for a, v in self.argmax_pairs if v is not NULL and v == best]


def hash_aggregate(
    child: PhysicalOp,
    group_evaluators: Sequence[Evaluator],
    agg_functions: Sequence[str],
    agg_arg_evaluators: Sequence[Optional[Evaluator]],
    agg_second_evaluators: Sequence[Optional[Evaluator]],
    agg_distinct: Sequence[bool],
) -> PhysicalOp:
    """Hash grouping with accumulation.

    With no group expressions and no input rows, emits the SQL-mandated
    single row of "empty" aggregates (count = 0, sum = NULL, ...).

    If an ``argmax`` aggregate is present it may multiply rows: the group
    emits one row per maximizing argument (the paper: "outputs *all* the
    arg values").  Several argmax aggregates produce a cross product of
    their maximizer lists, though in practice queries use one.
    """

    def run() -> RowIterator:
        groups: Dict[tuple, Tuple[Row, List[_AggState]]] = {}
        order: List[tuple] = []
        for row in child():
            key_values = tuple(e(row) for e in group_evaluators)
            key = group_key(key_values)
            entry = groups.get(key)
            if entry is None:
                states = [
                    _AggState(fn, dis)
                    for fn, dis in zip(agg_functions, agg_distinct)
                ]
                groups[key] = (key_values, states)
                order.append(key)
                entry = groups[key]
            _, states = entry
            for state, arg_eval, second_eval in zip(
                states, agg_arg_evaluators, agg_second_evaluators
            ):
                value = arg_eval(row) if arg_eval is not None else None
                second = second_eval(row) if second_eval is not None else None
                state.update(value, second)

        if not groups and not group_evaluators:
            # Scalar aggregate over an empty input.
            states = [
                _AggState(fn, dis) for fn, dis in zip(agg_functions, agg_distinct)
            ]
            groups[()] = ((), states)
            order.append(())

        for key in order:
            key_values, states = groups[key]
            yield from _emit_group_rows(key_values, states)

    return run


def _emit_group_rows(key_values: tuple, states: List[_AggState]) -> Iterator[Row]:
    """Finalize one group into result rows (shared by both engines).

    ``argmax`` may emit several rows per group -- one per maximizing
    argument (cross product if several argmax aggregates are present).
    """
    if not any(s.function == "argmax" for s in states):
        yield key_values + tuple(s.result() for s in states)
        return

    def expand(i: int, acc: List[Any]) -> Iterator[tuple]:
        if i == len(states):
            yield tuple(acc)
            return
        state = states[i]
        if state.function == "argmax":
            for arg in state.argmax_results():
                yield from expand(i + 1, acc + [arg])
        else:
            yield from expand(i + 1, acc + [state.result()])

    for agg_row in expand(0, []):
        yield key_values + agg_row


def execute(op: PhysicalOp, schema: Schema) -> Relation:
    """Drain a physical operator into a relation."""
    return Relation(schema, list(op()))


# ===========================================================================
# Batch (columnar) operators.
#
# The batch engine mirrors the row operator set above, but each operator is
# a callable yielding ColumnBatch slices (~1024 rows) instead of single
# tuples, and predicates/projections are pre-compiled column kernels
# (:mod:`repro.engine.kernels`) instead of per-row closures.  Output row
# order is identical to the row engine's, so the two engines are
# differentially testable against each other.
# ===========================================================================

import functools  # noqa: E402 (keeps the two engine halves adjacent)
from itertools import chain  # noqa: E402

from repro.engine import columnar  # noqa: E402
from repro.engine.columnar import (  # noqa: E402
    BATCH_SIZE,
    ColumnBatch,
    batches_of_columns,
    concat_batches,
)
from repro.engine.kernels import (  # noqa: E402
    _NUMPY_MIN_ROWS,
    Kernel,
    VectorFilter,
    consistency_mask,
)

BatchIterator = Iterator[ColumnBatch]
BatchOp = Callable[[], BatchIterator]

#: What an operator did at run time, told to EXPLAIN (None: nobody asks).
Note = Optional[Callable[[str], None]]


def _mirrored(relation: Relation) -> Optional[Relation]:
    """``relation`` if its mirrors are cached (a base-table snapshot), so
    that batches cut from it may point back at it."""
    return relation if relation.source is not None else None


def batch_scan(relation: Relation) -> BatchOp:
    """Scan a relation column-wise.

    Zero-copy: the relation's cached column view is sliced (or passed
    through whole when it fits one batch) -- no per-row touching at all.
    """

    def run() -> BatchIterator:
        return batches_of_columns(
            relation.columns(), len(relation), relation=_mirrored(relation)
        )

    return run


def batch_scan_filter(
    relation: Relation,
    vector: Optional[VectorFilter],
    predicate: Kernel,
    note: Note = None,
) -> BatchOp:
    """Scan + filter in one operator.

    When the predicate has a vectorized form and the relation is worth a
    NumPy call, the comparison conjuncts run once over the whole typed
    mirrors, the mask becomes a selection vector, and every column is
    gathered once -- no 1024-row slicing, no three-valued list per
    conjunct.  Otherwise (no NumPy, a tiny relation, NULLs or inexact
    values in a compared column) it is ``batch_filter`` over
    ``batch_scan``.  Same rows, same order, either way.

    The mask is always computed over the whole relation, and the batches
    are as large as the selection: the first ``BATCH_SIZE`` survivors go
    out on their own, so that a consumer that stops early (a ``Limit``
    node) never pays for gathering the rest, and everything after them is one
    batch of unbounded length.
    """
    serial = batch_filter(batch_scan(relation), predicate)

    def run() -> BatchIterator:
        n = len(relation)
        mask = None
        if vector is not None and columnar.HAVE_NUMPY and n >= _NUMPY_MIN_ROWS:
            mask = vector.mask(relation)
        if mask is None:
            if note is not None:
                note("filter: python kernels")
            yield from serial()
            return
        if note is not None:
            note(f"filter: {vector.label}")
        selected = columnar.np.flatnonzero(mask)
        columns = relation.columns()
        for part in (selected[:BATCH_SIZE], selected[BATCH_SIZE:]):
            rows = part.tolist()
            if not rows:
                return
            batch = ColumnBatch(
                tuple([column[i] for i in rows] for column in columns),
                len(rows),
                (relation, part) if _mirrored(relation) else None,
            )
            if vector.residual is not None:
                batch = batch.filter_by_mask(
                    vector.residual(batch.columns, batch.length)
                )
            if batch.length:
                yield batch

    return run


def batch_values(rows: Sequence[Row], arity: int) -> BatchOp:
    def run() -> BatchIterator:
        # Values rows come from outside the engine; validate arity exactly
        # as the row engine does when it materializes into a Relation
        # (ColumnBatch.from_rows would silently truncate ragged rows).
        for row in rows:
            if len(row) != arity:
                raise SchemaError(
                    f"row {tuple(row)!r} has arity {len(row)}, "
                    f"schema expects {arity}"
                )
        if not rows:
            yield ColumnBatch.empty(arity)
            return
        for start in range(0, len(rows), BATCH_SIZE):
            yield ColumnBatch.from_rows(rows[start : start + BATCH_SIZE], arity)

    return run


def batch_filter(child: BatchOp, predicate: Kernel) -> BatchOp:
    """Keep rows whose predicate column is SQL TRUE (not NULL)."""

    def run() -> BatchIterator:
        for batch in child():
            if batch.length == 0:
                continue
            mask = predicate(batch.columns, batch.length)
            filtered = batch.filter_by_mask(mask)
            if filtered.length:
                yield filtered

    return run


def batch_project(child: BatchOp, kernels: Sequence[Kernel]) -> BatchOp:
    def run() -> BatchIterator:
        for batch in child():
            yield ColumnBatch(
                tuple(kernel(batch.columns, batch.length) for kernel in kernels),
                batch.length,
            )

    return run


def batch_hash_join(
    left: BatchOp,
    right: BatchOp,
    left_keys: Sequence[Kernel],
    right_keys: Sequence[Kernel],
    right_arity: int,
    residual: Optional[Kernel] = None,
    consistency: Optional[Tuple[ConsistencyPredicate, Kernel]] = None,
    build_scan: Optional[Tuple[Relation, int]] = None,
    note: Note = None,
) -> BatchOp:
    """Equi-join: materialize + hash the right input, probe with left
    batches.  NULL keys never match (SQL equality), exactly as in the row
    engine; output order is left order, bucket insertion order.

    ``consistency`` is the translated join's consistency filter (with
    its Python kernel), kept apart from ``residual`` so that it can run
    on mirrors.  ``build_scan`` is ``(relation, key position)`` when the
    right input is an unfiltered scan keyed on a bare column: the build
    side is then the relation itself, and its hash table is kept with
    the relation's other derived structures.
    """
    kind = "single-key" if len(left_keys) == 1 else f"{len(left_keys)} keys"

    def run() -> BatchIterator:
        if build_scan is not None:
            relation, position = build_scan
            build = ColumnBatch(
                relation.columns(),
                len(relation),
                (relation, slice(None)) if _mirrored(relation) else None,
            )
            cached = relation.has_derived(("hash", position))
            state = "build cached" if cached else "built"
            table, unique = relation.derived(
                ("hash", position),
                lambda: _hash_keys(relation.columns()[position]),
            )
        else:
            build = concat_batches(right(), right_arity)
            state = "built"
            table, unique = _hash_keys(_join_keys(right_keys, build))
        if note is not None:
            note(f"hash join: {kind}, {state}")
        if not table:
            return
        # Every probe batch reads the same build-side condition columns:
        # cut them from the cached mirrors once per run, not once per batch.
        build_mirror = functools.lru_cache(maxsize=None)(build.int_mirror)
        for batch in left():
            if batch.length == 0:
                continue
            left_indices, right_indices = _probe_keys(
                table, unique, _join_keys(left_keys, batch)
            )
            if not right_indices:
                continue
            matched = batch if left_indices is None else batch.take(left_indices)
            out = matched.concat_columns(build.take(right_indices))
            if consistency is not None:
                out = _filter_consistent(
                    out, consistency, batch, left_indices, build_mirror, right_indices
                )
            if residual is not None and out.length:
                out = out.filter_by_mask(residual(out.columns, out.length))
            if out.length:
                yield out

    return run


def _join_keys(kernels: Sequence[Kernel], batch: ColumnBatch) -> Sequence[Any]:
    """The hash keys of a batch: the key column itself for one key, key
    tuples for several -- None wherever a part is NULL (it never matches)."""
    columns = [kernel(batch.columns, batch.length) for kernel in kernels]
    if len(columns) == 1:
        return columns[0]
    return [None if None in key else key for key in zip(*columns)]


def _hash_keys(keys: Sequence[Any]) -> Tuple[dict, bool]:
    """Hash the build keys (see ``_join_keys``): ``(key -> row, True)``
    when every key occurs once, else ``(key -> rows in order, False)``.
    NULL keys are left out (they never match)."""
    table: dict = dict(zip(keys, range(len(keys))))
    if len(table) == len(keys):
        table.pop(None, None)
        return table, True
    buckets: Dict[Any, List[int]] = {}
    for i, key in enumerate(keys):
        if key is not None:
            buckets.setdefault(key, []).append(i)
    return buckets, False


def _probe_keys(
    table: dict, unique: bool, keys: Sequence[Any]
) -> Tuple[Optional[List[int]], List[int]]:
    """Matching (probe rows, build rows) for the keys of a probe batch;
    probe rows ``None`` means every row matched exactly once, in order.
    The table holds no NULL key, so a NULL probe simply misses."""
    hits = list(map(table.get, keys))
    if not unique:
        return (
            [i for i, bucket in enumerate(hits) if bucket for _ in bucket],
            list(chain.from_iterable(filter(None, hits))),
        )
    if None not in hits:
        return None, hits
    return (
        [i for i, hit in enumerate(hits) if hit is not None],
        [hit for hit in hits if hit is not None],
    )


def _filter_consistent(
    out: ColumnBatch,
    consistency: Tuple[ConsistencyPredicate, Kernel],
    probe: ColumnBatch,
    probe_rows: Optional[List[int]],
    build_mirror: Callable[[int], Any],
    build_rows: List[int],
) -> ColumnBatch:
    """Drop joined rows whose two conditions contradict each other.

    A condition column of an input cut from a base-table snapshot is read
    from that snapshot's cached int64 mirror (``build_mirror`` answers for
    the build side, once per join run); any other is converted from the
    joined rows in ``out``, so the work stays proportional to the output
    and never to the size of a derived build side.  If a column has no
    int64 form the Python kernel runs over ``out`` instead.
    """
    n = out.length
    left_arity = probe.arity

    def array_of(position: int):
        if position < left_arity:
            mirror, rows = probe.int_mirror(position), probe_rows
        else:
            mirror, rows = build_mirror(position - left_arity), build_rows
        if mirror is None:
            return columnar.int_array(out.columns[position], n)
        return mirror if rows is None else mirror[rows]

    mask = None
    if columnar.HAVE_NUMPY and n >= _NUMPY_MIN_ROWS:
        mask = consistency_mask(consistency[0].pairs, array_of)
    if mask is None:
        return out.filter_by_mask(consistency[1](out.columns, n))
    if mask.all():
        return out
    return out.take(columnar.np.flatnonzero(mask).tolist())


def batch_nested_loop_join(
    left: BatchOp,
    right: BatchOp,
    right_arity: int,
    predicate: Optional[Kernel] = None,
) -> BatchOp:
    """Cross product (with optional filter): materialize the right input,
    replicate left rows against it.  Left batches are re-chunked so one
    output batch stays bounded even for wide right sides."""

    def run() -> BatchIterator:
        build = concat_batches(right(), right_arity)
        build_count = build.length
        if build_count == 0:
            return
        left_rows_per_chunk = max(1, (4 * BATCH_SIZE) // build_count)
        right_range = list(range(build_count))
        for batch in left():
            for start in range(0, batch.length, left_rows_per_chunk):
                chunk = batch.slice(start, start + left_rows_per_chunk)
                left_indices = [
                    i for i in range(chunk.length) for _ in right_range
                ]
                right_indices = right_range * chunk.length
                out = chunk.take(left_indices).concat_columns(
                    build.take(right_indices)
                )
                if predicate is not None:
                    out = out.filter_by_mask(predicate(out.columns, out.length))
                if out.length:
                    yield out

    return run


def batch_union_all(left: BatchOp, right: BatchOp) -> BatchOp:
    def run() -> BatchIterator:
        yield from left()
        yield from right()

    return run


def batch_distinct(child: BatchOp) -> BatchOp:
    def run() -> BatchIterator:
        seen = set()
        for batch in child():
            keep: List[int] = []
            for i, row in enumerate(batch.rows()):
                key = group_key(row)
                if key not in seen:
                    seen.add(key)
                    keep.append(i)
            if len(keep) == batch.length:
                if batch.length:
                    yield batch
            elif keep:
                yield batch.take(keep)

    return run


def batch_sort(
    child: BatchOp,
    key_kernels: Sequence[Kernel],
    ascendings: Sequence[bool],
    arity: int,
) -> BatchOp:
    """Stable multi-key sort over the materialized input; key columns are
    computed once per key instead of once per row per pass."""

    def run() -> BatchIterator:
        batch = concat_batches(child(), arity)
        n = batch.length
        if n == 0:
            return
        indices = list(range(n))
        for kernel, ascending in reversed(list(zip(key_kernels, ascendings))):
            keys = kernel(batch.columns, n)
            decorated = [sort_key(v) for v in keys]
            indices.sort(key=decorated.__getitem__, reverse=not ascending)
        yield batch.take(indices)

    return run


def batch_limit(child: BatchOp, count: Optional[int], offset: int) -> BatchOp:
    def run() -> BatchIterator:
        to_skip = offset
        emitted = 0
        for batch in child():
            current = batch
            if to_skip > 0:
                dropped = min(to_skip, current.length)
                to_skip -= dropped
                if dropped == current.length:
                    continue
                current = current.slice(dropped, current.length)
            if count is not None:
                remaining = count - emitted
                if remaining <= 0:
                    return
                if current.length > remaining:
                    current = current.slice(0, remaining)
                emitted += current.length
            if current.length:
                yield current
            if count is not None and emitted >= count:
                return  # without asking the child for a batch nobody needs

    return run


def batch_hash_aggregate(
    child: BatchOp,
    group_kernels: Sequence[Kernel],
    agg_functions: Sequence[str],
    agg_arg_kernels: Sequence[Optional[Kernel]],
    agg_second_kernels: Sequence[Optional[Kernel]],
    agg_distinct: Sequence[bool],
) -> BatchOp:
    """Hash grouping over batches: group keys and aggregate arguments are
    computed as whole columns per batch, then accumulated into the same
    :class:`_AggState` machinery the row engine uses."""

    out_arity = len(group_kernels) + len(agg_functions)

    def run() -> BatchIterator:
        groups: Dict[tuple, Tuple[Row, List[_AggState]]] = {}
        order: List[tuple] = []
        for batch in child():
            n = batch.length
            if n == 0:
                continue
            group_columns = [k(batch.columns, n) for k in group_kernels]
            arg_columns = [
                k(batch.columns, n) if k is not None else None
                for k in agg_arg_kernels
            ]
            second_columns = [
                k(batch.columns, n) if k is not None else None
                for k in agg_second_kernels
            ]
            if group_columns:
                keys_iter: Iterable[tuple] = zip(*group_columns)
            else:
                keys_iter = (() for _ in range(n))
            for i, key_values in enumerate(keys_iter):
                key = group_key(key_values)
                entry = groups.get(key)
                if entry is None:
                    states = [
                        _AggState(fn, dis)
                        for fn, dis in zip(agg_functions, agg_distinct)
                    ]
                    entry = (key_values, states)
                    groups[key] = entry
                    order.append(key)
                _, states = entry
                for state, arg_column, second_column in zip(
                    states, arg_columns, second_columns
                ):
                    state.update(
                        arg_column[i] if arg_column is not None else None,
                        second_column[i] if second_column is not None else None,
                    )

        if not groups and not group_kernels:
            states = [
                _AggState(fn, dis) for fn, dis in zip(agg_functions, agg_distinct)
            ]
            groups[()] = ((), states)
            order.append(())

        rows: List[Row] = []
        for key in order:
            key_values, states = groups[key]
            rows.extend(_emit_group_rows(key_values, states))
        yield ColumnBatch.from_rows(rows, out_arity)

    return run


def execute_batches(op: BatchOp, schema: Schema) -> Relation:
    """Drain a batch operator into a relation (trusted fast path: batch
    rows are well-formed tuples by construction)."""
    rows: List[Row] = []
    for batch in op():
        rows.extend(batch.rows())
    return Relation.from_trusted_rows(schema, rows)
