"""Logical-to-physical planning, with two interchangeable engines.

The planner compiles a logical plan tree into physical operators, with the
classic heuristic rewrites a PostgreSQL-style executor relies on:

- **predicate pushdown**: selection conjuncts that mention only one join
  input are pushed below the join;
- **equi-join detection**: conjuncts of the form ``left_col = right_col``
  become hash-join keys; remaining conjuncts stay as a residual filter;
- **build-side choice**: the right input is the hash table's build side.

These rewrites matter for the reproduction: the parsimonious translation
of [1] produces join conditions over U-relation condition columns, and the
experiments on query processing (C-TRANS) depend on joins not degenerating
into nested loops.

Two execution engines share this one planner through a small backend
interface:

- the **row** engine (the original iterator model: per-row tuples,
  per-row expression closures), kept as the differential-testing
  baseline and fallback;
- the **batch** engine (the default): ColumnBatch slices of ~1024 rows
  and per-pipeline column kernels -- see :mod:`repro.engine.columnar`
  and :mod:`repro.engine.kernels`.

Select the engine per call (``run(plan, engine="row")``), per process
(:func:`set_default_engine` or the ``REPRO_ENGINE`` environment
variable), or lexically (:func:`forced_engine`).  :func:`trace_plans`
records every executed plan fragment, the engine that ran it, and what
its operators reported at run time (vectorized filter, cached join build
table) -- the substrate of the SQL ``EXPLAIN`` statement.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine import algebra, physical
from repro.engine.expressions import (
    ColumnRef,
    Comparison,
    Expr,
    PositionRef,
    conjunction,
    conjuncts_of,
)
from repro.engine.kernels import (
    compile_kernel,
    compile_vector_filter,
    split_consistency,
)
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.errors import PlanError, SchemaError

ROW_ENGINE = "row"
BATCH_ENGINE = "batch"
_ENGINES = (ROW_ENGINE, BATCH_ENGINE)

#: Process-wide default; the batch engine is the production path, the row
#: engine the reference implementation.
DEFAULT_ENGINE = os.environ.get("REPRO_ENGINE", BATCH_ENGINE)

#: Lexically forced engine (via :func:`forced_engine`); overrides both the
#: per-call argument and the process default.  A stack so scopes nest.
_FORCED: List[str] = []

#: ``id(plan node)`` -> what its operator reported while running.
PlanNotes = Dict[int, List[str]]

#: One executed plan: the plan, the engine that ran it, its run-time notes.
PlanTrace = Tuple[algebra.PlanNode, str, PlanNotes]

#: Active plan-trace buffers (via :func:`trace_plans`).
_TRACES: List[List[PlanTrace]] = []

#: Active parallel-execution pools (via :func:`parallel_execution`); a
#: stack so scopes nest, and pushing ``None`` masks any outer pool.
_POOLS: List[object] = []


def set_default_engine(name: str) -> None:
    global DEFAULT_ENGINE
    if name not in _ENGINES:
        raise PlanError(f"unknown engine {name!r}; expected one of {_ENGINES}")
    DEFAULT_ENGINE = name


def get_default_engine() -> str:
    return DEFAULT_ENGINE


@contextmanager
def forced_engine(name: str) -> Iterator[None]:
    """Force every plan executed in this scope onto one engine (used by the
    differential tests and benchmarks)."""
    if name not in _ENGINES:
        raise PlanError(f"unknown engine {name!r}; expected one of {_ENGINES}")
    _FORCED.append(name)
    try:
        yield
    finally:
        _FORCED.pop()


@contextmanager
def trace_plans() -> Iterator[List[PlanTrace]]:
    """Collect (plan, engine, notes) for every plan executed in this
    scope; the EXPLAIN statement renders them
    (``plan.explain(notes=notes)``)."""
    buffer: List[PlanTrace] = []
    _TRACES.append(buffer)
    try:
        yield buffer
    finally:
        _TRACES.pop()


@contextmanager
def parallel_execution(pool) -> Iterator[None]:
    """Route eligible batch-engine scans and hash joins in this scope
    through ``pool`` (a :class:`~repro.engine.parallel.ParallelExecutionPool`).
    ``None`` is accepted and masks any outer scope's pool, so callers can
    pass their configured pool unconditionally."""
    _POOLS.append(pool)
    try:
        yield
    finally:
        _POOLS.pop()


def _active_pool():
    return _POOLS[-1] if _POOLS else None


def _scan_of(node: algebra.PlanNode) -> Optional[algebra.RelationScan]:
    """The base-table scan under a chain of aliases, if that is all there
    is (aliases rename columns but never change rows)."""
    while isinstance(node, (algebra.Alias, algebra.Relabel)):
        node = node.child
    return node if isinstance(node, algebra.RelationScan) else None


def _resolve_engine(engine: Optional[str]) -> str:
    if _FORCED:
        return _FORCED[-1]
    if engine is None:
        if DEFAULT_ENGINE not in _ENGINES:
            # Typically a typo'd REPRO_ENGINE environment variable; fail
            # loudly rather than silently running some engine.
            raise PlanError(
                f"unknown default engine {DEFAULT_ENGINE!r} (check the "
                f"REPRO_ENGINE environment variable); expected one of {_ENGINES}"
            )
        return DEFAULT_ENGINE
    if engine not in _ENGINES:
        raise PlanError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    return engine


def plan(node: algebra.PlanNode, engine: Optional[str] = None):
    """Compile a logical plan to a physical operator tree (row or batch)."""
    backend = _backend_for(_resolve_engine(engine))
    return _Planner(backend).compile(node)


def run(node: algebra.PlanNode, engine: Optional[str] = None) -> Relation:
    """Compile and execute, materializing a relation."""
    name = _resolve_engine(engine)
    backend = _backend_for(name)
    notes: Optional[PlanNotes] = {} if _TRACES else None
    compiled = _Planner(backend, notes).compile(node)
    result = backend.execute(compiled, node.schema())
    for buffer in _TRACES:
        buffer.append((node, name, notes))
    return result


def _backend_for(name: str) -> "_Backend":
    return _ROW_BACKEND if name == ROW_ENGINE else _BATCH_BACKEND


# ---------------------------------------------------------------------------
# Execution backends: how one logical operator becomes a physical one.
# ---------------------------------------------------------------------------


class _Backend:
    """Operator constructors for one engine.  ``schema`` arguments are the
    *input* schema the expressions are resolved against."""

    name: str


class _RowBackend(_Backend):
    name = ROW_ENGINE

    def scan(self, relation: Relation):
        return physical.seq_scan(relation)

    def values(self, rows: Sequence[tuple], schema: Schema):
        return physical.values_scan(rows)

    def filter(self, child, predicate: Expr, schema: Schema):
        return physical.filter_op(child, predicate.compile(schema))

    def scan_filter(self, relation: Relation, predicate: Expr, schema: Schema, note):
        return self.filter(self.scan(relation), predicate, schema)

    def project(self, child, items: Sequence[Expr], schema: Schema):
        return physical.project_op(child, [e.compile(schema) for e in items])

    def hash_join(
        self,
        left,
        right,
        left_keys: Sequence[Expr],
        left_schema: Schema,
        right_keys: Sequence[Expr],
        right_schema: Schema,
        residual: Optional[Expr],
        combined_schema: Schema,
        build_scan=None,
        note=None,
    ):
        return physical.hash_join(
            left,
            right,
            [k.compile(left_schema) for k in left_keys],
            [k.compile(right_schema) for k in right_keys],
            residual.compile(combined_schema) if residual is not None else None,
        )

    def nested_loop_join(
        self, left, right, predicate: Optional[Expr],
        right_schema: Schema, combined_schema: Schema,
    ):
        return physical.nested_loop_join(
            left,
            right,
            predicate.compile(combined_schema) if predicate is not None else None,
        )

    def union_all(self, left, right):
        return physical.union_all(left, right)

    def distinct(self, child):
        return physical.distinct_op(child)

    def sort(
        self, child, items: Sequence[Expr], ascendings: Sequence[bool],
        schema: Schema,
    ):
        return physical.sort_op(
            child, [e.compile(schema) for e in items], ascendings
        )

    def limit(self, child, count: Optional[int], offset: int):
        return physical.limit_op(child, count, offset)

    def aggregate(
        self,
        child,
        group_items: Sequence[Expr],
        functions: Sequence[str],
        arguments: Sequence[Optional[Expr]],
        seconds: Sequence[Optional[Expr]],
        distincts: Sequence[bool],
        schema: Schema,
    ):
        return physical.hash_aggregate(
            child,
            [e.compile(schema) for e in group_items],
            functions,
            [e.compile(schema) if e is not None else None for e in arguments],
            [e.compile(schema) if e is not None else None for e in seconds],
            distincts,
        )

    def execute(self, op, schema: Schema) -> Relation:
        return physical.execute(op, schema)


class _BatchBackend(_Backend):
    name = BATCH_ENGINE

    def scan(self, relation: Relation):
        return physical.batch_scan(relation)

    def values(self, rows: Sequence[tuple], schema: Schema):
        return physical.batch_values(rows, len(schema))

    def filter(self, child, predicate: Expr, schema: Schema):
        return physical.batch_filter(child, compile_kernel(predicate, schema))

    def scan_filter(self, relation: Relation, predicate: Expr, schema: Schema, note):
        return physical.batch_scan_filter(
            relation,
            compile_vector_filter(predicate, schema),
            compile_kernel(predicate, schema),
            note,
        )

    def project(self, child, items: Sequence[Expr], schema: Schema):
        return physical.batch_project(
            child, [compile_kernel(e, schema) for e in items]
        )

    def hash_join(
        self,
        left,
        right,
        left_keys: Sequence[Expr],
        left_schema: Schema,
        right_keys: Sequence[Expr],
        right_schema: Schema,
        residual: Optional[Expr],
        combined_schema: Schema,
        build_scan=None,
        note=None,
    ):
        consistency, residual = split_consistency(residual)
        return physical.batch_hash_join(
            left,
            right,
            [compile_kernel(k, left_schema) for k in left_keys],
            [compile_kernel(k, right_schema) for k in right_keys],
            len(right_schema),
            compile_kernel(residual, combined_schema)
            if residual is not None
            else None,
            (consistency, compile_kernel(consistency, combined_schema))
            if consistency is not None
            else None,
            build_scan,
            note,
        )

    def nested_loop_join(
        self, left, right, predicate: Optional[Expr],
        right_schema: Schema, combined_schema: Schema,
    ):
        return physical.batch_nested_loop_join(
            left,
            right,
            len(right_schema),
            compile_kernel(predicate, combined_schema)
            if predicate is not None
            else None,
        )

    def union_all(self, left, right):
        return physical.batch_union_all(left, right)

    def distinct(self, child):
        return physical.batch_distinct(child)

    def sort(
        self, child, items: Sequence[Expr], ascendings: Sequence[bool],
        schema: Schema,
    ):
        return physical.batch_sort(
            child,
            [compile_kernel(e, schema) for e in items],
            ascendings,
            len(schema),
        )

    def limit(self, child, count: Optional[int], offset: int):
        return physical.batch_limit(child, count, offset)

    def aggregate(
        self,
        child,
        group_items: Sequence[Expr],
        functions: Sequence[str],
        arguments: Sequence[Optional[Expr]],
        seconds: Sequence[Optional[Expr]],
        distincts: Sequence[bool],
        schema: Schema,
    ):
        return physical.batch_hash_aggregate(
            child,
            [compile_kernel(e, schema) for e in group_items],
            functions,
            [
                compile_kernel(e, schema) if e is not None else None
                for e in arguments
            ],
            [
                compile_kernel(e, schema) if e is not None else None
                for e in seconds
            ],
            distincts,
        )

    def execute(self, op, schema: Schema) -> Relation:
        return physical.execute_batches(op, schema)


_ROW_BACKEND = _RowBackend()
_BATCH_BACKEND = _BatchBackend()


# ---------------------------------------------------------------------------
# The planner proper (engine-independent).
# ---------------------------------------------------------------------------


class _Planner:
    def __init__(self, backend: _Backend, notes: Optional[PlanNotes] = None):
        self.backend = backend
        self.notes = notes

    def _note(self, node: algebra.PlanNode):
        """Where ``node``'s operator reports what it did at run time, or
        None when nobody is tracing."""
        if self.notes is None:
            return None
        return self.notes.setdefault(id(node), []).append

    def compile(self, node: algebra.PlanNode):
        method = getattr(self, "_compile_" + type(node).__name__.lower(), None)
        if method is None:
            raise PlanError(f"no physical strategy for {type(node).__name__}")
        return method(node)

    # -- leaves -------------------------------------------------------------
    def _compile_relationscan(self, node: algebra.RelationScan):
        return self.backend.scan(node.relation)

    def _compile_values(self, node: algebra.Values):
        return self.backend.values(node.rows, node.value_schema)

    # -- unary operators -------------------------------------------------------
    def _compile_select(self, node: algebra.Select):
        # Pushdown: if the child is a join, split conjuncts by side.
        if isinstance(node.child, algebra.Join):
            return self._compile_join_with_filter(node.child, node.predicate)
        parallel = self._parallel_pipeline(node.child, node.predicate, None)
        if parallel is not None:
            return parallel
        return self._filtered(node.child, [node.predicate])

    def _filtered(self, child: algebra.PlanNode, conjuncts: Sequence[Expr]):
        """``child`` compiled, under the conjunction of ``conjuncts`` if
        there are any.  A filter sitting directly on a scan becomes one
        scan-level operator, so the batch engine can evaluate it over the
        relation's whole columns."""
        if not conjuncts:
            return self.compile(child)
        predicate = conjunction(conjuncts)
        scan = _scan_of(child)
        if scan is not None:
            return self.backend.scan_filter(
                scan.relation, predicate, child.schema(), self._note(child)
            )
        return self.backend.filter(self.compile(child), predicate, child.schema())

    def _compile_project(self, node: algebra.Project):
        items = [e for e, _ in node.items]
        # Fuse Project(Select(Scan)) / Project(Scan) into one parallel
        # shard pipeline; Select preserves its child's schema, so both
        # the predicate and the projections resolve against it.
        inner = node.child
        predicate = None
        if isinstance(inner, algebra.Select) and not isinstance(
            inner.child, algebra.Join
        ):
            scan_child = inner.child
            if _scan_of(scan_child) is not None:
                predicate = inner.predicate
                inner = scan_child
        parallel = self._parallel_pipeline(inner, predicate, items)
        if parallel is not None:
            return parallel
        child = self.compile(node.child)
        schema = node.child.schema()
        return self.backend.project(child, items, schema)

    def _parallel_pipeline(
        self,
        child: algebra.PlanNode,
        predicate: Optional[Expr],
        projections: Optional[Sequence[Expr]],
    ):
        """A parallel scan/filter/project operator over ``child`` when the
        active pool, the engine, and the per-operator cost gate all say
        yes; ``None`` otherwise (the caller compiles serially)."""
        pool = _active_pool()
        if pool is None or self.backend.name != BATCH_ENGINE:
            return None
        scan = _scan_of(child)
        if scan is None or not pool.operator_eligible(len(scan.relation)):
            return None
        schema = child.schema()
        serial = self._filtered(child, [predicate] if predicate is not None else [])
        if projections is not None:
            serial = self.backend.project(serial, projections, schema)
        return physical.parallel_table_scan(
            pool, scan.relation, schema, predicate, projections, serial
        )

    def _compile_distinct(self, node: algebra.Distinct):
        return self.backend.distinct(self.compile(node.child))

    def _compile_sort(self, node: algebra.Sort):
        child = self.compile(node.child)
        schema = node.child.schema()
        return self.backend.sort(
            child,
            [expr for expr, _ in node.items],
            [asc for _, asc in node.items],
            schema,
        )

    def _compile_limit(self, node: algebra.Limit):
        return self.backend.limit(self.compile(node.child), node.count, node.offset)

    def _compile_alias(self, node: algebra.Alias):
        # Aliasing only changes the schema, not the rows.
        return self.compile(node.child)

    _compile_relabel = _compile_alias

    def _compile_groupby(self, node: algebra.GroupBy):
        child = self.compile(node.child)
        schema = node.child.schema()
        return self.backend.aggregate(
            child,
            [expr for expr, _ in node.group_items],
            [spec.function for spec in node.aggregates],
            [spec.argument for spec in node.aggregates],
            [spec.second for spec in node.aggregates],
            [spec.distinct for spec in node.aggregates],
            schema,
        )

    # -- binary operators ------------------------------------------------------
    def _compile_union(self, node: algebra.Union):
        return self.backend.union_all(
            self.compile(node.left), self.compile(node.right)
        )

    def _compile_join(self, node: algebra.Join):
        return self._compile_join_with_filter(node, None)

    def _compile_join_with_filter(
        self, node: algebra.Join, extra_predicate: Optional[Expr]
    ):
        """Compile a join, folding in an optional selection sitting on top.

        Conjuncts are classified into: left-only (pushed), right-only
        (pushed), equi-join keys (hash join), residual (post-join filter).
        """
        left_schema = node.left.schema()
        right_schema = node.right.schema()
        combined = left_schema.concat(right_schema)

        conjuncts: List[Expr] = []
        if node.predicate is not None:
            conjuncts.extend(conjuncts_of(node.predicate))
        if extra_predicate is not None:
            conjuncts.extend(conjuncts_of(extra_predicate))

        left_only: List[Expr] = []
        right_only: List[Expr] = []
        equi: List[Tuple[Expr, Expr]] = []  # (left key expr, right key expr)
        residual: List[Expr] = []

        for conjunct in conjuncts:
            side = _side_of(conjunct, left_schema, right_schema, combined)
            if side == "left":
                left_only.append(conjunct)
            elif side == "right":
                right_only.append(conjunct)
            else:
                keys = _equi_keys(conjunct, left_schema, right_schema, combined)
                if keys is not None:
                    equi.append(keys)
                else:
                    residual.append(conjunct)

        left_op = self._filtered(node.left, left_only)
        right_op = self._filtered(node.right, right_only)

        residual_expr = conjunction(residual) if residual else None

        if equi:
            left_keys = [lk for lk, _ in equi]
            # Right key expressions reference the combined schema positions;
            # rebase them onto the right schema.
            right_keys = [_rebase(rk, len(left_schema)) for _, rk in equi]
            pool = _active_pool()
            if pool is not None and self.backend.name == BATCH_ENGINE:
                # Probe size is only known at run time (the left input may
                # be filtered), so the pool's cost gate applies there.
                left_scan = _scan_of(node.left)
                return physical.parallel_batch_hash_join(
                    pool,
                    left_op,
                    right_op,
                    left_keys,
                    left_schema,
                    right_keys,
                    right_schema,
                    residual_expr,
                    combined,
                    source=left_scan.relation.source
                    if left_scan is not None
                    else None,
                )
            # An unfiltered scan keyed on one bare column is its own build
            # side: nothing to materialize, and its hash table is kept.
            right_scan = _scan_of(node.right)
            build_scan = None
            if right_scan is not None and not right_only and len(equi) == 1:
                build_scan = (right_scan.relation, right_keys[0].position)
            return self.backend.hash_join(
                left_op,
                right_op,
                left_keys,
                left_schema,
                right_keys,
                right_schema,
                residual_expr,
                combined,
                build_scan,
                self._note(node),
            )
        return self.backend.nested_loop_join(
            left_op, right_op, residual_expr, right_schema, combined
        )


def _side_of(
    expr: Expr, left: Schema, right: Schema, combined: Schema
) -> Optional[str]:
    """Which join input does this conjunct exclusively reference?

    Returns "left", "right", or None (both sides / unresolvable).  Position
    references are classified by offset; column references by resolution in
    the combined schema (which is authoritative about duplicates).
    """
    positions = []
    for ref in expr.column_refs():
        try:
            positions.append(combined.resolve(ref.name, ref.qualifier))
        except SchemaError:
            return None
    for node in _walk_expr(expr):
        if isinstance(node, PositionRef):
            positions.append(node.position)
    if not positions:
        return "left"  # constant predicate; evaluate once on the cheap side
    if all(p < len(left) for p in positions):
        return "left"
    if all(p >= len(left) for p in positions):
        return "right"
    return None


def _equi_keys(
    expr: Expr, left: Schema, right: Schema, combined: Schema
) -> Optional[Tuple[Expr, Expr]]:
    """If ``expr`` is ``col_a = col_b`` with one column per side, return the
    pair (left-side expr over left schema, right-side expr over combined
    schema) for hash keying; else None."""
    if not isinstance(expr, Comparison) or expr.op != "=":
        return None
    sides = []
    for operand in (expr.left, expr.right):
        position = _single_position(operand, combined)
        if position is None:
            return None
        sides.append((operand, position))
    (a_expr, a_pos), (b_expr, b_pos) = sides
    if a_pos < len(left) <= b_pos:
        return (_as_position(a_expr, a_pos, combined), _as_position(b_expr, b_pos, combined))
    if b_pos < len(left) <= a_pos:
        return (_as_position(b_expr, b_pos, combined), _as_position(a_expr, a_pos, combined))
    return None


def _single_position(expr: Expr, combined: Schema) -> Optional[int]:
    if isinstance(expr, ColumnRef):
        try:
            return combined.resolve(expr.name, expr.qualifier)
        except SchemaError:
            return None
    if isinstance(expr, PositionRef):
        return expr.position
    return None


def _as_position(expr: Expr, position: int, combined: Schema) -> PositionRef:
    return PositionRef(position, combined[position].type)


def _rebase(ref: PositionRef, offset: int) -> PositionRef:
    return PositionRef(ref.position - offset, ref.type)


def _walk_expr(expr: Expr):
    yield expr
    for child in expr.children():
        yield from _walk_expr(child)
