"""Logical-to-physical planning.

The planner compiles a logical plan tree into physical operators
(:mod:`repro.engine.physical`: column batches of ~1024 rows, column
kernels from :mod:`repro.engine.kernels`), with the classic heuristic
rewrites a PostgreSQL-style executor relies on:

- **predicate pushdown**: selection conjuncts that mention only one join
  input are pushed below the join;
- **equi-join detection**: conjuncts of the form ``left_col = right_col``
  become hash-join keys; remaining conjuncts stay as a residual filter;
- **build-side choice**: the right input is the hash table's build side.

These rewrites matter for the reproduction: the parsimonious translation
of [1] produces join conditions over U-relation condition columns, and the
experiments on query processing (C-TRANS) depend on joins not degenerating
into nested loops.

:func:`run` compiles and executes a plan.  :func:`trace_plans` records
every plan fragment the calling thread executes and what its operators
reported at run time (vectorized filter, cached join build table) -- the
substrate of the SQL ``EXPLAIN`` statement.
"""

from __future__ import annotations

import threading
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
    Kernel,
    compile_kernel,
    compile_vector_filter,
    split_consistency,
)
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.errors import PlanError, SchemaError

#: ``id(plan node)`` -> what its operator reported while running.
PlanNotes = Dict[int, List[str]]

#: One executed plan: the plan and its run-time notes.
PlanTrace = Tuple[algebra.PlanNode, PlanNotes]


class _TraceStack(threading.local):
    """The calling thread's active plan-trace buffers (via
    :func:`trace_plans`).  Per thread, because the server runs one thread
    per connection: one session's EXPLAIN must neither see another
    session's plans nor lose its buffer to another session's exit."""

    def __init__(self) -> None:
        self.buffers: List[List[PlanTrace]] = []


_TRACES = _TraceStack()


@contextmanager
def trace_plans() -> Iterator[List[PlanTrace]]:
    """Collect (plan, notes) for every plan executed in this scope; the
    EXPLAIN statement renders them (``plan.explain(notes=notes)``)."""
    buffer: List[PlanTrace] = []
    _TRACES.buffers.append(buffer)
    try:
        yield buffer
    finally:
        _TRACES.buffers.pop()


def _scan_of(node: algebra.PlanNode) -> Optional[algebra.RelationScan]:
    """The base-table scan under a chain of aliases, if that is all there
    is (aliases rename columns but never change rows)."""
    while isinstance(node, (algebra.Alias, algebra.Relabel)):
        node = node.child
    return node if isinstance(node, algebra.RelationScan) else None


def run(node: algebra.PlanNode) -> Relation:
    """Compile and execute, materializing a relation."""
    buffers = _TRACES.buffers
    notes: Optional[PlanNotes] = {} if buffers else None
    compiled = _Planner(notes).compile(node)
    result = physical.execute_batches(compiled, node.schema())
    for buffer in buffers:
        buffer.append((node, notes))
    return result


def _optional_kernel(expr: Optional[Expr], schema: Schema) -> Optional[Kernel]:
    return compile_kernel(expr, schema) if expr is not None else None


class _Planner:
    def __init__(self, notes: Optional[PlanNotes] = None):
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
        return physical.batch_scan(node.relation)

    def _compile_values(self, node: algebra.Values):
        return physical.batch_values(node.rows, len(node.value_schema))

    # -- unary operators -------------------------------------------------------
    def _compile_select(self, node: algebra.Select):
        # Pushdown: if the child is a join, split conjuncts by side.
        if isinstance(node.child, algebra.Join):
            return self._compile_join_with_filter(node.child, node.predicate)
        return self._filtered(node.child, [node.predicate])

    def _filtered(self, child: algebra.PlanNode, conjuncts: Sequence[Expr]):
        """``child`` compiled, under the conjunction of ``conjuncts`` if
        there are any.  A filter sitting directly on a scan becomes one
        scan-level operator, so that it can run over the relation's whole
        columns."""
        if not conjuncts:
            return self.compile(child)
        predicate = conjunction(conjuncts)
        schema = child.schema()
        scan = _scan_of(child)
        if scan is not None:
            return physical.batch_scan_filter(
                scan.relation,
                compile_vector_filter(predicate, schema),
                compile_kernel(predicate, schema),
                self._note(child),
            )
        return physical.batch_filter(
            self.compile(child), compile_kernel(predicate, schema)
        )

    def _compile_project(self, node: algebra.Project):
        schema = node.child.schema()
        return physical.batch_project(
            self.compile(node.child), [compile_kernel(e, schema) for e, _ in node.items]
        )

    def _compile_distinct(self, node: algebra.Distinct):
        return physical.batch_distinct(
            self.compile(node.child), [c.type for c in node.child.schema()]
        )

    def _compile_sort(self, node: algebra.Sort):
        schema = node.child.schema()
        return physical.batch_sort(
            self.compile(node.child),
            [compile_kernel(expr, schema) for expr, _ in node.items],
            [asc for _, asc in node.items],
            len(schema),
        )

    def _compile_limit(self, node: algebra.Limit):
        return physical.batch_limit(self.compile(node.child), node.count, node.offset)

    def _compile_alias(self, node: algebra.Alias):
        # Aliasing only changes the schema, not the rows.
        return self.compile(node.child)

    _compile_relabel = _compile_alias

    def _compile_groupby(self, node: algebra.GroupBy):
        schema = node.child.schema()
        return physical.batch_hash_aggregate(
            self.compile(node.child),
            [compile_kernel(expr, schema) for expr, _ in node.group_items],
            [c.type for c in node.schema()][: len(node.group_items)],
            [spec.function for spec in node.aggregates],
            [_optional_kernel(spec.argument, schema) for spec in node.aggregates],
            [_optional_kernel(spec.second, schema) for spec in node.aggregates],
            [spec.distinct for spec in node.aggregates],
        )

    # -- binary operators ------------------------------------------------------
    def _compile_union(self, node: algebra.Union):
        return physical.batch_union_all(
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
        if not equi:
            return physical.batch_nested_loop_join(
                left_op,
                right_op,
                len(right_schema),
                _optional_kernel(residual_expr, combined),
            )

        left_keys = [lk for lk, _ in equi]
        # Right key expressions reference the combined schema positions;
        # rebase them onto the right schema.
        right_keys = [_rebase(rk, len(left_schema)) for _, rk in equi]
        # An unfiltered scan keyed on one bare column is its own build
        # side: nothing to materialize, and its hash table is kept.
        right_scan = _scan_of(node.right)
        build_scan = None
        if right_scan is not None and not right_only and len(equi) == 1:
            build_scan = (right_scan.relation, right_keys[0].position)
        consistency, rest = split_consistency(residual_expr)
        return physical.batch_hash_join(
            left_op,
            right_op,
            [compile_kernel(k, left_schema) for k in left_keys],
            [compile_kernel(k, right_schema) for k in right_keys],
            [k.type for k in right_keys],
            len(right_schema),
            _optional_kernel(rest, combined),
            (consistency, compile_kernel(consistency, combined))
            if consistency is not None
            else None,
            build_scan,
            self._note(node),
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
