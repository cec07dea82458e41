"""A reference evaluator for logical plans: the oracle the executor is
tested against.

It walks the plan tree recursively and evaluates every node over Python
row tuples with the per-row expression closures
(:meth:`repro.engine.expressions.Expr.compile`).  There is no planner,
no column kernel, no NumPy, no predicate pushdown and no cached
structure: a ``Select`` filters its child's rows, a ``Join`` pairs rows
and keeps those its own predicate makes TRUE.

Keys follow SQL's comparison rules (:func:`compare_values` and
:func:`sort_key`), never Python's ``dict`` identity:

- a join keeps a pair only when its predicate is TRUE, so NULL and NaN
  keys never match.  The cross-side ``col = col`` conjuncts of the join's
  own predicate only narrow the candidates (a hash on their
  :func:`sort_key`), which keeps 50k-row joins tractable;
- GROUP BY, DISTINCT and ``count(distinct ...)`` put values with equal
  :func:`sort_key` together: all NULLs in one group, all NaNs in one.

Output order is defined, not incidental: scans and filters keep input
order, a join emits its pairs left row by left row (right rows in their
order), groups come in order of first appearance, and sorts are stable.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import algebra
from repro.engine.expressions import ColumnRef, Comparison, Expr, PositionRef, conjuncts_of
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import NULL, compare_values, sort_key
from repro.errors import PlanError, SchemaError

Row = Tuple[Any, ...]


def run(node: algebra.PlanNode) -> Relation:
    """Evaluate ``node``; the same contract as ``planner.run``."""
    return Relation(node.schema(), _rows(node))


def _rows(node: algebra.PlanNode) -> List[Row]:
    evaluate = _NODES.get(type(node))
    if evaluate is None:
        raise PlanError(f"the reference cannot evaluate {type(node).__name__}")
    return evaluate(node)


def _key(values: Sequence[Any]) -> tuple:
    return tuple(sort_key(v) for v in values)


# -- leaves ------------------------------------------------------------------


def _scan(node: algebra.RelationScan) -> List[Row]:
    return list(node.relation.rows)


def _values(node: algebra.Values) -> List[Row]:
    return Relation(node.value_schema, node.rows).rows


# -- unary -------------------------------------------------------------------


def _select(node: algebra.Select) -> List[Row]:
    predicate = node.predicate.compile(node.child.schema())
    return [row for row in _rows(node.child) if predicate(row) is True]


def _project(node: algebra.Project) -> List[Row]:
    schema = node.child.schema()
    items = [expr.compile(schema) for expr, _ in node.items]
    return [tuple(item(row) for item in items) for row in _rows(node.child)]


def _distinct(node: algebra.Distinct) -> List[Row]:
    seen = set()
    out = []
    for row in _rows(node.child):
        key = _key(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _sort(node: algebra.Sort) -> List[Row]:
    schema = node.child.schema()
    rows = _rows(node.child)
    # Stable sorts compose: apply the keys last to first.
    for expr, ascending in reversed(node.items):
        value = expr.compile(schema)
        rows.sort(key=lambda row: sort_key(value(row)), reverse=not ascending)
    return rows


def _limit(node: algebra.Limit) -> List[Row]:
    rows = _rows(node.child)[node.offset :]
    return rows if node.count is None else rows[: node.count]


def _child(node) -> List[Row]:
    return _rows(node.child)


def _group_by(node: algebra.GroupBy) -> List[Row]:
    schema = node.child.schema()
    keys = [expr.compile(schema) for expr, _ in node.group_items]
    groups: Dict[tuple, Tuple[Row, List[Row]]] = {}
    for row in _rows(node.child):
        values = tuple(key(row) for key in keys)
        groups.setdefault(_key(values), (values, []))[1].append(row)
    if not groups and not keys:
        groups[()] = ((), [])  # an ungrouped aggregate over no rows
    out = []
    for values, rows in groups.values():
        results = [_aggregate(spec, schema, rows) for spec in node.aggregates]
        # argmax may give several values: one output row per combination.
        out.extend(values + combo for combo in itertools.product(*results))
    return out


def _aggregate(spec: algebra.AggregateSpec, schema: Schema, rows: List[Row]) -> List[Any]:
    """The aggregate's value(s) over one group's rows."""
    if spec.function == "count_star":
        return [len(rows)]
    argument = spec.argument.compile(schema)
    second: Callable[[Row], Any] = (
        spec.second.compile(schema) if spec.second is not None else (lambda row: None)
    )
    pairs = [(argument(row), second(row)) for row in rows]
    pairs = [(a, b) for a, b in pairs if a is not NULL]  # aggregates skip NULLs
    if spec.distinct:
        firsts: Dict[tuple, Tuple[Any, Any]] = {}
        for a, b in pairs:
            firsts.setdefault(_key([a]), (a, b))
        pairs = list(firsts.values())
    values = [a for a, _ in pairs]
    function = spec.function
    if function == "count":
        return [len(values)]
    if not values:
        return [NULL]
    if function == "sum":
        return [reduce(operator.add, values)]
    if function == "avg":
        return [reduce(operator.add, values) / len(values)]
    if function == "min":
        return [min(values, key=sort_key)]
    if function == "max":
        return [max(values, key=sort_key)]
    if function == "argmax":
        scored = [(a, b) for a, b in pairs if b is not NULL]
        if not scored:
            return [NULL]
        best = max((b for _, b in scored), key=sort_key)
        return [a for a, b in scored if compare_values(b, best) == 0]
    raise PlanError(f"the reference has no aggregate {function!r}")


# -- binary ------------------------------------------------------------------


def _union(node: algebra.Union) -> List[Row]:
    return _rows(node.left) + _rows(node.right)


def _join(node: algebra.Join) -> List[Row]:
    left_rows, right_rows = _rows(node.left), _rows(node.right)
    if node.predicate is None:
        return [left + right for left in left_rows for right in right_rows]
    left_width = len(node.left.schema())
    combined = node.left.schema().concat(node.right.schema())
    predicate = node.predicate.compile(combined)
    left_keys: List[int] = []
    right_keys: List[int] = []
    for conjunct in conjuncts_of(node.predicate):
        pair = _equality_positions(conjunct, combined)
        if pair is None:
            continue
        low, high = sorted(pair)
        if low < left_width <= high:
            left_keys.append(low)
            right_keys.append(high - left_width)
    buckets: Dict[tuple, List[Row]] = {}
    for right in right_rows:
        buckets.setdefault(_key([right[p] for p in right_keys]), []).append(right)
    out = []
    for left in left_rows:
        for right in buckets.get(_key([left[p] for p in left_keys]), ()):
            row = left + right
            if predicate(row) is True:
                out.append(row)
    return out


def _equality_positions(conjunct: Expr, schema: Schema) -> Optional[Tuple[int, int]]:
    """``(a, b)`` when ``conjunct`` is ``column a = column b``."""
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    positions = []
    for operand in (conjunct.left, conjunct.right):
        if isinstance(operand, PositionRef):
            positions.append(operand.position)
        elif isinstance(operand, ColumnRef):
            try:
                positions.append(schema.resolve(operand.name, operand.qualifier))
            except SchemaError:
                return None
        else:
            return None
    return positions[0], positions[1]


_NODES: Dict[type, Callable[[Any], List[Row]]] = {
    algebra.RelationScan: _scan,
    algebra.Values: _values,
    algebra.Select: _select,
    algebra.Project: _project,
    algebra.Distinct: _distinct,
    algebra.Sort: _sort,
    algebra.Limit: _limit,
    algebra.Alias: _child,
    algebra.Relabel: _child,
    algebra.GroupBy: _group_by,
    algebra.Union: _union,
    algebra.Join: _join,
}
