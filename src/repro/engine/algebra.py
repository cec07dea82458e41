"""Logical relational algebra plans.

Plan nodes are immutable descriptions; the planner compiles them to
physical iterators (:mod:`repro.engine.physical`).  Schema derivation is
done here so that analysis and the parsimonious translation can reason
about plan output columns without executing anything.

The node set is the positive relational algebra plus the extras the SQL
subset needs: distinct, grouping/aggregation, sort, limit, values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.expressions import Expr
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, SqlType
from repro.errors import PlanError, TypeMismatchError


class PlanNode:
    """Base class for logical plan nodes."""

    def schema(self) -> Schema:
        raise NotImplementedError

    def children(self) -> Sequence["PlanNode"]:
        return ()

    # -- debugging ----------------------------------------------------------
    def explain(self, indent: int = 0, notes: Optional[Dict[int, List[str]]] = None) -> str:
        """The plan as an indented tree.  ``notes`` maps ``id(node)`` to
        what the node's operator reported at run time (see
        :func:`repro.engine.planner.trace_plans`); each note is printed
        under its node."""
        pad = "  " * indent
        lines = [pad + self._describe()]
        if notes:
            lines.extend(f"{pad}  -- {note}" for note in notes.get(id(self), ()))
        for child in self.children():
            lines.append(child.explain(indent + 1, notes))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class RelationScan(PlanNode):
    """Leaf: scan an in-memory relation (a base table snapshot or an
    intermediate result), optionally re-qualified with an alias."""

    relation: Relation
    alias: Optional[str] = None

    def schema(self) -> Schema:
        if self.alias is not None:
            return self.relation.schema.with_qualifier(self.alias)
        return self.relation.schema

    def _describe(self) -> str:
        alias = f" as {self.alias}" if self.alias else ""
        return f"Scan({len(self.relation)} rows{alias})"


@dataclass(frozen=True)
class Values(PlanNode):
    """Leaf: an inline constant relation (INSERT ... VALUES, test fixtures)."""

    value_schema: Schema
    rows: Tuple[tuple, ...]

    def schema(self) -> Schema:
        return self.value_schema

    def _describe(self) -> str:
        return f"Values({len(self.rows)} rows)"


@dataclass(frozen=True)
class Select(PlanNode):
    """Filter rows by a boolean predicate (sigma)."""

    child: PlanNode
    predicate: Expr

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def schema(self) -> Schema:
        child_schema = self.child.schema()
        t = self.predicate.infer_type(child_schema)
        if not t.is_boolean:
            raise TypeMismatchError(f"WHERE predicate has type {t}, expected BOOLEAN")
        return child_schema

    def _describe(self) -> str:
        return f"Select[{self.predicate!r}]"


@dataclass(frozen=True)
class Project(PlanNode):
    """Generalized projection (pi): each item is (expression, output name).

    Multiset semantics -- no duplicate elimination (essential for
    U-relations, where eliminating duplicates would change lineage).
    """

    child: PlanNode
    items: Tuple[Tuple[Expr, str], ...]

    def __init__(self, child: PlanNode, items: Sequence[Tuple[Expr, str]]):
        if not items:
            raise PlanError("projection needs at least one item")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "items", tuple(items))

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def schema(self) -> Schema:
        child_schema = self.child.schema()
        return Schema(
            Column(name, expr.infer_type(child_schema)) for expr, name in self.items
        )

    def _describe(self) -> str:
        cols = ", ".join(name for _, name in self.items)
        return f"Project[{cols}]"


@dataclass(frozen=True)
class Join(PlanNode):
    """Inner join (cross product when predicate is None)."""

    left: PlanNode
    right: PlanNode
    predicate: Optional[Expr] = None

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def schema(self) -> Schema:
        combined = self.left.schema().concat(self.right.schema())
        if self.predicate is not None:
            t = self.predicate.infer_type(combined)
            if not t.is_boolean:
                raise TypeMismatchError(f"JOIN predicate has type {t}, expected BOOLEAN")
        return combined

    def _describe(self) -> str:
        if self.predicate is None:
            return "CrossJoin"
        return f"Join[{self.predicate!r}]"


@dataclass(frozen=True)
class Union(PlanNode):
    """Multiset union (SQL UNION ALL).  The schema is the left child's,
    with INTEGER columns widened to FLOAT where the right child requires."""

    left: PlanNode
    right: PlanNode

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def schema(self) -> Schema:
        ls, rs = self.left.schema(), self.right.schema()
        if not ls.union_compatible_with(rs):
            raise PlanError(
                f"UNION inputs are not compatible: {ls.types} vs {rs.types}"
            )
        cols = []
        for lc, rc in zip(ls, rs):
            widened: SqlType = FLOAT if {lc.type, rc.type} == {INTEGER, FLOAT} else lc.type
            cols.append(Column(lc.name, widened, lc.qualifier))
        return Schema(cols)

    def _describe(self) -> str:
        return "UnionAll"


@dataclass(frozen=True)
class Distinct(PlanNode):
    """Duplicate elimination.  Only legal on certain data (the analyzer
    enforces the paper's restriction for uncertain relations)."""

    child: PlanNode

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.child.schema()


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a GROUP BY: ``function(argument)`` named ``name``.

    ``argument`` is None for ``count(*)``.  ``second`` carries the second
    argument of two-argument aggregates (``argmax(arg, value)``).
    """

    function: str
    argument: Optional[Expr]
    name: str
    second: Optional[Expr] = None
    distinct: bool = False

    _KNOWN = {"sum", "count", "avg", "min", "max", "count_star", "argmax"}

    def __post_init__(self):
        if self.function not in self._KNOWN:
            raise PlanError(f"unknown aggregate {self.function!r}")
        if self.function == "argmax" and (self.argument is None or self.second is None):
            raise PlanError("argmax needs two arguments")

    def result_type(self, input_schema: Schema) -> SqlType:
        if self.function in ("count", "count_star"):
            return INTEGER
        if self.function == "avg":
            return FLOAT
        assert self.argument is not None
        arg_type = self.argument.infer_type(input_schema)
        if self.function in ("sum",):
            if not arg_type.is_numeric:
                raise TypeMismatchError(f"sum over non-numeric type {arg_type}")
            return arg_type
        if self.function in ("min", "max"):
            return arg_type
        if self.function == "argmax":
            assert self.second is not None
            value_type = self.second.infer_type(input_schema)
            if not value_type.is_numeric:
                raise TypeMismatchError(f"argmax value must be numeric, got {value_type}")
            return arg_type
        raise AssertionError(self.function)


@dataclass(frozen=True)
class GroupBy(PlanNode):
    """Grouping with aggregates.

    Output columns: one per group expression (named), then one per
    aggregate.  ``argmax`` may emit several rows per group -- one per
    maximizing argument value -- per the paper's definition ("outputs all
    the arg values in a group whose tuples have a maximum value").
    """

    child: PlanNode
    group_items: Tuple[Tuple[Expr, str], ...]
    aggregates: Tuple[AggregateSpec, ...]

    def __init__(
        self,
        child: PlanNode,
        group_items: Sequence[Tuple[Expr, str]],
        aggregates: Sequence[AggregateSpec],
    ):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "group_items", tuple(group_items))
        object.__setattr__(self, "aggregates", tuple(aggregates))

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def schema(self) -> Schema:
        child_schema = self.child.schema()
        cols = [
            Column(name, expr.infer_type(child_schema))
            for expr, name in self.group_items
        ]
        for spec in self.aggregates:
            cols.append(Column(spec.name, spec.result_type(child_schema)))
        return Schema(cols)

    def _describe(self) -> str:
        keys = ", ".join(name for _, name in self.group_items)
        aggs = ", ".join(f"{a.function}->{a.name}" for a in self.aggregates)
        return f"GroupBy[{keys}][{aggs}]"


@dataclass(frozen=True)
class Sort(PlanNode):
    """ORDER BY: items are (expression, ascending)."""

    child: PlanNode
    items: Tuple[Tuple[Expr, bool], ...]

    def __init__(self, child: PlanNode, items: Sequence[Tuple[Expr, bool]]):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "items", tuple(items))

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def schema(self) -> Schema:
        schema = self.child.schema()
        for expr, _ in self.items:
            expr.infer_type(schema)
        return schema


@dataclass(frozen=True)
class Limit(PlanNode):
    child: PlanNode
    count: Optional[int]
    offset: int = 0

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.child.schema()

    def _describe(self) -> str:
        return f"Limit[{self.count} offset {self.offset}]"


@dataclass(frozen=True)
class Alias(PlanNode):
    """Re-qualify the child's columns under a new table alias, optionally
    renaming the columns (``FROM (subquery) AS t(a, b)``)."""

    child: PlanNode
    alias: str
    column_names: Optional[Tuple[str, ...]] = None

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def schema(self) -> Schema:
        schema = self.child.schema()
        if self.column_names is not None:
            schema = schema.rename(list(self.column_names))
        return schema.with_qualifier(self.alias)

    def _describe(self) -> str:
        return f"Alias[{self.alias}]"


@dataclass(frozen=True)
class Relabel(PlanNode):
    """The child's rows under a different equal-arity schema -- the plan
    form of :meth:`Relation.with_schema`.  The translation uses it where
    per-column qualifiers are needed that :class:`Alias` (one qualifier)
    and :class:`Project` (unqualified names) cannot express."""

    child: PlanNode
    new_schema: Schema

    def __post_init__(self):
        if len(self.new_schema) != len(self.child.schema()):
            raise PlanError("Relabel requires equal arity")

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.new_schema


def walk(plan: PlanNode):
    """Pre-order traversal of a plan tree."""
    yield plan
    for child in plan.children():
        yield from walk(child)
