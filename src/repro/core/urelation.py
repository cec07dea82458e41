"""U-relations: the representation system of MayBMS (Section 2.1).

A U-relation is a standard relation extended with *condition columns*:
pairs of integers, a variable id and the value assigned to it.  This
module stores exactly that wide relational encoding -- payload columns
followed by ``cond_arity`` pairs ``(_v{i}, _d{i})`` -- and owns its
layout: other modules take condition-column positions from
:func:`condition_columns` and :func:`atom_positions`.

Section 2.4 also stores each assignment's probability as a float next to
its pair, because there ``conf()`` runs as SQL aggregates inside
PostgreSQL.  Here a probability lives once, in the
:class:`~repro.core.variables.VariableRegistry` the U-relation is bound
to, which is durable on its own (``register_variable`` redo records and
registry checkpoint segments).

Typed-certain (t-certain) tables are the ``cond_arity = 0`` case.
Attribute-level uncertainty by vertical decomposition (Section 2.1) is
not exposed as SQL.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.lineage import Clause, canonical_clause, row_clauses
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine import algebra, planner
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER, NULL
from repro.errors import ConditionError, SchemaError

#: Column-name prefixes of the wide encoding's condition pairs.
VAR_PREFIX = "_v"
VAL_PREFIX = "_d"


def condition_columns(cond_arity: int, start: int = 0) -> List[Column]:
    """The schema columns of ``cond_arity`` condition pairs, numbered
    from ``start``."""
    cols: List[Column] = []
    for i in range(start, start + cond_arity):
        cols.append(Column(f"{VAR_PREFIX}{i}", INTEGER))
        cols.append(Column(f"{VAL_PREFIX}{i}", INTEGER))
    return cols


def atom_positions(base: int, cond_arity: int) -> List[Tuple[int, int]]:
    """The (variable, value) column positions of ``cond_arity`` condition
    pairs whose columns start at position ``base``."""
    return [(base + 2 * i, base + 2 * i + 1) for i in range(cond_arity)]


def encode_condition(clause: Clause, cond_arity: int) -> tuple:
    """Flatten a clause into ``cond_arity`` (var, val) pairs, padding
    with the reserved always-true atom."""
    if len(clause) > cond_arity:
        raise ConditionError(
            f"condition {clause!r} needs {len(clause)} pairs, "
            f"encoding has {cond_arity}"
        )
    flat: List[int] = []
    for atom in clause:
        flat.extend(atom)
    flat.extend((TOP_VARIABLE, 0) * (cond_arity - len(clause)))
    return tuple(flat)


class URelation:
    """A U-relation in the wide relational encoding.

    ``relation`` holds payload columns followed by condition pairs;
    ``registry`` is the variable table the conditions refer to.

    A U-relation is either *materialized* (built from a relation) or
    *lazy* (built by :meth:`from_plan` from a logical plan that computes
    it).  The translation operators compose plans on lazy U-relations, so
    a select-join-project chain is one plan; reading ``relation`` runs
    it -- once, the result is kept and the plan dropped.  ``schema`` and
    everything derived from it never run the plan.
    """

    __slots__ = (
        "_relation",
        "_plan",
        "_conditions",
        "schema",
        "payload_arity",
        "cond_arity",
        "registry",
    )

    def __init__(
        self,
        relation: Relation,
        payload_arity: int,
        cond_arity: int,
        registry: VariableRegistry,
    ) -> None:
        self._relation: Optional[Relation] = relation
        self._plan: Optional[algebra.PlanNode] = None
        self._init(relation.schema, payload_arity, cond_arity, registry)

    def _init(
        self,
        schema: Schema,
        payload_arity: int,
        cond_arity: int,
        registry: VariableRegistry,
    ) -> None:
        conditions = len(condition_columns(cond_arity))
        if len(schema) != payload_arity + conditions:
            raise SchemaError(
                f"U-relation schema has {len(schema)} columns, "
                f"expected {payload_arity} payload + {conditions} condition"
            )
        #: The stacked condition arrays, once read (the rows never change).
        self._conditions: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: The wide schema: payload columns, then the condition pairs.
        self.schema = schema
        self.payload_arity = payload_arity
        self.cond_arity = cond_arity
        self.registry = registry

    @staticmethod
    def from_plan(
        plan: algebra.PlanNode,
        payload_arity: int,
        cond_arity: int,
        registry: VariableRegistry,
    ) -> "URelation":
        """A lazy U-relation: the rows ``plan`` produces, once someone
        reads them.  The plan's schema is derived (and so the plan is
        type-checked) here, not when it runs."""
        urel = URelation.__new__(URelation)
        urel._relation = None
        urel._plan = plan
        urel._init(plan.schema(), payload_arity, cond_arity, registry)
        return urel

    @property
    def relation(self) -> Relation:
        """The wide-encoded rows (runs a lazy U-relation's plan on first
        read)."""
        relation = self._relation
        if relation is None:
            relation = self._relation = planner.run(self.plan)
            self._plan = None
        return relation

    @property
    def known_length(self) -> Optional[int]:
        """The row count if the rows are materialized, else None."""
        return None if self._relation is None else len(self._relation)

    @property
    def plan(self) -> algebra.PlanNode:
        """A logical plan producing this U-relation: its own while lazy,
        a scan of the materialized rows afterwards."""
        plan = self._plan
        if plan is None:
            return algebra.RelationScan(self.relation)
        return plan

    def with_schema(self, schema: Schema) -> "URelation":
        """The same rows under a different equal-arity wide schema, without
        running a lazy plan (materialized rows and their column cell are
        shared, see :meth:`Relation.with_schema`)."""
        if self._relation is not None:
            return URelation(
                self._relation.with_schema(schema),
                self.payload_arity,
                self.cond_arity,
                self.registry,
            )
        return URelation.from_plan(
            algebra.Relabel(self.plan, schema),
            self.payload_arity,
            self.cond_arity,
            self.registry,
        )

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def from_conditions(
        payload_schema: Schema,
        rows: Sequence[tuple],
        conditions: Sequence[Clause],
        registry: VariableRegistry,
        cond_arity: Optional[int] = None,
    ) -> "URelation":
        """Build a U-relation from payload rows and parallel conditions,
        each a canonical clause."""
        if len(rows) != len(conditions):
            raise SchemaError(
                f"{len(rows)} rows but {len(conditions)} conditions"
            )
        if cond_arity is None:
            cond_arity = max((len(c) for c in conditions), default=0)
        schema = Schema(tuple(payload_schema) + tuple(condition_columns(cond_arity)))
        wide_rows = [
            tuple(row) + encode_condition(cond, cond_arity)
            for row, cond in zip(rows, conditions)
        ]
        return URelation(
            Relation(schema, wide_rows), len(payload_schema), cond_arity, registry
        )

    @staticmethod
    def t_certain(relation: Relation, registry: VariableRegistry) -> "URelation":
        """Wrap a standard relation as a t-certain table (no conditions)."""
        return URelation(relation, len(relation.schema), 0, registry)

    # -- views ----------------------------------------------------------------
    @property
    def is_t_certain(self) -> bool:
        return self.cond_arity == 0

    @property
    def payload_schema(self) -> Schema:
        return self.schema.project(range(self.payload_arity))

    def payload_relation(self) -> Relation:
        """The payload columns only (conditions dropped, duplicates kept)."""
        if self.cond_arity == 0:
            return self.relation  # t-certain: nothing to drop
        return self.relation.project_positions(list(range(self.payload_arity)))

    def condition_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The condition columns as two int64 arrays of shape
        ``(cond_arity, rows)`` -- variables and values -- at every size.
        A t-certain relation reads as one column of ``TOP_VARIABLE``
        padding: its rows' conditions are all true.

        The writers admit only 64-bit integers into condition columns
        (:meth:`~repro.engine.transactions.Transaction.insert`), so a
        column without an exact int64 mirror is corrupt: ConditionError.
        The arrays are stacked once per U-relation and read-only.
        """
        if self._conditions is None:
            self._conditions = self._stack_conditions()
        return self._conditions

    def _stack_conditions(self) -> Tuple[np.ndarray, np.ndarray]:
        relation = self.relation
        if self.cond_arity == 0:
            padding = np.zeros((1, len(relation)), dtype=np.int64)
            padding.flags.writeable = False
            return padding, padding

        def mirror(position: int) -> np.ndarray:
            column = relation.mirror(position, "int64")
            if column is None:
                raise ConditionError(
                    f"condition column {relation.schema[position].name} holds "
                    "a value that is not a 64-bit integer"
                )
            return column

        atoms = atom_positions(self.payload_arity, self.cond_arity)
        variables = np.stack([mirror(var_at) for var_at, _ in atoms])
        values = np.stack([mirror(value_at) for _, value_at in atoms])
        variables.flags.writeable = values.flags.writeable = False
        return variables, values

    def condition_probabilities(self) -> List[float]:
        """Per-row marginal probability of each row's condition, straight
        from the condition columns.

        Atom marginals are multiplied a column at a time, without decoding
        clauses, after one registry gather over all condition columns
        (:meth:`VariableRegistry.probabilities`): ``1.0 * p1 * ... * pk``
        in column order.  Rows with a repeated variable (possible only
        before a consistency filter runs) fall back to their canonical
        clause, so duplicates count once and contradictions yield 0.
        """
        variables, values = self.condition_arrays()
        marginals = self.registry.probabilities(variables, values)
        marginals[variables == TOP_VARIABLE] = 1.0  # whatever the value
        product = np.ones(len(variables[0]))
        repeated = np.zeros(len(product), dtype=bool)
        for i in range(len(variables)):
            product *= marginals[i]
            padding = variables[i] == TOP_VARIABLE
            for j in range(i):
                repeated |= (variables[i] == variables[j]) & ~padding
        out = product.tolist()
        for row in np.flatnonzero(repeated).tolist():
            out[row] = self._decoded_probability(
                variables[:, row].tolist(), values[:, row].tolist()
            )
        return out

    def _decoded_probability(
        self, variables: Sequence[int], values: Sequence[int]
    ) -> float:
        """P(condition) of one row given as its variables and values."""
        clause = canonical_clause(zip(variables, values))
        if clause is None:
            return 0.0
        return self.registry.assignment_probability(dict(clause))

    def __len__(self) -> int:
        return len(self.relation)

    def __repr__(self) -> str:
        return (
            f"<URelation payload={self.payload_schema.names} "
            f"cond_arity={self.cond_arity} rows={len(self.relation)}>"
        )

    # -- possible-worlds semantics ---------------------------------------------------
    def possible_payloads(self) -> Relation:
        """Distinct payload tuples possible in at least one world with
        positive probability (the core of the ``possible`` construct)."""
        payload_arity = self.payload_arity
        seen: Set[tuple] = set()
        rows: List[tuple] = []
        for row, probability in zip(self.relation, self.condition_probabilities()):
            if probability <= 0.0:
                continue
            payload = row[:payload_arity]
            if payload not in seen:
                seen.add(payload)
                rows.append(payload)
        return Relation(self.payload_schema, rows)

    # -- representation maintenance -------------------------------------------------
    def pad_to(self, cond_arity: int) -> "URelation":
        """Widen the condition columns to ``cond_arity`` with ⊤ padding."""
        if cond_arity < self.cond_arity:
            raise SchemaError(
                f"cannot narrow condition arity {self.cond_arity} -> {cond_arity}"
            )
        if cond_arity == self.cond_arity:
            return self
        extra = cond_arity - self.cond_arity
        padding = (TOP_VARIABLE, 0) * extra
        schema = Schema(
            tuple(self.relation.schema) + tuple(condition_columns(extra, self.cond_arity))
        )
        rows = [row + padding for row in self.relation]
        return URelation(Relation(schema, rows), self.payload_arity, cond_arity, self.registry)

    # -- presentation ----------------------------------------------------------
    def pretty(self, max_rows: Optional[int] = None) -> str:
        """Figure-1 style rendering: payload columns, a symbolic
        ``condition`` column (``x3 ↦ 1``), and a probability column."""
        header = list(self.payload_schema.names) + ["condition", "P"]
        body = []
        rows = self.relation.rows[:max_rows]
        for row, clause in zip(rows, row_clauses(self)):
            if clause is None:
                text, prob = "⊥", 0.0
            else:
                text = " ∧ ".join(f"x{var}↦{val}" for var, val in clause) or "⊤"
                prob = self.registry.assignment_probability(dict(clause))
            cells = ["NULL" if v is NULL else str(v) for v in row[: self.payload_arity]]
            body.append(cells + [text, f"{prob:.6g}"])
        widths = [len(h) for h in header]
        for line in body:
            for i, cell in enumerate(line):
                widths[i] = max(widths[i], len(cell))
        out = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for line in body:
            out.append(" | ".join(c.ljust(w) for c, w in zip(line, widths)))
        out.append(f"({len(self.relation)} rows)")
        return "\n".join(out)

