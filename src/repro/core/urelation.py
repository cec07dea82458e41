"""U-relations: the representation system of MayBMS (Section 2.1).

A U-relation is a standard relation extended with *condition columns*
(pairs of integers: variable id, assigned value) and *probability columns*
(floats caching the marginal probability of each assignment).  This module
stores exactly that wide relational encoding -- payload columns followed
by ``cond_arity`` triples ``(_v{i}, _d{i}, _p{i})`` -- the same layout the
paper describes for the PostgreSQL implementation ("storing the variables
and their possible assignments as pairs of integers, and probabilities as
floating-point numbers", Section 2.4).

Typed-certain (t-certain) tables are the ``cond_arity = 0`` case.

Attribute-level uncertainty is achieved by *vertical decomposition*: a
relation with uncertain attributes is split into one U-relation per
attribute keyed by a tuple id, and re-assembled ("undoing the vertical
decomposition on demand") by joining on the tuple id and conjoining
conditions; see :func:`vertical_decompose` / :func:`vertical_recompose`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine import algebra, planner
from repro.engine.kernels import _NUMPY_MIN_ROWS
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import FLOAT, INTEGER, NULL
from repro.errors import ConditionError, SchemaError

#: Column-name prefixes of the wide encoding's condition triples.
VAR_PREFIX = "_v"
VAL_PREFIX = "_d"
PROB_PREFIX = "_p"


def condition_columns(cond_arity: int, qualifier: Optional[str] = None) -> List[Column]:
    """The schema columns of ``cond_arity`` condition triples."""
    cols: List[Column] = []
    for i in range(cond_arity):
        cols.append(Column(f"{VAR_PREFIX}{i}", INTEGER, qualifier))
        cols.append(Column(f"{VAL_PREFIX}{i}", INTEGER, qualifier))
        cols.append(Column(f"{PROB_PREFIX}{i}", FLOAT, qualifier))
    return cols


def encode_condition(condition: Condition, cond_arity: int, registry: VariableRegistry) -> tuple:
    """Flatten a condition into ``cond_arity`` (var, val, prob) triples,
    padding with the reserved always-true atom."""
    if len(condition) > cond_arity:
        raise ConditionError(
            f"condition {condition!r} needs {len(condition)} triples, "
            f"encoding has {cond_arity}"
        )
    flat: List = []
    for var, value in condition:
        flat.extend((var, value, registry.probability(var, value)))
    for _ in range(cond_arity - len(condition)):
        flat.extend((TOP_VARIABLE, 0, 1.0))
    return tuple(flat)


def decode_condition(row: tuple, payload_arity: int, cond_arity: int) -> Optional[Condition]:
    """Read the condition triples out of a wide-encoded row.

    Returns None when the row's atoms are contradictory (possible only for
    rows produced by a join before its consistency filter runs).
    """
    atoms = []
    base = payload_arity
    for i in range(cond_arity):
        var = row[base + 3 * i]
        value = row[base + 3 * i + 1]
        atoms.append((var, value))
    return Condition.of(atoms)


_MISSING = object()


def decode_condition_columns(
    relation: Relation, payload_arity: int, cond_arity: int
) -> List[Optional[Condition]]:
    """Decode every row's condition from the relation's *columns*.

    The columnar counterpart of calling :func:`decode_condition` per row:
    it reads the (var, val) condition columns straight out of the cached
    column view and memoizes Condition construction on the raw atom
    tuple -- translated query results repeat a small set of conditions
    across many rows, so most rows hit the memo instead of re-sorting and
    re-deduplicating atoms.
    """
    n = len(relation)
    if cond_arity == 0:
        return [TRUE_CONDITION] * n
    columns = relation.columns()
    atom_columns: List[Sequence] = []
    for i in range(cond_arity):
        atom_columns.append(columns[payload_arity + 3 * i])
        atom_columns.append(columns[payload_arity + 3 * i + 1])
    memo: Dict[tuple, Optional[Condition]] = {}
    out: List[Optional[Condition]] = []
    for flat in zip(*atom_columns):
        condition = memo.get(flat, _MISSING)
        if condition is _MISSING:
            atoms = [(flat[2 * k], flat[2 * k + 1]) for k in range(cond_arity)]
            condition = Condition.of(atoms)
            memo[flat] = condition
        out.append(condition)
    return out


class URelation:
    """A U-relation in the wide relational encoding.

    ``relation`` holds payload columns followed by condition triples;
    ``registry`` is the variable table the conditions refer to.

    A U-relation is either *materialized* (built from a relation) or
    *lazy* (built by :meth:`from_plan` from a logical plan that computes
    it).  The translation operators compose plans on lazy U-relations, so
    a select-join-project chain is one plan; reading ``relation`` runs
    it -- once, the result is kept and the plan dropped.  ``schema`` and
    everything derived from it never run the plan.
    """

    __slots__ = (
        "_relation", "_plan", "schema", "payload_arity", "cond_arity", "registry"
    )

    def __init__(
        self,
        relation: Relation,
        payload_arity: int,
        cond_arity: int,
        registry: VariableRegistry,
    ):
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
        expected = payload_arity + 3 * cond_arity
        if len(schema) != expected:
            raise SchemaError(
                f"U-relation schema has {len(schema)} columns, "
                f"expected {payload_arity} payload + {3 * cond_arity} condition"
            )
        #: The wide schema: payload columns, then the condition triples.
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
            relation = self._relation = planner.run(self._plan)
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
        if self._relation is not None:
            return algebra.RelationScan(self._relation)
        return self._plan

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
            algebra.Relabel(self._plan, schema),
            self.payload_arity,
            self.cond_arity,
            self.registry,
        )

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def from_conditions(
        payload_schema: Schema,
        rows: Sequence[tuple],
        conditions: Sequence[Condition],
        registry: VariableRegistry,
        cond_arity: Optional[int] = None,
    ) -> "URelation":
        """Build a U-relation from payload rows and parallel conditions."""
        if len(rows) != len(conditions):
            raise SchemaError(
                f"{len(rows)} rows but {len(conditions)} conditions"
            )
        if cond_arity is None:
            cond_arity = max((len(c) for c in conditions), default=0)
        schema = Schema(tuple(payload_schema) + tuple(condition_columns(cond_arity)))
        wide_rows = [
            tuple(row) + encode_condition(cond, cond_arity, registry)
            for row, cond in zip(rows, conditions)
        ]
        return URelation(
            Relation(schema, wide_rows), len(payload_schema), cond_arity, registry
        )

    @staticmethod
    def t_certain(relation: Relation, registry: VariableRegistry) -> "URelation":
        """Wrap a standard relation as a t-certain table (no conditions)."""
        return URelation(relation, len(relation.schema), 0, registry)

    @staticmethod
    def from_wide(
        relation: Relation, payload_arity: int, registry: VariableRegistry
    ) -> "URelation":
        """Adopt an already wide-encoded relation (e.g. a translated query
        result); the condition arity is inferred from the column count."""
        extra = len(relation.schema) - payload_arity
        if extra < 0 or extra % 3 != 0:
            raise SchemaError(
                f"cannot infer condition arity: {extra} non-payload columns"
            )
        return URelation(relation, payload_arity, extra // 3, registry)

    # -- views ----------------------------------------------------------------
    @property
    def is_t_certain(self) -> bool:
        return self.cond_arity == 0

    @property
    def payload_schema(self) -> Schema:
        return self.schema.project(range(self.payload_arity))

    def payload_row(self, row: tuple) -> tuple:
        return row[: self.payload_arity]

    def payload_relation(self) -> Relation:
        """The payload columns only (conditions dropped, duplicates kept)."""
        if self.cond_arity == 0:
            return self.relation  # t-certain: nothing to drop
        return self.relation.project_positions(list(range(self.payload_arity)))

    def condition_of(self, row: tuple) -> Optional[Condition]:
        return decode_condition(row, self.payload_arity, self.cond_arity)

    def rows_with_conditions(self) -> Iterator[Tuple[tuple, Optional[Condition]]]:
        conditions = self.conditions()
        payload_arity = self.payload_arity
        for row, condition in zip(self.relation, conditions):
            yield row[:payload_arity], condition

    def conditions(self) -> List[Optional[Condition]]:
        """Per-row decoded conditions (columnar + memoized decode)."""
        return decode_condition_columns(
            self.relation, self.payload_arity, self.cond_arity
        )

    def _condition_mirrors(self, offset: int):
        """The int64 mirrors of the variable (``offset`` 0) or value
        (``offset`` 1) columns, or None when the relation is shorter than
        the kernels' ``_NUMPY_MIN_ROWS`` or a column has no exact mirror
        (a NULL)."""
        relation = self.relation
        if len(relation) < _NUMPY_MIN_ROWS:
            return None
        mirrors = [
            relation.mirror(self.payload_arity + 3 * i + offset, "int64")
            for i in range(self.cond_arity)
        ]
        return None if any(mirror is None for mirror in mirrors) else mirrors

    def condition_arrays(self):
        """The condition columns as two int64 arrays of shape
        ``(cond_arity, rows)`` -- variables and values -- or None (no
        condition columns, or see :meth:`_condition_mirrors`)."""
        variables = self._condition_mirrors(0) if self.cond_arity else None
        values = self._condition_mirrors(1) if variables is not None else None
        if values is None:
            return None
        return np.stack(variables), np.stack(values)

    def condition_probabilities(self) -> List[float]:
        """Per-row marginal probability of each row's condition, straight
        from the condition columns.

        Atom marginals are multiplied without materializing Condition
        objects at all -- a column at a time (one bulk registry look-up
        per condition column, :meth:`VariableRegistry.probabilities`)
        when the variable columns have int64 mirrors, row by row
        otherwise; both compute ``1.0 * p1 * ... * pk`` in column order,
        so they agree to the last bit.  Rows with a repeated variable
        (possible only before a consistency filter runs) fall back to the
        full decode so duplicates count once and contradictions yield 0.
        """
        n = len(self.relation)
        if self.cond_arity == 0:
            return [1.0] * n
        columns = self.relation.columns()
        base = self.payload_arity
        variables = self._condition_mirrors(0)
        if variables is not None:
            return self._array_condition_probabilities(columns, variables)
        probability = self.registry.probability
        out: List[float] = []
        if self.cond_arity == 1:
            memo: Dict[Tuple[int, int], float] = {}
            for var, value in zip(columns[base], columns[base + 1]):
                key = (var, value)
                p = memo.get(key)
                if p is None:
                    p = probability(var, value)
                    memo[key] = p
                out.append(p)
            return out
        atom_columns: List[Sequence] = []
        for i in range(self.cond_arity):
            atom_columns.append(columns[base + 3 * i])
            atom_columns.append(columns[base + 3 * i + 1])
        arity = self.cond_arity
        for flat in zip(*atom_columns):
            p = 1.0
            seen: List[int] = []
            duplicate = False
            for k in range(arity):
                var = flat[2 * k]
                if var == TOP_VARIABLE:
                    continue
                if var in seen:
                    duplicate = True
                    break
                seen.append(var)
                p *= probability(var, flat[2 * k + 1])
            if duplicate:
                p = self._decoded_probability(flat)
            out.append(p)
        return out

    def _array_condition_probabilities(self, columns, variables) -> List[float]:
        base, arity = self.payload_arity, self.cond_arity
        product = np.ones(len(variables[0]))
        repeated = np.zeros(len(product), dtype=bool)
        for i in range(arity):
            marginals = np.array(
                self.registry.probabilities(
                    columns[base + 3 * i], columns[base + 3 * i + 1]
                )
            )
            padding = variables[i] == TOP_VARIABLE
            marginals[padding] = 1.0  # whatever the value
            product *= marginals
            for j in range(i):
                repeated |= (variables[i] == variables[j]) & ~padding
        out = product.tolist()
        for row in np.flatnonzero(repeated).tolist():
            out[row] = self._decoded_probability(
                [columns[base + 3 * (k // 2) + k % 2][row] for k in range(2 * arity)]
            )
        return out

    def _decoded_probability(self, flat: Sequence[int]) -> float:
        """P(condition) of one row given as ``(v0, d0, v1, d1, ...)``."""
        condition = Condition.of(zip(flat[0::2], flat[1::2]))
        return 0.0 if condition is None else condition.probability(self.registry)

    def __len__(self) -> int:
        return len(self.relation)

    def __repr__(self) -> str:
        return (
            f"<URelation payload={self.payload_schema.names} "
            f"cond_arity={self.cond_arity} rows={len(self.relation)}>"
        )

    # -- possible-worlds semantics ---------------------------------------------------
    def in_world(self, assignment: Mapping[int, int], distinct: bool = False) -> Relation:
        """Instantiate this U-relation in the world given by a total
        assignment: the payload rows whose condition is satisfied."""
        payload_arity = self.payload_arity
        rows = []
        for row, condition in zip(self.relation, self.conditions()):
            if condition is not None and condition.satisfied_by(assignment):
                rows.append(row[:payload_arity])
        result = Relation(self.payload_schema, rows)
        return result.distinct() if distinct else result

    def possible_payloads(self) -> Relation:
        """Distinct payload tuples possible in at least one world with
        positive probability (the core of the ``possible`` construct)."""
        payload_arity = self.payload_arity
        seen = set()
        rows = []
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
        padding = (TOP_VARIABLE, 0, 1.0) * extra
        schema = Schema(
            tuple(self.relation.schema)
            + tuple(
                Column(f"{prefix}{i}", typ)
                for i in range(self.cond_arity, cond_arity)
                for prefix, typ in (
                    (VAR_PREFIX, INTEGER),
                    (VAL_PREFIX, INTEGER),
                    (PROB_PREFIX, FLOAT),
                )
            )
        )
        rows = [row + padding for row in self.relation]
        return URelation(Relation(schema, rows), self.payload_arity, cond_arity, self.registry)

    def normalized(self) -> "URelation":
        """Drop rows with contradictory or zero-probability conditions and
        re-encode each condition minimally (sorted, deduplicated, padded)."""
        payload_schema = self.payload_schema
        payload_arity = self.payload_arity
        rows, conditions = [], []
        for row, condition in zip(self.relation, self.conditions()):
            if condition is None:
                continue
            if condition.probability(self.registry) <= 0.0:
                continue
            rows.append(row[:payload_arity])
            conditions.append(condition)
        return URelation.from_conditions(payload_schema, rows, conditions, self.registry)

    def refresh_probabilities(self) -> "URelation":
        """Recompute the cached probability columns from the registry."""
        rows = []
        base = self.payload_arity
        for row in self.relation:
            out = list(row)
            for i in range(self.cond_arity):
                var = row[base + 3 * i]
                value = row[base + 3 * i + 1]
                out[base + 3 * i + 2] = self.registry.probability(var, value)
            rows.append(tuple(out))
        return URelation(
            Relation(self.relation.schema, rows),
            self.payload_arity,
            self.cond_arity,
            self.registry,
        )

    # -- presentation ----------------------------------------------------------
    def pretty(self, max_rows: Optional[int] = None) -> str:
        """Figure-1 style rendering: payload columns, a symbolic
        ``condition`` column (``x3 ↦ 1``), and a probability column."""
        header = list(self.payload_schema.names) + ["condition", "P"]
        body = []
        rows = self.relation.rows if max_rows is None else self.relation.rows[:max_rows]
        for row in rows:
            condition = self.condition_of(row)
            if condition is None:
                text, prob = "⊥", 0.0
            else:
                text = repr(condition)
                prob = condition.probability(self.registry)
            cells = ["NULL" if v is NULL else str(v) for v in self.payload_row(row)]
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


def rebuild_registry(
    urelations: Iterable[URelation],
    registry: Optional[VariableRegistry] = None,
) -> VariableRegistry:
    """Reconstruct variable distributions from the inline probability
    columns of stored U-relations.

    This is why the wide encoding carries probability columns at all: the
    representation is self-describing, so a catalog recovered from the
    write-ahead log (which persists only tables) can restore its world
    table.  Observed ``(variable, value) -> probability`` triples become
    the distribution; when the observed values of a variable do not
    exhaust its probability mass, the remainder goes to a sink value (one
    past the largest observed value) -- those are the alternatives no
    surviving tuple references.
    """
    observed: Dict[int, Dict[int, float]] = {}
    for urel in urelations:
        base = urel.payload_arity
        for row in urel.relation:
            for i in range(urel.cond_arity):
                var = row[base + 3 * i]
                value = row[base + 3 * i + 1]
                probability = row[base + 3 * i + 2]
                if var == TOP_VARIABLE:
                    continue
                slot = observed.setdefault(var, {})
                previous = slot.get(value)
                if previous is not None and abs(previous - probability) > 1e-9:
                    raise ConditionError(
                        f"inconsistent stored probabilities for variable "
                        f"{var} value {value}: {previous} vs {probability}"
                    )
                slot[value] = probability

    rebuilt = registry if registry is not None else VariableRegistry()
    for var in sorted(observed):
        distribution = dict(observed[var])
        mass = sum(distribution.values())
        if mass > 1.0 + 1e-9:
            raise ConditionError(
                f"stored probabilities for variable {var} sum to {mass} > 1"
            )
        if mass < 1.0 - 1e-9:
            sink = max(distribution) + 1
            distribution[sink] = 1.0 - mass
        # Install under the original id; fresh() would renumber, so write
        # the internal tables directly (ids must survive recovery).
        rebuilt._distributions[var] = {
            int(v): float(p) for v, p in distribution.items()
        }
        rebuilt._names.setdefault(var, f"x{var}")
        rebuilt._next_id = max(rebuilt._next_id, var + 1)
    return rebuilt


# ---------------------------------------------------------------------------
# Vertical decomposition (attribute-level uncertainty).
# ---------------------------------------------------------------------------

TID_COLUMN = "_tid"


def vertical_decompose(urel: URelation) -> Dict[str, URelation]:
    """Split a U-relation into one U-relation per payload attribute.

    Each part has schema ``(_tid, attribute)`` plus the original row's
    condition.  The tuple id is the row's position, mirroring the paper's
    "additional (system) column ... for storing tuple ids".
    """
    parts: Dict[str, URelation] = {}
    payload_schema = urel.payload_schema
    all_conditions = [c if c is not None else None for c in urel.conditions()]
    for position, column in enumerate(payload_schema):
        schema = Schema([Column(TID_COLUMN, INTEGER), Column(column.name, column.type)])
        rows, conditions = [], []
        for tid, (row, condition) in enumerate(zip(urel.relation, all_conditions)):
            if condition is None:
                continue
            rows.append((tid, row[position]))
            conditions.append(condition)
        parts[column.name] = URelation.from_conditions(
            schema, rows, conditions, urel.registry
        )
    return parts


def vertical_recompose(
    parts: Mapping[str, URelation], column_order: Sequence[str]
) -> URelation:
    """Undo a vertical decomposition: join the per-attribute U-relations on
    the tuple id, conjoining their conditions.

    An attribute may have *several alternative values* per tuple id (that
    is what attribute-level uncertainty means), so the join takes the
    cross product of alternatives per tid; combinations with contradictory
    conditions represent no world and are dropped, exactly as the
    translated join's consistency filter would drop them.
    """
    if not column_order:
        raise SchemaError("recompose needs at least one column")
    first = parts[column_order[0]]
    registry = first.registry

    # Per attribute: tid -> list of (value, condition) alternatives.
    alternatives: List[Dict[int, List[Tuple[object, Condition]]]] = []
    for name in column_order:
        per_tid: Dict[int, List[Tuple[object, Condition]]] = {}
        for payload, condition in parts[name].rows_with_conditions():
            if condition is None:
                continue
            per_tid.setdefault(payload[0], []).append((payload[1], condition))
        alternatives.append(per_tid)

    columns = []
    for name in column_order:
        part_schema = parts[name].payload_schema
        columns.append(Column(name, part_schema[1].type))
    schema = Schema(columns)

    shared_tids = set(alternatives[0])
    for per_tid in alternatives[1:]:
        shared_tids &= set(per_tid)

    rows: List[tuple] = []
    conditions: List[Condition] = []
    for tid in sorted(shared_tids):
        combos: List[Tuple[List, Condition]] = [([], TRUE_CONDITION)]
        for per_tid in alternatives:
            extended: List[Tuple[List, Condition]] = []
            for values, acc in combos:
                for value, condition in per_tid[tid]:
                    merged = acc.conjoin(condition)
                    if merged is not None:
                        extended.append((values + [value], merged))
            combos = extended
        for values, condition in combos:
            rows.append(tuple(values))
            conditions.append(condition)
    return URelation.from_conditions(schema, rows, conditions, registry)
