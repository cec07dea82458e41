"""The parsimonious translation of positive relational algebra [1].

Section 2.3: "The answers to positive relational algebra queries (without
confidences) can be computed using a parsimonious translation of such
queries into (again) positive relational algebra queries that are then
evaluated in standard relational way on U-relations."

The translation rules (Antova-Jansen-Koch-Olteanu, ICDE 2008), with
payload columns written D and condition columns V:

- **selection** σ_φ(R):  σ_φ applies to the payload columns only; the
  condition columns ride along untouched.
- **projection** π_A(R):  π_{A ∪ V}(R) -- condition columns are always
  kept, and *no duplicate elimination* happens (duplicates with different
  conditions encode a disjunction of their lineages).
- **join** R ⋈_φ S:  join on the payload predicate, concatenate both
  sides' condition columns, and *select consistency*: rows whose merged
  condition assigns two different values to one variable represent no
  world and are filtered by an ordinary selection over the integer
  condition columns -- ⋀_{i,j} (V_i ≠ V'_j ∨ D_i = D'_j).
- **union** R ∪ S:  pad both sides' condition columns to a common arity
  with the reserved always-true atom, then multiset union.

Every rule emits ordinary relational plans over the wide integer encoding
and is executed by the standard engine -- which is the whole point: a
conventional RDBMS evaluates queries on probabilistic data with only a
constant-factor overhead (benchmark C-TRANS measures it).

Selection, projection, join and renaming do not run anything: each puts
its plan nodes on top of its inputs' plans and returns a lazy
:class:`URelation`, so a chain of them is *one* translated query, planned
and executed once when the result's rows are first read.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.urelation import (
    PROB_PREFIX,
    URelation,
    VAL_PREFIX,
    VAR_PREFIX,
    condition_columns,
)
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine import algebra, planner
from repro.engine.expressions import (
    BoolOp,
    ColumnRef,
    Comparison,
    ConsistencyPredicate,
    Expr,
    Literal,
    PositionRef,
)
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import FLOAT, INTEGER
from repro.errors import PlanError, SchemaError


def u_select(urel: URelation, predicate: Expr) -> URelation:
    """σ_φ over a U-relation: the predicate sees only payload columns."""
    return URelation.from_plan(
        algebra.Select(urel.plan, predicate),
        urel.payload_arity,
        urel.cond_arity,
        urel.registry,
    )


def u_project(urel: URelation, items: Sequence[Tuple[Expr, str]]) -> URelation:
    """π over payload expressions; condition columns are appended and no
    duplicate elimination takes place (parsimonious projection)."""
    out_items: List[Tuple[Expr, str]] = list(items)
    base = urel.payload_arity
    for i in range(urel.cond_arity):
        for offset, (prefix, typ) in enumerate(
            ((VAR_PREFIX, INTEGER), (VAL_PREFIX, INTEGER), (PROB_PREFIX, FLOAT))
        ):
            position = base + 3 * i + offset
            out_items.append((PositionRef(position, typ), f"{prefix}{i}"))
    return URelation.from_plan(
        algebra.Project(urel.plan, out_items),
        len(items),
        urel.cond_arity,
        urel.registry,
    )


def consistency_predicate(
    left_payload: int,
    left_cond: int,
    right_payload: int,
    right_cond: int,
) -> Optional[Expr]:
    """The join consistency filter over a concatenated wide row.

    Left triples start at ``left_payload``; right triples start at
    ``left_payload + 3*left_cond + right_payload``.  For every pair (i, j)
    require  V_i ≠ V'_j  ∨  D_i = D'_j.  The reserved top variable never
    conflicts (it has a single value), so padding is harmless.

    Emitted as a dedicated :class:`ConsistencyPredicate` rather than a
    generic AND-of-OR tree: this filter runs once per candidate joined row
    and is the hottest loop of the parsimonious translation, so both
    engines give it a specialized kernel (vectorized over the integer
    condition columns in the batch engine).
    """
    left_base = left_payload
    right_base = left_payload + 3 * left_cond + right_payload
    pairs: List[Tuple[int, int, int, int]] = []
    for i in range(left_cond):
        vi = left_base + 3 * i
        di = left_base + 3 * i + 1
        for j in range(right_cond):
            vj = right_base + 3 * j
            dj = right_base + 3 * j + 1
            pairs.append((vi, di, vj, dj))
    if not pairs:
        return None
    return ConsistencyPredicate(pairs)


def u_join(
    left: URelation,
    right: URelation,
    predicate: Optional[Expr] = None,
    left_alias: Optional[str] = None,
    right_alias: Optional[str] = None,
) -> URelation:
    """Join two U-relations: payload predicate + condition concatenation +
    consistency selection, all as one ordinary relational plan.

    Payload columns keep their names and qualifiers (re-qualified first if
    ``left_alias``/``right_alias`` are given); the qualified payload names
    of the two sides must not clash -- alias the inputs when joining a
    U-relation with itself.  The combined condition columns are renamed to
    the canonical ``_v0.._v{k-1}`` sequence.
    """
    registry = _shared_registry(left, right)
    if left_alias is not None:
        left = u_rename(left, left_alias)
    if right_alias is not None:
        right = u_rename(right, right_alias)

    # Offset the right side's condition-column names so the concatenated
    # join schema has no duplicates.
    right = _shift_condition_names(right, left.cond_arity)

    join_predicate = predicate
    consistency = consistency_predicate(
        left.payload_arity, left.cond_arity, right.payload_arity, right.cond_arity
    )
    if consistency is not None:
        join_predicate = (
            consistency
            if join_predicate is None
            else BoolOp("AND", [join_predicate, consistency])
        )

    joined = algebra.Join(left.plan, right.plan, join_predicate)

    # Rebuild the output as payload columns then renumbered condition
    # triples.  Projection items get positional placeholder names (payload
    # names may clash across the two sides as long as qualifiers differ);
    # the real schema is attached afterwards.
    combined = joined.schema()
    items: List[Tuple[Expr, str]] = []
    final_columns: List[Column] = []
    left_width = len(left.schema)
    for position in range(left.payload_arity):
        items.append((PositionRef(position, combined[position].type), f"_c{len(items)}"))
        final_columns.append(combined[position])
    for position in range(right.payload_arity):
        absolute = left_width + position
        items.append((PositionRef(absolute, combined[absolute].type), f"_c{len(items)}"))
        final_columns.append(combined[absolute])

    out_index = 0
    for base, cond_arity in (
        (left.payload_arity, left.cond_arity),
        (left_width + right.payload_arity, right.cond_arity),
    ):
        for i in range(cond_arity):
            items.append((PositionRef(base + 3 * i, INTEGER), f"_c{len(items)}"))
            items.append((PositionRef(base + 3 * i + 1, INTEGER), f"_c{len(items)}"))
            items.append((PositionRef(base + 3 * i + 2, FLOAT), f"_c{len(items)}"))
            final_columns.append(Column(f"{VAR_PREFIX}{out_index}", INTEGER))
            final_columns.append(Column(f"{VAL_PREFIX}{out_index}", INTEGER))
            final_columns.append(Column(f"{PROB_PREFIX}{out_index}", FLOAT))
            out_index += 1

    return URelation.from_plan(
        algebra.Relabel(algebra.Project(joined, items), Schema(final_columns)),
        left.payload_arity + right.payload_arity,
        left.cond_arity + right.cond_arity,
        registry,
    )


def u_union(left: URelation, right: URelation) -> URelation:
    """Multiset union with ⊤-padding to a common condition arity."""
    registry = _shared_registry(left, right)
    left_payload = left.payload_schema
    right_payload = right.payload_schema
    if not left_payload.union_compatible_with(right_payload):
        raise SchemaError(
            f"union payload schemas incompatible: {left_payload.types} "
            f"vs {right_payload.types}"
        )
    arity = max(left.cond_arity, right.cond_arity)
    lw = left.pad_to(arity)
    rw = right.pad_to(arity)
    # Align the right schema's column names to the left's.
    rw_rel = rw.relation.with_schema(
        Schema(
            Column(lc.name, rc.type, None)
            for lc, rc in zip(lw.relation.schema, rw.relation.schema)
        )
    )
    plan = algebra.Union(
        algebra.RelationScan(lw.relation.with_schema(lw.relation.schema.unqualified())),
        algebra.RelationScan(rw_rel),
    )
    result = planner.run(plan)
    return URelation(result, left.payload_arity, arity, registry)


def _shared_registry(left: URelation, right: URelation) -> VariableRegistry:
    """The registry a combination of ``left`` and ``right`` is bound to:
    theirs when they share one, else the statement scope when the other
    side is bound to the durable registry it falls through to."""
    a, b = left.registry, right.registry
    if a is b or a.durable is b:
        return a
    if b.durable is a:
        return b
    raise PlanError("combining U-relations over different variable registries")


def _shift_condition_names(urel: URelation, offset: int) -> URelation:
    """Rename the condition triples ``_v0.._vk`` to start at ``offset``."""
    if offset == 0 or urel.cond_arity == 0:
        return urel
    columns = list(urel.schema[: urel.payload_arity])
    for i in range(urel.cond_arity):
        columns.append(Column(f"{VAR_PREFIX}{offset + i}", INTEGER))
        columns.append(Column(f"{VAL_PREFIX}{offset + i}", INTEGER))
        columns.append(Column(f"{PROB_PREFIX}{offset + i}", FLOAT))
    return urel.with_schema(Schema(columns))


def u_rename(urel: URelation, alias: str) -> URelation:
    """Re-qualify payload columns under a new alias (condition columns stay
    unqualified -- they are system columns)."""
    columns = []
    for i, column in enumerate(urel.schema):
        if i < urel.payload_arity:
            columns.append(column.with_qualifier(alias))
        else:
            columns.append(column.with_qualifier(None))
    return urel.with_schema(Schema(columns))
