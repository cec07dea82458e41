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

from repro.core.urelation import URelation, atom_positions, condition_columns
from repro.core.variables import VariableRegistry
from repro.engine import algebra, planner
from repro.engine.expressions import BoolOp, ConsistencyPredicate, Expr, PositionRef
from repro.engine.schema import Column, Schema
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
    for position, column in enumerate(
        condition_columns(urel.cond_arity), urel.payload_arity
    ):
        out_items.append((PositionRef(position, column.type), column.name))
    return URelation.from_plan(
        algebra.Project(urel.plan, out_items),
        len(items),
        urel.cond_arity,
        urel.registry,
    )


def u_columns(
    plan: algebra.PlanNode,
    payload: Sequence[int],
    atoms: Sequence[Tuple[int, int]],
    registry: VariableRegistry,
) -> URelation:
    """The U-relation made of ``plan``'s columns at positions
    ``payload`` and its condition pairs at the (variable, value)
    positions ``atoms``, in that order: payload columns keep their names
    and qualifiers (positional item names let them clash across the
    inputs of a join), the pairs are renumbered ``_v0..``."""
    schema = plan.schema()
    positions = list(payload) + [p for atom in atoms for p in atom]
    items = [(PositionRef(p, schema[p].type), f"_c{k}") for k, p in enumerate(positions)]
    columns = [schema[p] for p in payload] + condition_columns(len(atoms))
    return URelation.from_plan(
        algebra.Relabel(algebra.Project(plan, items), Schema(columns)),
        len(payload),
        len(atoms),
        registry,
    )


def consistency_predicate(
    left_atoms: Sequence[Tuple[int, int]],
    right_atoms: Sequence[Tuple[int, int]],
) -> Optional[Expr]:
    """The join consistency filter over a concatenated wide row, whose
    left and right condition pairs sit at the (variable, value)
    positions ``left_atoms`` and ``right_atoms``.

    For every pair (i, j) require  V_i ≠ V'_j  ∨  D_i = D'_j.  The
    reserved top variable never conflicts (it has a single value), so
    padding is harmless.

    Emitted as a dedicated :class:`ConsistencyPredicate` rather than a
    generic AND-of-OR tree: this filter runs once per candidate joined row
    and is the hottest loop of the parsimonious translation, so both
    engines give it a specialized kernel (vectorized over the integer
    condition columns in the batch engine).
    """
    pairs = [left + right for left in left_atoms for right in right_atoms]
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

    # Payload columns, then the renumbered condition pairs.
    left_width = len(left.schema)
    right_start = left_width + right.payload_arity
    left_atoms = atom_positions(left.payload_arity, left.cond_arity)
    right_atoms = atom_positions(right_start, right.cond_arity)
    join_predicate = predicate
    consistency = consistency_predicate(left_atoms, right_atoms)
    if consistency is not None:
        join_predicate = (
            consistency
            if join_predicate is None
            else BoolOp("AND", [join_predicate, consistency])
        )

    joined = algebra.Join(left.plan, right.plan, join_predicate)
    return u_columns(
        joined,
        [*range(left.payload_arity), *range(left_width, right_start)],
        left_atoms + right_atoms,
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
    """Rename the condition pairs ``_v0.._vk`` to start at ``offset``."""
    if offset == 0 or urel.cond_arity == 0:
        return urel
    columns = list(urel.schema[: urel.payload_arity])
    columns += condition_columns(urel.cond_arity, offset)
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
