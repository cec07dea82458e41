"""The ``repair key`` construct (Section 2.2, construct 2).

``repair key K in R weight by w`` nondeterministically chooses a *maximal
repair* of the key ``K`` in the t-certain relation ``R``: a minimal set of
tuples is removed so that ``K`` becomes a key, i.e. exactly one tuple
survives per key group (groups are never dropped entirely -- that would
not be minimal).  The worlds are all combinations of per-group choices;
the optional ``weight by`` expression assigns non-uniform probabilities,
normalized within each group.

Representation: one fresh independent random variable per key group, with
one alternative per candidate tuple of positive weight; each output tuple
is conditioned on its group's variable taking its alternative.  This is
exactly how Figure 1 encodes the one-step random walk: variables x, y, z
for key groups (Bryant, F), (Bryant, SE), (Bryant, SL).

The construct runs as one pass: key groups come from
:func:`~repro.engine.physical.key_rows` (NULLs group together, and so do
NaNs of a FLOAT key, as in GROUP BY), the weights are checked in one
array pass and each group's total once, the group variables are minted
as one block of ids, and the wide rows ``row + (var, alternative, p)``
are emitted directly.
Inside SQL the registry is the statement's scope, so nothing is logged
until a statement stores the rows.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.urelation import URelation, condition_columns
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine.expressions import Expr
from repro.engine.physical import group_key, key_rows
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.errors import RepairKeyError

WeightSpec = Union[None, str, Expr, Callable[[tuple], float]]


def repair_key(
    relation: Relation,
    key_columns: Sequence[str],
    registry: VariableRegistry,
    weight_by: WeightSpec = None,
    name_hint: Optional[str] = None,
) -> URelation:
    """Apply ``repair key`` to a (t-certain) relation.

    Parameters
    ----------
    relation:
        The input; must be certain data (the construct maps t-certain
        tables to uncertain ones).
    key_columns:
        The attributes ``K`` to repair into a key.  May be empty: then the
        whole relation is one group and exactly one tuple survives
        (a categorical choice among all tuples).
    registry:
        The registry (inside SQL: the statement's scope) that mints the
        group variables.
    weight_by:
        ``None`` for uniform weights, a column name, an engine expression,
        or a Python callable on row tuples.  Weights must be non-negative
        and each group must have positive total weight; zero-weight tuples
        appear in no repair and are dropped from the hypothesis space.
    name_hint:
        Optional prefix for the generated variable names (diagnostics),
        formatted ``hint[key,...]`` only when a name is asked for.
    """
    schema = relation.schema
    rows = relation.rows
    positions = [schema.resolve(c) for c in key_columns]
    columns = relation.columns() if positions else ()
    groups: Dict[tuple, List[int]] = {}
    for index, key in enumerate(
        key_rows(
            [columns[p] for p in positions],
            [schema[p].type for p in positions],
            len(rows),
        )
    ):
        members = groups.get(key)
        if members is None:
            groups[key] = [index]
        else:
            members.append(index)
    weights, unchecked = _weights(relation, weight_by)
    zero = 0.0 in weights

    # One plan entry per group, in first-seen order: the surviving row
    # indices, and the group variable's distribution (None when a single
    # candidate is chosen with certainty -- no variable needed).
    plan: List[Tuple[List[int], Optional[Dict[int, float]]]] = []
    distributions: List[Dict[int, float]] = []
    keyed: List[int] = []
    for members in groups.values():
        if unchecked is not None:
            for i in members:
                _check_weight(unchecked[i], rows[i])
        group_weights = [weights[i] for i in members]
        total = sum(group_weights)  # left to right, as the answers pin it
        # Finite non-negative weights with a finite positive total make a
        # distribution: this is the group's one validation.
        if not 0 < total < math.inf:
            raise RepairKeyError(
                f"key group {_key(rows[members[0]], positions)!r} has total "
                f"weight {total!r}; no repair can choose a tuple"
            )
        if zero:
            survivors = [i for i, w in zip(members, group_weights) if w > 0]
            group_weights = [w for w in group_weights if w > 0]
        else:
            survivors = members
        if len(survivors) == 1:
            plan.append((survivors, None))
            continue
        distribution = dict(enumerate([w / total for w in group_weights]))
        plan.append((survivors, distribution))
        distributions.append(distribution)
        keyed.append(members[0])

    def label(i: int) -> str:
        return f"{name_hint}[{','.join(map(str, _key(rows[keyed[i]], positions)))}]"

    var = registry.mint(distributions, None if name_hint is None else label)
    out: List[tuple] = []
    append = out.append
    for survivors, distribution in plan:
        if distribution is None:
            append(rows[survivors[0]] + (TOP_VARIABLE, 0, 1.0))
            continue
        for alternative, index in enumerate(survivors):
            append(rows[index] + (var, alternative, distribution[alternative]))
        var += 1

    cond_arity = 1 if out else 0
    wide = Schema(tuple(schema) + tuple(condition_columns(cond_arity)))
    return URelation(
        Relation.from_trusted_rows(wide, out), len(schema), cond_arity, registry
    )


def _key(row: tuple, positions: Sequence[int]) -> tuple:
    return group_key(row[p] for p in positions)


def _weights(
    relation: Relation, weight_by: WeightSpec
) -> Tuple[List[float], Optional[list]]:
    """Every row's weight as a float, checked in one array pass, and --
    only when that pass found a bad weight -- the raw weights, which the
    caller checks group by group (:func:`_check_weight`) for the precise
    error."""
    rows = relation.rows
    if weight_by is None:
        return [1.0] * len(rows), None
    if isinstance(weight_by, str):
        raw = list(relation.columns()[relation.schema.resolve(weight_by)]) if rows else []
    elif isinstance(weight_by, Expr):
        raw = list(map(weight_by.compile(relation.schema), rows))
    elif callable(weight_by):
        raw = list(map(weight_by, rows))
    else:
        raise RepairKeyError(f"unsupported weight specification {weight_by!r}")
    # NULL becomes NaN here, which the finiteness test catches.
    array = np.array(raw, dtype=float)
    return array.tolist(), None if np.all(np.isfinite(array) & (array >= 0.0)) else raw


def _check_weight(w: object, row: tuple) -> None:
    if w is None:
        raise RepairKeyError(f"weight expression evaluated to NULL on {row!r}")
    w = float(w)  # type: ignore[arg-type]
    # NaN slips past a plain "w < 0" comparison (every comparison with NaN
    # is False) and would poison the group normalization into NaN
    # probabilities; infinities break it too.
    if not math.isfinite(w):
        raise RepairKeyError(f"non-finite weight {w!r} on row {row!r}")
    if w < 0:
        raise RepairKeyError(f"negative weight {w} on row {row!r}")
