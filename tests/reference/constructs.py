"""The row-at-a-time ``repair key`` and ``pick tuples``: the oracle the
array passes of :mod:`repro.core.repair_key` and
:mod:`repro.core.pick_tuples` are checked against.

Both walk the input one row tuple at a time: a dict of key groups, a
loop per group that checks its weights, sums them and normalises them,
and one emitted row per surviving tuple.  They take and return what the
system's constructs do, and must agree with them to the bit: the same
rows in the same order, the same variable ids, distributions and names,
and the same error for the same bad input.

A group's total weight is summed strictly left to right in row order
(``functools.reduce``, not ``sum``, which compensates its rounding from
Python 3.12 on).
"""

import functools
import math
import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pick_tuples import DEFAULT_PICK_PROBABILITY
from repro.core.urelation import URelation, condition_columns
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine.expressions import Expr
from repro.engine.physical import group_key, key_rows
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.errors import PickTuplesError, RepairKeyError

WeightSpec = Union[None, str, Expr, Callable[[tuple], float]]
ProbabilitySpec = Union[None, float, str, Expr, Callable[[tuple], float]]


def repair_key(
    relation: Relation,
    key_columns: Sequence[str],
    registry: VariableRegistry,
    weight_by: WeightSpec = None,
    name_hint: Optional[str] = None,
) -> URelation:
    """Row-at-a-time ``repair key``: the contract of
    :func:`repro.core.repair_key.repair_key`."""
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
        total = functools.reduce(operator.add, group_weights, 0.0)  # left to right
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

    var = registry.mint(
        [len(d) for d in distributions],
        [p for d in distributions for p in d.values()],
        None if name_hint is None else label,
    )
    out: List[tuple] = []
    append = out.append
    for survivors, distribution in plan:
        if distribution is None:
            append(rows[survivors[0]] + (TOP_VARIABLE, 0))
            continue
        for alternative, index in enumerate(survivors):
            append(rows[index] + (var, alternative))
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


def pick_tuples(
    relation: Relation,
    registry: VariableRegistry,
    probability: ProbabilitySpec = None,
    independently: bool = False,
    name_hint: Optional[str] = None,
) -> URelation:
    """Row-at-a-time ``pick tuples``: the contract of
    :func:`repro.core.pick_tuples.pick_tuples`."""
    schema = relation.schema
    rows = relation.rows
    probabilities = _probabilities(relation, probability)

    # Per row, the ordinal of its variable; per variable, its first row.
    firsts: List[int] = list(range(len(rows)))
    ordinals = firsts
    if not independently:
        shared: Dict[tuple, int] = {}
        firsts, ordinals = [], []
        for index, key in enumerate(
            key_rows(relation.columns(), schema.types, len(rows))
        ):
            ordinal = shared.setdefault(key, len(firsts))
            if ordinal == len(firsts):
                firsts.append(index)
            ordinals.append(ordinal)

    def label(i: int) -> str:
        if independently:
            return f"{name_hint}[{i}]"
        return f"{name_hint}[{','.join(map(str, rows[firsts[i]]))}]"

    kept = [probabilities[i] for i in firsts]
    start = registry.mint(
        [2] * len(kept),
        [q for p in kept for q in (1.0 - p, p)],
        label if name_hint else None,
    )
    out = [
        row + (start + ordinal, 1)
        for row, ordinal in zip(rows, ordinals)
    ]

    cond_arity = 1 if out else 0
    wide = Schema(tuple(schema) + tuple(condition_columns(cond_arity)))
    return URelation(
        Relation.from_trusted_rows(wide, out), len(schema), cond_arity, registry
    )


def _probabilities(relation: Relation, probability: ProbabilitySpec) -> List[float]:
    """Every row's probability as a float, checked in [0, 1] in one array
    pass (a bad one is reported with the first bad row)."""
    rows = relation.rows
    if probability is None:
        return [DEFAULT_PICK_PROBABILITY] * len(rows)
    if isinstance(probability, (int, float)) and not isinstance(probability, bool):
        raw: List[object] = [float(probability)] * len(rows)
    elif isinstance(probability, str):
        position = relation.schema.resolve(probability)
        raw = [row[position] for row in rows]
    elif isinstance(probability, Expr):
        raw = list(map(probability.compile(relation.schema), rows))
    elif callable(probability):
        raw = list(map(probability, rows))
    else:
        raise PickTuplesError(f"unsupported probability specification {probability!r}")
    array = np.array(raw, dtype=float)  # NULL becomes NaN: out of range
    if not np.all((array >= 0.0) & (array <= 1.0)):
        for p, row in zip(raw, rows):
            if p is None:
                raise PickTuplesError(f"probability evaluated to NULL on row {row!r}")
            p = float(p)  # type: ignore[arg-type]
            if not (0.0 <= p <= 1.0):
                raise PickTuplesError(
                    f"probability {p} outside [0, 1] on row {row!r}"
                )
    return array.tolist()
