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

The construct is one array pass over the input's columns: key groups
are numbered in first-seen order
(:func:`~repro.engine.physical.group_codes`; NULLs group
together, and so do NaNs of a FLOAT key, as in GROUP BY), each group's
total weight is one ``np.bincount`` (which adds a group's weights left
to right in row order), every row gets its rank in its group and
``p = w / total``, the group variables are minted as one block of ids,
and the output columns ``columns + (var, alternative)`` are gathered
in group order.  Rows are built only if a caller reads them.
Inside SQL the registry is the statement's scope, so nothing is logged
until a statement stores the rows.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.urelation import URelation, condition_columns
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine.columnar import ColumnBatch
from repro.engine.expressions import Expr
from repro.engine.kernels import compile_kernel
from repro.engine.physical import group_codes, group_key
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
    n = len(relation)
    columns = relation.columns()
    positions = [schema.resolve(c) for c in key_columns]

    def key(row: int) -> tuple:
        return group_key(columns[p][row] for p in positions)

    # The first row of each group names it (in errors and variable names).
    codes, firsts = group_codes(
        [columns[p] for p in positions], [schema[p].type for p in positions], n
    )
    weights, raw = _weights(relation, weight_by)
    # Each group's weights summed left to right in row order on every
    # Python (``sum`` compensates its rounding from 3.12 on).
    totals = np.bincount(codes, weights=weights, minlength=len(firsts))
    # Finite non-negative weights with a finite positive total make a
    # distribution.  The first group (in first-seen order) without one
    # is reported, at its first bad weight if it has any.
    bad = ~(np.isfinite(weights) & (weights >= 0.0))
    broken = ~((totals > 0.0) & (totals < math.inf))
    broken[codes[bad]] = True
    if broken.any():
        group = int(np.argmax(broken))
        hits = np.flatnonzero(bad & (codes == group))
        if len(hits):
            i = int(hits[0])
            _check_weight(raw[i], tuple(c[i] for c in columns))  # type: ignore[index]
        raise RepairKeyError(
            f"key group {key(int(firsts[group]))!r} has total weight "
            f"{float(totals[group])!r}; no repair can choose a tuple"
        )

    # Row indices grouped by first-seen key, input order within a group.
    order = np.argsort(codes, kind="stable")
    if (weights == 0.0).any():  # zero weights appear in no repair
        order = order[weights[order] > 0.0]
    group = codes[order]
    survivors = np.bincount(group, minlength=len(firsts))
    chosen = survivors[group] > 1  # rows of groups that need a variable
    chance = np.where(chosen, weights[order] / totals[group], 1.0)
    keyed = survivors > 1
    named = firsts[keyed].tolist()

    def label(i: int) -> str:
        return f"{name_hint}[{','.join(map(str, key(named[i])))}]"

    start = registry.mint(
        survivors[keyed], chance[chosen], None if name_hint is None else label
    )
    alternative = np.arange(len(order)) - (np.cumsum(survivors) - survivors)[group]
    condition = (
        np.where(chosen, (np.cumsum(keyed) - 1 + start)[group], TOP_VARIABLE).tolist(),
        np.where(chosen, alternative, 0).tolist(),
    )
    payload = columns
    if len(order) < n or (order != np.arange(n)).any():
        payload = ColumnBatch(columns, n).take(order.tolist()).columns
    cond_arity = 1 if len(order) else 0
    pairs = condition_columns(cond_arity)
    wide = Schema(tuple(schema) + tuple(pairs))
    return URelation(
        Relation.from_columns(wide, payload + condition[: len(pairs)], len(order)),
        len(schema),
        cond_arity,
        registry,
    )


def _weights(
    relation: Relation, weight_by: WeightSpec
) -> Tuple[np.ndarray, Optional[Sequence[object]]]:
    """Every row's weight as a float64 array (NULL becomes NaN), and the
    weights as given (None when uniform), for the error messages."""
    n = len(relation)
    if weight_by is None:
        return np.ones(n), None
    if isinstance(weight_by, str):
        raw: Sequence[object] = relation.columns()[relation.schema.resolve(weight_by)]
    elif isinstance(weight_by, Expr):
        raw = compile_kernel(weight_by, relation.schema)(relation.columns(), n)
    elif callable(weight_by):
        raw = list(map(weight_by, relation.rows))
    else:
        raise RepairKeyError(f"unsupported weight specification {weight_by!r}")
    return np.array(raw, dtype=float), raw


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
