"""The ``pick tuples`` construct (Section 2.2, construct 2).

``pick tuples from R [independently] [with probability e]`` creates a
probabilistic relation representing *all possible subsets* of the input
table: every tuple is independently kept (with the given probability,
default 0.5 -- the uniform distribution over subsets) or dropped.

Interpretation choice (documented in DESIGN.md): the paper says only that
the ``independently`` flag "ensures that the output probabilistic relation
is tuple-independent".  We read the default as sharing one Boolean
variable among *duplicate* tuples -- duplicates live or die together, so
with duplicates present the result is not tuple-independent -- while
``independently`` gives every tuple occurrence its own fresh variable,
which guarantees tuple-independence unconditionally.  On duplicate-free
inputs the two modes coincide (tested).  Duplicates are found through
:func:`~repro.engine.physical.group_codes`, so NaNs of a FLOAT column match
each other, as in GROUP BY.

Like ``repair key``, the construct is one array pass over the input's
columns: probabilities are checked once, the variables are minted as
one block of ids, and the output columns ``columns + (var, 1)`` are
built without any row tuple.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.urelation import URelation, condition_columns
from repro.core.variables import VariableRegistry
from repro.engine.expressions import Expr
from repro.engine.kernels import compile_kernel
from repro.engine.physical import group_codes
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.errors import PickTuplesError

ProbabilitySpec = Union[None, float, str, Expr, Callable[[tuple], float]]

#: Keeping or dropping each tuple uniformly at random yields the uniform
#: distribution over all subsets of the input.
DEFAULT_PICK_PROBABILITY = 0.5


def pick_tuples(
    relation: Relation,
    registry: VariableRegistry,
    probability: ProbabilitySpec = None,
    independently: bool = False,
    name_hint: Optional[str] = None,
) -> URelation:
    """Apply ``pick tuples`` to a (t-certain) relation.

    Parameters
    ----------
    relation:
        The input t-certain relation.
    registry:
        The registry (inside SQL: the statement's scope) that mints the
        Boolean variables.
    probability:
        ``None`` (default 0.5), a constant, a column name, an engine
        expression, or a callable on rows.  Must evaluate into [0, 1].
    independently:
        Fresh variable per tuple occurrence (guarantees a
        tuple-independent result) instead of one per distinct tuple value.
    """
    schema = relation.schema
    n = len(relation)
    columns = relation.columns()
    chances = _probabilities(relation, probability)

    # Per row, the ordinal of its variable; per variable, its first row.
    if independently:
        codes = firsts = np.arange(n)
    else:
        codes, firsts = group_codes(columns, schema.types, n)
    named = firsts.tolist()

    def label(i: int) -> str:
        if independently:
            return f"{name_hint}[{i}]"
        return f"{name_hint}[{','.join(str(c[named[i]]) for c in columns)}]"

    kept = chances[firsts]
    start = registry.mint(
        np.full(len(kept), 2),
        np.column_stack((1.0 - kept, kept)).ravel(),
        label if name_hint else None,
    )
    cond_arity = 1 if n else 0
    condition = ((codes + start).tolist(), [1] * n)
    pairs = condition_columns(cond_arity)
    wide = Schema(tuple(schema) + tuple(pairs))
    return URelation(
        Relation.from_columns(wide, columns + condition[: len(pairs)], n),
        len(schema),
        cond_arity,
        registry,
    )


def _probabilities(relation: Relation, probability: ProbabilitySpec) -> np.ndarray:
    """Every row's probability as a float64 array, checked in [0, 1] in
    one array pass (a bad one is reported with the first bad row)."""
    n = len(relation)
    if probability is None:
        return np.full(n, DEFAULT_PICK_PROBABILITY)
    if isinstance(probability, (int, float)) and not isinstance(probability, bool):
        raw: Sequence[object] = [float(probability)] * n
    elif isinstance(probability, str):
        raw = relation.columns()[relation.schema.resolve(probability)]
    elif isinstance(probability, Expr):
        raw = compile_kernel(probability, relation.schema)(relation.columns(), n)
    elif callable(probability):
        raw = list(map(probability, relation.rows))
    else:
        raise PickTuplesError(f"unsupported probability specification {probability!r}")
    array = np.array(raw, dtype=float)  # NULL becomes NaN: out of range
    bad = np.flatnonzero(~((array >= 0.0) & (array <= 1.0)))
    if len(bad):
        i = int(bad[0])
        row = tuple(c[i] for c in relation.columns())
        p = raw[i]
        if p is None:
            raise PickTuplesError(f"probability evaluated to NULL on row {row!r}")
        raise PickTuplesError(
            f"probability {float(p)} outside [0, 1] on row {row!r}"  # type: ignore[arg-type]
        )
    return array
