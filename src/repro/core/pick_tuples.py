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
:func:`~repro.engine.physical.key_rows`, so NaNs of a FLOAT column match
each other, as in GROUP BY.

Like ``repair key``, the construct is one pass: probabilities are checked
once, the variables are minted as one block of ids, and the wide rows
``row + (var, 1, p)`` are emitted directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.urelation import URelation, condition_columns
from repro.core.variables import VariableRegistry
from repro.engine.expressions import Expr
from repro.engine.physical import key_rows
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
        [{0: 1.0 - p, 1: p} for p in kept], label if name_hint else None
    )
    out = [
        row + (start + ordinal, 1, kept[ordinal])
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
