"""The clause form of lineage, and the clause decode of ``conf()`` /
``aconf()``.

The lineage of a (distinct) result tuple is a disjunction of conjunctive
local conditions -- one clause per duplicate of the tuple, read off the
U-relation's condition columns (Section 2.1).  A clause is a canonical
atom tuple (:data:`Clause`): sorted by variable, with the top padding
dropped and a repeated atom merged (:func:`canonical_clause`).  It is
the only clause form: the array pass, the dispatcher, the exact ws-tree
recursion and the Monte-Carlo engines all read these tuples.

- :func:`row_clauses` reads every row's clause off a U-relation's
  condition columns in one array pass, and :func:`group_lineages` hands
  ``conf()`` and ``aconf()`` the clauses of the groups the array pass of
  :mod:`repro.core.confidence.columnar` declines;
- :func:`simplify_clauses` drops the clauses that cannot matter:
  ⊤ collapses the disjunction, zero-probability and duplicate clauses go,
  and a clause with a kept subset is absorbed;
- :func:`closed_form` answers ⊥/⊤, a single clause's atom product and
  1 − ∏(1 − P(clause)) over pairwise variable-disjoint clauses.

A clause's marginal is its atoms' chances multiplied left to right
(:func:`clause_probability`).

This module deliberately imports only :mod:`repro.core.variables`, so
every layer above (engines, SQL) can depend on it without cycles.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.variables import TOP_VARIABLE

if TYPE_CHECKING:
    from repro.core.urelation import URelation

#: One assignment ``variable ↦ value`` of a condition.
Atom = Tuple[int, int]
#: A canonical clause: consistent atoms, one per variable, sorted by variable.
Clause = Tuple[Atom, ...]
#: Per variable, its chances indexed by domain value.
Distributions = Mapping[int, Sequence[float]]


def canonical_clause(atoms: Iterable[Atom]) -> Optional[Clause]:
    """The canonical clause of a conjunction of atoms, or None when two
    atoms give one variable different values.  Atoms on the top variable
    are padding and always true: they are dropped."""
    by_var: Dict[int, int] = {}
    for var, value in atoms:
        if var == TOP_VARIABLE:
            continue
        if by_var.setdefault(var, value) != value:
            return None
    return tuple(sorted(by_var.items()))


def clause_probability(clause: Clause, distributions: Distributions) -> float:
    """P(clause): the chances of its atoms multiplied left to right, 0 for
    a value outside its variable's domain."""
    p = 1.0
    for var, value in clause:
        chances = distributions[var]
        p *= chances[value] if 0 <= value < len(chances) else 0.0
    return p


#: Above this clause width, simplification falls back to a linear
#: absorption scan instead of enumerating 2^k atom subsets.
_SUBSET_ENUMERATION_WIDTH = 12


def simplify_clauses(
    clauses: Sequence[Clause], probability: Callable[[Clause], float]
) -> Sequence[Clause]:
    """The clauses of a disjunction that can matter, given each clause's
    marginal ``probability``:

    - a certain (empty) clause makes the disjunction ⊤: ``[()]``;
    - zero-probability clauses (an atom outside its variable's support)
      never hold in any world: dropped;
    - duplicate clauses: dropped;
    - subsumed clauses (a kept clause's atoms ⊆ this clause's atoms):
      absorbed, by enumerating atom subsets for narrow clauses and a
      linear scan for wide ones.

    Clauses are visited shortest first, so the kept ones come in that
    order -- unless none is dropped: then ``clauses`` itself is returned,
    in its own order.  Simplifying simplified clauses returns them.
    """
    kept: List[Clause] = []
    kept_keys: Set[Clause] = set()
    kept_widths: Set[int] = set()
    for clause in sorted(clauses, key=len):
        if not clause:
            return [()]
        if clause in kept_keys or probability(clause) <= 0.0:
            continue
        width = len(clause)
        if width > _SUBSET_ENUMERATION_WIDTH:
            absorbed = any(set(k).issubset(clause) for k in kept)
        else:
            # Only subsets as wide as some kept clause can be one.
            absorbed = False
            for size in range(1, width):
                if size in kept_widths and not kept_keys.isdisjoint(
                    itertools.combinations(clause, size)
                ):
                    absorbed = True
                    break
        if absorbed:
            continue
        kept.append(clause)
        kept_keys.add(clause)
        kept_widths.add(width)
    return clauses if len(kept) == len(clauses) else kept


def closed_form(
    clauses: Sequence[Clause], probability: Callable[[Clause], float]
) -> Optional[float]:
    """P(⋁ clauses) when a closed form applies, else None: ⊥ → 0, a single
    clause → its atom-marginal product, pairwise variable-disjoint clauses
    → 1 − ∏(1 − P(clauseᵢ)) by independence.  ``clauses`` are simplified,
    so ⊤ is the single clause ``()``."""
    if len(clauses) <= 1:
        return probability(clauses[0]) if clauses else 0.0
    if sum(map(len, clauses)) != len({var for clause in clauses for var, _ in clause}):
        return None  # some variable occurs in two clauses
    return combine_independent(map(probability, clauses))


def combine_independent(probabilities: Iterable[float]) -> float:
    """P(⋁ᵢ Eᵢ) for independent events: 1 − ∏(1 − pᵢ)."""
    complement = 1.0
    for p in probabilities:
        complement *= 1.0 - p
    return 1.0 - complement


# ---------------------------------------------------------------------------
# Columnar construction from U-relations.
# ---------------------------------------------------------------------------


def group_lineages(
    urel: "URelation", row_groups: Sequence[Sequence[int]]
) -> List[List[Clause]]:
    """Per group of row indexes, the clauses of its rows in row order.

    One decode of the condition columns (:func:`row_clauses`) serves the
    relation: it is kept with the relation like the grouping is
    (:meth:`~repro.engine.relation.Relation.derived`), so every
    ``conf()`` / ``aconf()`` over an unchanged stored U-relation reads the
    same clauses.  Rows with contradictory conditions (possible only
    before a consistency filter runs) represent no world and contribute
    no clause.
    """
    clauses: Sequence[Optional[Clause]] = urel.relation.derived(
        ("clauses", urel.payload_arity, urel.cond_arity), lambda: row_clauses(urel)
    )
    return [
        [clause for clause in (clauses[i] for i in rows) if clause is not None]
        for rows in row_groups
    ]


def row_clauses(urel: "URelation") -> Sequence[Optional[Clause]]:
    """Per row of a U-relation, its canonical clause, or None for a
    contradictory row: one stable sort of each row's atoms by variable
    over the condition arrays (:meth:`URelation.condition_arrays`).  The
    top padding sorts first and is dropped, an atom equal to its left
    neighbour is merged, and a variable repeated with another value makes
    the row contradictory."""
    variables, values = urel.condition_arrays()  # shape (cond_arity, rows)
    order = np.argsort(variables, axis=0, kind="stable")
    variables = np.take_along_axis(variables, order, axis=0)
    values = np.take_along_axis(values, order, axis=0)
    repeated = (variables[1:] == variables[:-1]) & (variables[1:] != TOP_VARIABLE)
    keep = variables != TOP_VARIABLE
    keep[1:] &= ~repeated
    # Consecutive runs of cond_arity atoms are the rows' clauses.
    atoms = zip(variables.T.ravel().tolist(), values.T.ravel().tolist())
    clauses: List[Clause] = list(zip(*[atoms] * len(variables)))
    for row in np.flatnonzero(~keep.all(axis=0)).tolist():
        clauses[row] = tuple(
            atom for atom, kept in zip(clauses[row], keep[:, row].tolist()) if kept
        )
    out: List[Optional[Clause]] = list(clauses)
    conflicting = (repeated & (values[1:] != values[:-1])).any(axis=0)
    for row in np.flatnonzero(conflicting).tolist():
        out[row] = None
    return out
