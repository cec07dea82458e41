"""Hierarchical ``conf()`` for every group of a U-relation at once.

SPROUT computes the confidence of tractable queries "by reduction of
confidence computation to a sequence of SQL-like aggregations"
(Section 2.3).  :func:`hierarchical_confidences` is that aggregation plan
as array kernels over the condition columns: one sort of the whole
relation by ``(group, atom of column 1, ..., atom of column k)``, then per
column, deepest first, a multiplication by the atom marginals, a sum over
the values of one variable (alternatives of a ``repair key`` variable are
mutually exclusive) and an independent-or over the distinct variables
under one parent (``1 - prod(1 - s)``).

That evaluation is exact precisely when a group's clauses form a tree.
With the condition columns ordered by the number of distinct variables
they hold in the group (fewest first -- the root), three things are
verified per group, and a group that fails one is *declined*, never
guessed; its lineage goes through the per-group dispatcher
(:mod:`repro.core.confidence.dispatch`) as before:

(a) no column mixes ``TOP_VARIABLE`` padding with real atoms (clauses of
    different widths can absorb one another);
(b) no variable occurs in two columns (a self-join pairs a variable with
    itself and with its siblings);
(c) the variable in a column determines the variable in the column above
    it, and so, along the chain, in every shallower column (the
    variables' clause sets are nested, not crossing).

Given (b) and (c), expanding on the root column's variable splits the
group's clauses into sub-formulas over disjoint variable sets, one per
value, and so on down the columns -- the root eliminations the ws-tree
recursion (:mod:`repro.core.confidence.exact`) runs per lineage in
Python, taken here for all groups in one pass.
"""

from __future__ import annotations

from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.urelation import URelation
from repro.core.variables import TOP_VARIABLE, VariableRegistry


class AtomTable(NamedTuple):
    """The distinct atoms of some condition columns, interned by
    :func:`intern_atoms`; the index arrays have the columns' shape."""

    #: Distinct variable ids, ascending.
    variables: np.ndarray
    #: Per atom, the position of its variable in ``variables``.
    variable_index: np.ndarray
    #: Per atom, its rank among the distinct atoms in (variable, value)
    #: order: equal atoms get equal ranks, and sorting by rank sorts by
    #: variable first.
    atom_index: np.ndarray
    #: Per distinct atom, its variable id and its value.
    atom_variables: np.ndarray
    atom_values: np.ndarray

    def probabilities(self, registry: VariableRegistry) -> np.ndarray:
        """Per distinct atom, its marginal: one registry gather.  Atoms on
        the top variable are padding and always true."""
        out = registry.probabilities(self.atom_variables, self.atom_values)
        out[self.atom_variables == TOP_VARIABLE] = 1.0
        return out


def intern_atoms(variables: np.ndarray, values: np.ndarray) -> AtomTable:
    """Number the distinct variables and the distinct ``(variable,
    value)`` atoms of two equal-shape int64 arrays.  All atoms on the top
    variable are one atom, whatever their value."""
    shape = variables.shape
    flat = variables.ravel()
    names, variable_index = np.unique(flat, return_inverse=True)
    domain, value_index = np.unique(values.ravel(), return_inverse=True)
    keys = variable_index * len(domain) + np.where(
        flat == TOP_VARIABLE, 0, value_index
    )
    atoms, atom_index = np.unique(keys, return_inverse=True)
    return AtomTable(
        names,
        variable_index.reshape(shape),
        atom_index.reshape(shape),
        names[atoms // len(domain)],
        domain[atoms % len(domain)],
    )


def hierarchical_confidences(
    urel: URelation, row_groups: Sequence[Sequence[int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(probabilities, answered)``, one entry per group of row indexes:
    the exact confidence of every group whose clauses pass the three
    checks, and which groups those are."""
    arrays = urel.condition_arrays()
    n_groups = len(row_groups)
    sizes = np.fromiter(map(len, row_groups), dtype=np.int64, count=n_groups)
    rows = np.fromiter(
        chain.from_iterable(row_groups), dtype=np.int64, count=int(sizes.sum())
    )
    group = np.repeat(np.arange(n_groups), sizes)
    table = intern_atoms(arrays[0][:, rows], arrays[1][:, rows])
    variable, atom = table.variable_index, table.atom_index
    arity, n_variables = len(variable), len(table.variables)
    tops = np.flatnonzero(table.variables == TOP_VARIABLE)
    top = int(tops[0]) if len(tops) else -1

    # Per column, the distinct (group, variable) pairs: how many variables
    # a group has there, checks (a) and (b), and the handle for (c).
    declined = np.zeros(n_groups, dtype=bool)
    distinct = np.empty((n_groups, arity), dtype=np.int64)
    pair_of_row: List[np.ndarray] = []
    real_pairs: List[np.ndarray] = []
    for column in range(arity):
        pairs, inverse = np.unique(
            group * n_variables + variable[column], return_inverse=True
        )
        pair_group = pairs // n_variables
        distinct[:, column] = np.bincount(pair_group, minlength=n_groups)
        padding = pairs % n_variables == top
        declined[pair_group[padding & (distinct[pair_group, column] > 1)]] = True
        real_pairs.append(pairs[~padding])
        pair_of_row.append(inverse)
    seen = np.sort(np.concatenate(real_pairs))
    declined[seen[1:][seen[1:] == seen[:-1]] // n_variables] = True

    # Fewest distinct variables first; ties (a bijection, either order is
    # a tree) go the way of the relation as a whole, so that groups agree
    # on one order and the loop below runs once.
    overall = np.argsort(np.argsort(distinct.sum(axis=0), kind="stable"))
    orders = np.argsort(distinct * arity + overall, axis=1)
    _, first, pattern_of_group = np.unique(
        orders @ arity ** np.arange(arity), return_index=True, return_inverse=True
    )
    pattern_of_row = pattern_of_group[group]

    probabilities = np.zeros(n_groups)
    # The registry is read only once a group is left to answer.
    marginal: Optional[np.ndarray] = None
    for number, order in enumerate(orders[first]):
        chosen = np.flatnonzero(pattern_of_row == number)
        parent = np.empty(len(group), dtype=np.int64)
        for shallow, deep in zip(order, order[1:]):
            pair, above = pair_of_row[deep][chosen], variable[shallow][chosen]
            parent[pair] = above
            declined[group[chosen][parent[pair] != above]] = True
        live = chosen[~declined[group[chosen]]]
        if len(live):
            if marginal is None:
                marginal = table.probabilities(urel.registry)
            answered, values = _reduce(
                group[live],
                [variable[column][live] for column in order],
                [atom[column][live] for column in order],
                marginal,
            )
            probabilities[answered] = values
    return probabilities, ~declined


def _reduce(
    group: np.ndarray,
    variables: List[np.ndarray],
    atoms: List[np.ndarray],
    marginal: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate tree-shaped groups bottom-up.  ``variables`` and ``atoms``
    hold one array per level, root first; returns the groups present and
    their probabilities."""
    order = np.lexsort(tuple(reversed(atoms)) + (group,))
    group = group[order]
    atoms = [level[order] for level in atoms]

    # starts[...][i]: row i begins a new node at that depth of the sorted
    # relation -- a group, a variable under its parent atom, an atom.
    boundary = np.ones(len(group), dtype=bool)
    boundary[1:] = group[1:] != group[:-1]
    atom_starts = [boundary]
    variable_starts: List[np.ndarray] = []
    for level_variable, level_atom in zip(variables, atoms):
        level_variable = level_variable[order]
        boundary = boundary.copy()
        boundary[1:] |= level_variable[1:] != level_variable[:-1]
        variable_starts.append(boundary)
        boundary = boundary.copy()
        boundary[1:] |= level_atom[1:] != level_atom[:-1]
        atom_starts.append(boundary)

    nodes = np.flatnonzero(boundary)  # one row per distinct clause
    value = np.ones(len(nodes))
    for level in reversed(range(len(atoms))):
        value *= marginal[atoms[level][nodes]]
        starts = np.flatnonzero(variable_starts[level][nodes])
        value, nodes = np.add.reduceat(value, starts), nodes[starts]
        starts = np.flatnonzero(atom_starts[level][nodes])
        either = 1.0 - np.multiply.reduceat(1.0 - value, starts)
        # 1 - (1 - s) is not s in floating point: an only child passes
        # through untouched, which also makes an all-padding column exact.
        only = np.diff(starts, append=len(nodes)) == 1
        either[only] = value[starts[only]]
        value, nodes = either, nodes[starts]
    return group[nodes], np.minimum(value, 1.0)
