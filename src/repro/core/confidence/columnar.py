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

A declined group is often a tree in parts.  :func:`split_components`,
which the dispatcher runs over all the declined groups at once, splits
each group whose clauses have one width into its independent components
and makes the same checks and the same reduction per component, so that
single clauses and trees are answered here.

A component that crosses is not given up either.  Jha, Olteanu and Suciu
("Bridging the gap between intensional and extensional query evaluation
in probabilistic databases", EDBT 2010) condition on the few variables
that stand in the way of a safe plan and evaluate each conditioned world
safely.  :func:`_condition` does that for all crossing components at
once: Shannon expansion on a small cutset, the worlds enumerated in
arrays, each world a two-level tree.  Only the components that are too
large, or whose variables take several values, reach the ws-tree.
"""

from __future__ import annotations

from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.lineage import Clause
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


#: What :func:`split_components` made of a component: a single clause
#: (or a whole group of pairwise variable-disjoint clauses) in closed
#: form, a tree answered by :func:`_reduce`, or declined -- answered by
#: :func:`_condition` or left to the ws-tree.
CLOSED, TREE, DECLINED = 0, 1, 2


class ComponentSplit(NamedTuple):
    """The independent components of the groups :func:`split_components`
    split, in order of (group, smallest variable id).  A group whose
    clauses are pairwise variable-disjoint is one closed-form entry."""

    #: Per entry: its group's ordinal, its clause and variable counts, its
    #: kind and its probability (NaN where left to the ws-tree).
    group: np.ndarray
    clauses: np.ndarray
    variables: np.ndarray
    kind: np.ndarray
    probability: np.ndarray
    #: Per entry, its clauses in group order where it is left to the
    #: ws-tree, else None.
    declined: List[Optional[List[Clause]]]
    #: The groups left whole: those with no clause, the certain clause or
    #: clauses of different widths (only those can absorb one another).
    whole: List[int]


def split_components(
    groups: Sequence[Sequence[Clause]],
    registry: VariableRegistry,
    exact_budget: Optional[int],
) -> ComponentSplit:
    """Split every group of canonical clauses of one width into its
    independent components in one array pass, and answer the components
    that need no ws-tree: single clauses, trees (:func:`_reduce`), and
    crossing components small enough to condition on a cutset
    (:func:`_condition`; ``exact_budget`` bounds its worlds as it bounds
    the ws-tree's subproblems, None for no bound).

    Zero-probability and duplicate clauses are dropped first, as
    :func:`~repro.core.lineage.simplify_clauses` drops them, so a group's
    components are those of its simplified clauses.  Components are
    labelled by min-label hooking over the (group, variable) pairs.
    The tree check reads each clause's atoms in order of descending
    occurrence count within the component, ties by variable id: a
    component is a tree when no variable takes two positions and the
    variable at each position determines the one before it (checks (b)
    and (c) above; (a) holds at one width).
    """
    n_groups = len(groups)
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=n_groups)
    clauses = list(chain.from_iterable(groups))
    width = np.fromiter(map(len, clauses), dtype=np.int64, count=len(clauses))
    group = np.repeat(np.arange(n_groups), sizes)
    low = np.zeros(n_groups, dtype=np.int64)
    high = np.zeros(n_groups, dtype=np.int64)
    filled = np.flatnonzero(sizes)
    if len(filled):
        starts = (np.cumsum(sizes) - sizes)[filled]
        low[filled] = np.minimum.reduceat(width, starts)
        high[filled] = np.maximum.reduceat(width, starts)
    split = (low == high) & (low > 0)
    fields: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * 4 + [np.empty(0)]
    declined: List[Optional[List[Clause]]] = []
    for k in sorted(set(low[split].tolist())):
        rows = np.flatnonzero((split & (low == k))[group])
        part, part_declined = _split_width(
            [clauses[i] for i in rows.tolist()], group[rows], k, registry, exact_budget
        )
        fields = [np.concatenate(pair) for pair in zip(fields, part)]
        declined += part_declined
    if np.any(np.diff(fields[0]) < 0):
        # Groups of several widths: back into group order.
        order = np.argsort(fields[0], kind="stable")
        fields = [field[order] for field in fields]
        declined = [declined[i] for i in order.tolist()]
    return ComponentSplit(*fields, declined, np.flatnonzero(~split).tolist())


def _split_width(
    clauses: List[Clause],
    group: np.ndarray,
    k: int,
    registry: VariableRegistry,
    exact_budget: Optional[int],
) -> Tuple[List[np.ndarray], List[Optional[List[Clause]]]]:
    """:func:`split_components` on clauses of width ``k`` and their
    groups' ordinals (ascending): the entries' fields and clauses."""
    atoms = np.fromiter(
        chain.from_iterable(chain.from_iterable(clauses)),
        dtype=np.int64,
        count=2 * k * len(clauses),
    ).reshape(len(clauses), k, 2)
    table = intern_atoms(atoms[:, :, 0], atoms[:, :, 1])
    atom, marginal = table.atom_index, table.probabilities(registry)
    # P(clause): its atoms multiplied left to right, as clause_probability.
    chance = marginal[atom]
    probability = chance[:, 0].copy()
    for column in range(1, k):
        probability *= chance[:, column]
    present = group[np.diff(group, prepend=-1) != 0]

    # Drop zero-probability clauses, and each clause equal to an earlier
    # one of its group.
    keep = probability > 0.0
    order = np.lexsort(tuple(atom.T[::-1]) + (group,))
    same = (atom[order[1:]] == atom[order[:-1]]).all(axis=1)
    same &= group[order[1:]] == group[order[:-1]]
    keep[order[1:][same]] = False
    live = np.flatnonzero(keep)
    group, atom, probability = group[live], atom[live], probability[live]
    variable = table.variable_index[live]

    # Components: min-label hooking with pointer jumping over the (group,
    # variable) pairs, each clause an edge from its first pair to each
    # other.  A root is hooked only below a smaller one, so each
    # component's label is its smallest pair: components come in order
    # of (group, smallest variable id).
    stride = len(table.variables)
    pairs, pair = np.unique(group[:, None] * stride + variable, return_inverse=True)
    pair = pair.reshape(variable.shape)
    tail, head = pair[:, 1:].ravel(), np.repeat(pair[:, 0], k - 1)
    label = np.arange(len(pairs))
    while True:
        above, below = label[tail], label[head]
        apart = above != below
        if not apart.any():
            break
        above, below = above[apart], below[apart]
        np.minimum.at(label, np.maximum(above, below), np.minimum(above, below))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    roots = label == np.arange(len(pairs))
    names = np.flatnonzero(roots)
    pair_component = (np.cumsum(roots) - 1)[label]
    component = pair_component[pair[:, 0]]
    first_clause = np.full(len(names), len(component))
    np.minimum.at(first_clause, component, np.arange(len(component)))
    clause_count = np.bincount(component, minlength=len(names))
    variable_count = np.bincount(pair_component, minlength=len(names))
    component_group = pairs[names] // stride

    # The tree check, and the trees' probabilities.
    count = np.bincount(pair.ravel(), minlength=len(pairs))
    by_count = np.argsort(-count[pair] * stride + variable, axis=1)
    pair = np.take_along_axis(pair, by_count, axis=1)
    kind = np.full(len(names), TREE)
    seat = np.empty(len(pairs), dtype=np.int64)
    parent = np.empty(len(pairs), dtype=np.int64)
    for column in range(k):
        seat[pair[:, column]] = column
    for column in range(k):
        moved = seat[pair[:, column]] != column
        if column:
            parent[pair[:, column]] = pair[:, column - 1]
            moved |= parent[pair[:, column]] != pair[:, column - 1]
        kind[component[moved]] = DECLINED
    kind[clause_count == 1] = CLOSED
    values = probability[first_clause]
    atom = np.take_along_axis(atom, by_count, axis=1)
    trees = np.flatnonzero(kind[component] == TREE)
    if len(trees):
        answered, reduced = _reduce(
            component[trees],
            list(np.take_along_axis(variable, by_count, axis=1)[trees].T),
            list(atom[trees].T),
            marginal,
        )
        values[answered] = reduced
    values[kind == DECLINED] = np.nan
    if (kind == DECLINED).any():
        _condition(
            values, kind, component, pair, atom, count, pair_component,
            clause_count, marginal, exact_budget,
        )

    # A group of pairwise variable-disjoint clauses, or of none left, is
    # one entry: 1 - prod(1 - p) over its clauses in order, a lone
    # clause's p, or 0.
    span = int(present[-1]) + 1
    live_count = np.bincount(group, minlength=span)[present]
    separate = live_count == np.bincount(component_group, minlength=span)[present]
    lone, lone_count = present[separate], live_count[separate]
    alone = np.zeros(span, dtype=bool)
    alone[lone] = True
    lone_p = np.zeros(len(lone))
    rows = np.flatnonzero(alone[group])
    if len(rows):
        filled = lone_count > 0
        starts = np.cumsum(lone_count) - lone_count
        lone_p[filled] = 1.0 - np.multiply.reduceat(1.0 - probability[rows], starts[filled])
        single = lone_count == 1
        lone_p[single] = probability[rows[starts[single]]]
    source = np.flatnonzero(~alone[component_group])
    fields = [
        np.concatenate((field[source], whole))
        for field, whole in zip(
            (component_group, clause_count, variable_count, kind, values),
            (lone, lone_count, lone_count * k, np.full(len(lone), CLOSED), lone_p),
        )
    ]
    source = np.concatenate([source, np.full(len(lone), -1)])
    order = np.argsort(fields[0], kind="stable")
    fields = [field[order] for field in fields]
    source = source[order]

    # The clauses of the declined components left unanswered, in group
    # order.
    declined: List[Optional[List[Clause]]] = [None] * len(source)
    at = np.flatnonzero(np.isnan(fields[4]))
    if len(at):
        rows = np.flatnonzero(np.isnan(values[component]))
        rows = rows[np.argsort(component[rows], kind="stable")]
        originals = live[rows].tolist()
        ends = np.cumsum(clause_count[source[at]]).tolist()
        for entry, start, end in zip(at.tolist(), [0] + ends[:-1], ends):
            declined[entry] = [clauses[i] for i in originals[start:end]]
    return fields, declined


#: The most (clause, world) rows :func:`_condition` expands at once, and so
#: the most one component may expand to: its clause count times 2^|S|.
#: Measured on ``conf_hard`` (seed 11, ``bench`` scale, fresh engines): a
#: component of 2^13-2^14 rows costs 0.9 ms conditioned and 1.1 ms in the
#: ws-tree, one of 2^15-2^16 rows 2.6 ms against 1.4 ms.  A cap of 2^15
#: saved another 0.24 of 5.3 ms per statement in the dispatcher and
#: raised the server's peak RSS by 0.5 MB more over 900 statements.
CONDITIONING_ROWS = 2**13


def _condition(
    values: np.ndarray,
    kind: np.ndarray,
    component: np.ndarray,
    pair: np.ndarray,
    atom: np.ndarray,
    count: np.ndarray,
    pair_component: np.ndarray,
    clause_count: np.ndarray,
    marginal: np.ndarray,
    budget: Optional[int],
) -> None:
    """Answer, in place in ``values``, the declined components that
    Shannon expansion on a small cutset S turns into two-level trees.

    ``pair`` and ``atom`` hold each clause's (group, variable) pairs and
    atoms in the tree check's order, ``count`` each pair's occurrences.
    S is the shared pairs that sit behind the first column of some clause,
    so every clause keeps at most one shared pair outside S, its first.  A
    component qualifies when each of its pairs carries one atom (an event
    that holds or not), when its clause count times 2^|S| is at most
    :data:`CONDITIONING_ROWS` and 2^|S| at most ``budget``.  In each world
    over S a clause is alive when its S-atoms hold; with its private atoms
    folded into a weight w, the alive clauses under one remaining shared
    pair r and those under none are independent, and

        P(component) = Σ_world P(world) · (1 − ∏ᵣ (1 − pᵣ (1 − ∏ᵢ (1 − wᵢ)))
                                                   · ∏ⱼ (1 − wⱼ)).
    """
    # A pair with two atoms disqualifies its component.
    pair_atom = np.empty(len(count), dtype=np.int64)
    pair_atom[pair.ravel()] = atom.ravel()
    ok = kind == DECLINED
    ok[component[(pair_atom[pair] != atom).any(axis=1)]] = False
    cut = np.zeros(len(count), dtype=bool)
    cut[pair[:, 1:].ravel()] = True
    cut &= count > 1
    cutset = np.flatnonzero(cut)
    bits = np.bincount(pair_component[cutset], minlength=len(kind))
    # Past the cap's bit length a component is too large anyway; no shift
    # overflows.
    worlds = np.left_shift(1, np.minimum(bits, CONDITIONING_ROWS.bit_length()))
    ok &= clause_count * worlds <= CONDITIONING_ROWS
    if budget is not None:
        ok &= worlds <= budget
    chosen = np.flatnonzero(ok)
    if not len(chosen):
        return

    # The chosen components' clauses, each component's run in order of
    # its remaining shared pair (-1: none).
    rows = np.flatnonzero(ok[component])
    head = pair[rows, 0]
    residual = np.where(cut[head], -1, head)
    order = np.lexsort((residual, component[rows]))
    rows, residual = rows[order], residual[order]
    # Each S pair's bit within its component, in the tree check's order.
    cutset = cutset[ok[pair_component[cutset]]]
    cutset = cutset[np.lexsort((cutset, -count[cutset], pair_component[cutset]))]
    home = pair_component[cutset]
    bit = np.zeros(len(count), dtype=np.int64)
    bit[cutset] = np.arange(len(cutset)) - np.searchsorted(home, home)
    # Per chosen component and bit: the chances that its S atom holds and
    # fails (1 past the component's own bits).
    slot = np.zeros(len(kind), dtype=np.int64)
    slot[chosen] = np.arange(len(chosen))
    width = int(bits[chosen].max())
    holds = np.ones((len(chosen), width))
    fails = np.ones((len(chosen), width))
    chance = marginal[pair_atom[cutset]]
    holds[slot[home], bit[cutset]] = chance
    fails[slot[home], bit[cutset]] = 1.0 - chance

    pairs = pair[rows]
    inside = cut[pairs]
    need = np.bitwise_or.reduce(
        np.where(inside, np.left_shift(1, bit[pairs]), 0), axis=1
    ).astype(np.int32)
    chances = marginal[atom[rows]]
    head_chance = chances[:, 0]
    spare = 1.0 - np.where(inside[:, 1:], 1.0, chances[:, 1:]).prod(axis=1)

    # Row-level indexes fit in int32: a chunk holds at most
    # CONDITIONING_ROWS rows.
    clauses = clause_count[chosen].astype(np.int32)
    worlds = worlds[chosen].astype(np.int32)
    first_clause = np.cumsum(clauses, dtype=np.int32) - clauses
    cost = clauses.astype(np.int64) * worlds
    ends = np.cumsum(cost)
    start = 0
    while start < len(chosen):
        stop = int(
            np.searchsorted(ends, ends[start] - cost[start] + CONDITIONING_ROWS, "right")
        )
        # The chunk's worlds, component by component; its rows, world by
        # world: each (world, clause) pair once, the dead ones dropped.
        span = worlds[start:stop]
        owner = np.repeat(np.arange(start, stop, dtype=np.int32), span)
        local = np.arange(len(owner), dtype=np.int32)
        local -= np.repeat(np.cumsum(span, dtype=np.int32) - span, span)
        per = clauses[owner]
        shift = first_clause[owner] - (np.cumsum(per, dtype=np.int32) - per)
        world = np.repeat(np.arange(len(owner), dtype=np.int32), per)
        clause = np.arange(len(world), dtype=np.int32)
        clause += np.repeat(shift, per)
        required = need[clause]
        alive = local[world] & required == required
        del required
        world, clause = world[alive], clause[alive]
        # Per (world, remaining pair): ∏ (1 − w) over its alive clauses,
        # then per world the product of the independent terms.
        r = residual[clause]
        edge = np.ones(len(world), dtype=bool)
        edge[1:] = (world[1:] != world[:-1]) | (r[1:] != r[:-1])
        starts = np.flatnonzero(edge)
        term = np.multiply.reduceat(spare[clause], starts)
        under = r[starts] >= 0
        term[under] = 1.0 - head_chance[clause[starts[under]]] * (1.0 - term[under])
        world = world[starts]
        edge = np.ones(len(world), dtype=bool)
        edge[1:] = world[1:] != world[:-1]
        starts = np.flatnonzero(edge)
        either = 1.0 - np.multiply.reduceat(term, starts)
        world = world[starts]
        at, local = owner[world], local[world]
        chance = np.ones(len(world))
        for b in range(int(bits[chosen[start:stop]].max())):
            chance *= np.where(local >> b & 1, holds[at, b], fails[at, b])
        values[chosen[start:stop]] = np.bincount(
            at - start, weights=chance * either, minlength=stop - start
        )
        start = stop


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
