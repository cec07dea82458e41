"""The reference ``conf()`` dispatch: the oracle the clause path of
:mod:`repro.core.aggregates` and :mod:`repro.core.confidence.dispatch` is
checked against.

Every row's condition is decoded on its own (:func:`row_conditions`): its
(variable, value) pairs with the top padding dropped, one value per
variable, sorted -- or None when a variable gets two values.  Every group
the array pass declines becomes the list of its rows' clauses; the
dispatch below then simplifies it, tries the whole-group closed form and
splits it into components (:func:`reference.ws_tree.components`, in order
of their smallest variable id).  In a group whose clauses all have one
width, a single clause is closed form, a tree (:func:`is_tree`) is
``sprout`` and a component the array pass conditions on its cutset
(:func:`conditioned`) is ``exact``, both answered by an uncounted run of
the frozen recursion of :mod:`reference.ws_tree`, which must label them
so; every other component makes one call of the call's counted ws-tree,
falling back to Monte Carlo on a blown budget, which leaves the counters
and the memo as they were.  :func:`aconf` runs
each declined group through the whole-group routes of ``aconf()``
instead, the Monte-Carlo one on the group's own seeded stream.

The system must give the same decisions (strategy, clause and variable
counts) in the same order, the same Monte-Carlo draws, the same ws-tree
counters and the same EXPLAIN events.  Probabilities agree to 1e-12
absolute: the system answers trees by array reductions and runs a
recursion that folds private variables into clause weights, so their
last bits may differ from the frozen recursion's.

:func:`clause_probability` and :func:`satisfied` are the clause semantics
the oracles of :mod:`reference.worlds` and :mod:`reference.naive` share.
:func:`is_hierarchical` is the laminar-clause-set test the generated
ws-tree tests use as a second opinion on the engine's labels.
"""

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.core import aggregates
from repro.core.confidence import columnar, dispatch
from repro.core.confidence.dispatch import (
    STRATEGY_CLOSED_FORM,
    STRATEGY_EXACT,
    STRATEGY_MONTE_CARLO,
    STRATEGY_SPROUT,
    ComponentDecision,
    ConfidenceDispatcher,
    DispatchResult,
)
from repro.core.confidence.dklr import aconf_unit_seed, approximate_confidence
from repro.core.lineage import combine_independent
from repro.core.urelation import URelation
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.errors import CostBudgetExceededError, UnsafeLineageError

from reference.ws_tree import WsTree, components

#: Above this clause width, absorption is a linear scan.
SUBSET_ENUMERATION_WIDTH = 12


def row_conditions(urel: URelation) -> List[Optional[tuple]]:
    """Per row, its condition pairs as a canonical clause, or None for a
    contradictory row: one row at a time, straight off the wide rows."""
    base = urel.payload_arity
    out: List[Optional[tuple]] = []
    for row in urel.relation.rows:
        atoms: Optional[Dict[int, int]] = {}
        for i in range(urel.cond_arity):
            var, value = row[base + 2 * i], row[base + 2 * i + 1]
            if var == TOP_VARIABLE:
                continue
            if atoms.setdefault(var, value) != value:
                atoms = None
                break
        out.append(None if atoms is None else tuple(sorted(atoms.items())))
    return out


def clause_probability(clause: tuple, registry: VariableRegistry) -> float:
    """P(clause): the product of its atoms' chances."""
    p = 1.0
    for var, value in clause:
        p *= registry.probability(var, value)
        if p == 0.0:
            return 0.0
    return p


def satisfied(clause: tuple, world: Mapping[int, int]) -> bool:
    """Does the assignment give every atom's variable its value?"""
    return all(world.get(var) == value for var, value in clause)


def simplified(clauses: Sequence[tuple], registry: VariableRegistry) -> List[tuple]:
    """⊤ collapses the clauses; zero-probability, duplicate and subsumed
    clauses go.  Clauses are visited shortest first; they keep their own
    order when none goes."""
    kept: List[tuple] = []
    kept_keys: Set[tuple] = set()
    for clause in sorted(clauses, key=len):
        if not clause:
            return [()]
        if clause in kept_keys or clause_probability(clause, registry) <= 0.0:
            continue
        width = len(clause)
        if width <= SUBSET_ENUMERATION_WIDTH:
            absorbed = any(
                subset in kept_keys
                for size in range(1, width)
                for subset in itertools.combinations(clause, size)
            )
        else:
            absorbed = any(set(k) <= set(clause) for k in kept)
        if not absorbed:
            kept.append(clause)
            kept_keys.add(clause)
    return list(clauses) if len(kept) == len(clauses) else kept


def _variables(clauses: Sequence[tuple]) -> Set[int]:
    return {var for clause in clauses for var, _ in clause}


def closed_form(
    clauses: Sequence[tuple], registry: VariableRegistry
) -> Optional[float]:
    """⊥ → 0, ⊤ → 1, one clause → its atom product, pairwise
    variable-disjoint clauses → 1 − ∏(1 − P(clause)); else None."""
    if not clauses:
        return 0.0
    if not all(clauses):
        return 1.0
    if len(clauses) == 1:
        return clause_probability(clauses[0], registry)
    if sum(map(len, clauses)) == len(_variables(clauses)):
        return combine_independent(clause_probability(c, registry) for c in clauses)
    return None


def is_hierarchical(clauses: Sequence[tuple]) -> bool:
    """Are the variables' clause-index sets laminar (nested or disjoint)?
    Then every connected component has a variable occurring in all its
    clauses (a root), recursively, and safe evaluation completes.  The
    converse needs one value per variable: with several, root eliminations
    can succeed on a family that is not laminar."""
    clause_sets: Dict[int, Set[int]] = {}
    for index, clause in enumerate(clauses):
        for var, _ in clause:
            clause_sets.setdefault(var, set()).add(index)
    sets = list(clause_sets.values())
    return all(
        a <= b or b <= a or not (a & b)
        for i, a in enumerate(sets)
        for b in sets[i + 1 :]
    )


def _shape(clauses: Sequence[tuple]):
    return len(clauses), len(_variables(clauses))


def is_tree(clauses: Sequence[tuple]) -> bool:
    """With each clause's variables in order of descending occurrence
    count (ties: lower id first), does every variable keep one position
    and one variable before it?  Then the clauses form a tree and the
    recursion evaluates them by root eliminations."""
    counts: Dict[int, int] = {}
    for clause in clauses:
        for var, _ in clause:
            counts[var] = counts.get(var, 0) + 1
    seat: Dict[int, tuple] = {}
    for clause in clauses:
        chain = sorted((var for var, _ in clause), key=lambda var: (-counts[var], var))
        for depth, var in enumerate(chain):
            above = chain[depth - 1] if depth else None
            if seat.setdefault(var, (depth, above)) != (depth, above):
                return False
    return True


def cutset(clauses: Sequence[tuple]) -> Set[int]:
    """The variables the array pass conditions a component on: those
    occurring in two clauses or more that some clause orders after its
    first, in the order of :func:`is_tree`."""
    counts: Dict[int, int] = {}
    for clause in clauses:
        for var, _ in clause:
            counts[var] = counts.get(var, 0) + 1
    out: Set[int] = set()
    for clause in clauses:
        chain = sorted((var for var, _ in clause), key=lambda var: (-counts[var], var))
        out.update(var for var in chain[1:] if counts[var] > 1)
    return out


def conditioned(clauses: Sequence[tuple], budget: Optional[int]) -> bool:
    """Does the array pass answer this component of one width, neither a
    single clause nor a tree, by Shannon expansion on its
    :func:`cutset`?  Each variable must take one value in it; its clause
    count times 2^|cutset| must be at most ``CONDITIONING_ROWS``, and
    2^|cutset| at most the exact budget."""
    values: Dict[int, int] = {}
    for clause in clauses:
        for var, value in clause:
            if values.setdefault(var, value) != value:
                return False
    worlds = 2 ** len(cutset(clauses))
    return len(clauses) * worlds <= columnar.CONDITIONING_ROWS and (
        budget is None or worlds <= budget
    )


def _counted(engine: WsTree, clauses: Sequence[tuple]) -> float:
    """One counted ws-tree call; a blown budget leaves the counters and
    the memo as they were."""
    before, entries = dict(vars(engine.statistics)), len(engine._memo)
    try:
        return engine.probability(clauses)
    except CostBudgetExceededError:
        vars(engine.statistics).update(before)
        while len(engine._memo) > entries:
            engine._memo.popitem()
        raise


def _auto(
    dispatcher: ConfidenceDispatcher,
    clauses: Sequence[tuple],
    engine: WsTree,
) -> DispatchResult:
    one_width = len({len(clause) for clause in clauses}) == 1 and all(clauses)
    clauses = simplified(clauses, engine.registry)
    closed = closed_form(clauses, engine.registry)
    if closed is not None:
        return DispatchResult(
            closed, (ComponentDecision(STRATEGY_CLOSED_FORM, closed, *_shape(clauses)),)
        )
    parts = [part for part, _ in components(clauses)]
    delta = dispatcher.policy.delta / len(parts)
    decisions = []
    for part in parts:
        if one_width and len(part) == 1:
            p = clause_probability(part[0], engine.registry)
            decisions.append(ComponentDecision(STRATEGY_CLOSED_FORM, p, *_shape(part)))
            continue
        if one_width and is_tree(part):
            tree = WsTree(engine.registry)
            p = tree.probability(part)
            decisions.append(ComponentDecision(tree.label, p, *_shape(part)))
            continue
        if one_width and conditioned(part, engine.max_subproblems):
            tree = WsTree(engine.registry)
            p = tree.probability(part)
            assert tree.label == STRATEGY_EXACT
            decisions.append(ComponentDecision(STRATEGY_EXACT, p, *_shape(part)))
            continue
        try:
            p = _counted(engine, part)
            decisions.append(ComponentDecision(engine.label, p, *_shape(part)))
            continue
        except CostBudgetExceededError:
            pass
        estimate = approximate_confidence(
            part, engine.registry, dispatcher.policy.epsilon, delta, dispatcher.rng
        ).estimate
        decisions.append(ComponentDecision(STRATEGY_MONTE_CARLO, estimate, *_shape(part)))
    probability = combine_independent(d.probability for d in decisions)
    return DispatchResult(probability, tuple(decisions), engine.statistics)


def _forced(
    dispatcher: ConfidenceDispatcher,
    clauses: Sequence[tuple],
    engine: WsTree,
) -> DispatchResult:
    policy = dispatcher.policy
    decision = lambda p: (ComponentDecision(policy.strategy, p, *_shape(clauses)),)
    if policy.strategy == STRATEGY_MONTE_CARLO:
        if not clauses or not all(clauses):
            p = 0.0 if not clauses else 1.0
        else:
            p = approximate_confidence(
                clauses, engine.registry, policy.epsilon, policy.delta, dispatcher.rng
            ).estimate
        return DispatchResult(p, decision(p))
    p = engine.probability(clauses, roots_only=policy.strategy == STRATEGY_SPROUT)
    return DispatchResult(p, decision(p), engine.statistics)


def group_probabilities(
    dispatcher: ConfidenceDispatcher,
    groups: Sequence[Sequence[tuple]],
    registry: VariableRegistry,
) -> List[DispatchResult]:
    """One result per group of clauses under ``dispatcher``'s policy,
    drawing from its RNG, with one exact engine (one memo) for the whole
    call."""
    policy = dispatcher.policy
    budget = policy.exact_budget if policy.strategy == "auto" else None
    engine = WsTree(registry, max_subproblems=budget)
    if policy.strategy == "auto":
        return [_auto(dispatcher, clauses, engine) for clauses in groups]
    return [
        _forced(dispatcher, simplified(clauses, registry), engine) for clauses in groups
    ]


def conf(
    urel: URelation, group_columns: Sequence[str], dispatcher: ConfidenceDispatcher
):
    """``(rows, dispatch results of the declined groups)`` of ``conf()``:
    the array pass as the system runs it, then every declined group's
    clauses, decoded by :func:`row_conditions`, through the dispatch
    above.  Records its EXPLAIN event like the aggregate does."""
    positions, projections, row_groups = aggregates._groups(urel, group_columns)
    probabilities, pending = aggregates._array_pass(urel, row_groups, dispatcher.policy)
    conditions = row_conditions(urel)
    groups = [
        [conditions[i] for i in row_groups[g] if conditions[i] is not None]
        for g in pending
    ]
    results = group_probabilities(dispatcher, groups, urel.registry)
    for g, result in zip(pending, results):
        probabilities[g] = result.probability
    dispatch.record_aggregate("conf", results, vectorized=len(row_groups) - len(pending))
    relation = aggregates._result(urel, positions, "conf", projections, probabilities)
    return relation.rows, results


def approximate(
    dispatcher: ConfidenceDispatcher,
    clauses: Sequence[tuple],
    registry: VariableRegistry,
    epsilon: float,
    delta: float,
    unit_seed: int,
) -> DispatchResult:
    """``aconf()`` of one group: the closed form or SPROUT's safe plan when
    the policy allows them, the ws-tree under a forced ``exact``, else the
    DKLR run on the group's own seeded stream."""
    policy = dispatcher.policy
    clauses = simplified(clauses, registry)
    engine = WsTree(registry)
    decision = lambda strategy, p: (ComponentDecision(strategy, p, *_shape(clauses)),)
    if policy.strategy in ("auto", STRATEGY_SPROUT):
        closed = closed_form(clauses, registry)
        if closed is not None:
            return DispatchResult(closed, decision(STRATEGY_CLOSED_FORM, closed))
        try:
            p = engine.probability(clauses, roots_only=True)
            return DispatchResult(p, decision(STRATEGY_SPROUT, p), engine.statistics)
        except UnsafeLineageError:
            if policy.strategy == STRATEGY_SPROUT:
                raise
    if policy.strategy == STRATEGY_EXACT:
        p = engine.probability(clauses)
        return DispatchResult(p, decision(STRATEGY_EXACT, p), engine.statistics)
    p = approximate_confidence(
        clauses, registry, epsilon, delta, dispatcher.rng, unit_seed=unit_seed
    ).estimate
    return DispatchResult(p, decision(STRATEGY_MONTE_CARLO, p))


def aconf(
    urel: URelation,
    group_columns: Sequence[str],
    dispatcher: ConfidenceDispatcher,
    epsilon: float,
    delta: float,
    base_seed: int,
):
    """``(rows, dispatch results of the declined groups)`` of ``aconf()``,
    like :func:`conf`: the array pass, then each declined group through
    :func:`approximate` with the stream of its ordinal."""
    positions, projections, row_groups = aggregates._groups(urel, group_columns)
    probabilities, pending = aggregates._array_pass(urel, row_groups, dispatcher.policy)
    conditions = row_conditions(urel)
    results = []
    for g in pending:
        clauses = [conditions[i] for i in row_groups[g] if conditions[i] is not None]
        seed = aconf_unit_seed(base_seed, g)
        results.append(
            approximate(dispatcher, clauses, urel.registry, epsilon, delta, seed)
        )
        probabilities[g] = results[-1].probability
    dispatch.record_aggregate(
        "aconf",
        results,
        detail=f"epsilon={epsilon:g}, delta={delta:g}",
        vectorized=len(row_groups) - len(pending),
    )
    relation = aggregates._result(urel, positions, "aconf", projections, probabilities)
    return relation.rows, results
