"""The ``Lineage``-based ``conf()`` dispatch: the oracle the clause path of
:mod:`repro.core.aggregates` and :mod:`repro.core.confidence.dispatch` is
checked against.

Every group the array pass declines becomes a :class:`Lineage` of decoded
:class:`Condition` objects (:func:`group_lineages`); the dispatcher then
simplifies it, tries the whole-lineage closed form, splits it into
``Lineage`` components and makes one exact-engine call per component,
falling back to Monte Carlo on a blown budget.  The system must agree with
it to the bit: the same probabilities, the same per-component decisions
in the same order, the same ws-tree counters and the same EXPLAIN events.

:func:`is_hierarchical` is the laminar-clause-set test the generated
ws-tree tests use as a second opinion on the engine's labels.
"""

import itertools
from typing import Dict, List, Optional, Sequence, Set

from repro.core import aggregates
from repro.core.conditions import TRUE_CONDITION, Condition
from repro.core.confidence import dispatch
from repro.core.confidence.dispatch import (
    STRATEGY_CLOSED_FORM,
    STRATEGY_MONTE_CARLO,
    STRATEGY_SPROUT,
    ComponentDecision,
    ConfidenceDispatcher,
    DispatchResult,
)
from repro.core.confidence.dklr import approximate_confidence
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.lineage import Lineage, combine_independent, group_lineages
from repro.core.urelation import URelation
from repro.errors import CostBudgetExceededError

#: Above this clause width, absorption is a linear scan.
SUBSET_ENUMERATION_WIDTH = 12


def simplified(lineage: Lineage) -> Lineage:
    """⊤ collapses the lineage; zero-probability, duplicate and subsumed
    clauses go.  Clauses are visited shortest first; the lineage itself
    is returned when none goes."""
    probability = lineage.arena.probability
    kept: List[Condition] = []
    kept_keys: Set[tuple] = set()
    for clause in sorted(lineage.clauses, key=len):
        if not clause.atoms:
            return Lineage((TRUE_CONDITION,), lineage.arena)
        if clause.atoms in kept_keys or probability(clause) <= 0.0:
            continue
        width = len(clause.atoms)
        if width <= SUBSET_ENUMERATION_WIDTH:
            absorbed = any(
                subset in kept_keys
                for size in range(1, width)
                for subset in itertools.combinations(clause.atoms, size)
            )
        else:
            absorbed = any(k.subsumes(clause) for k in kept)
        if not absorbed:
            kept.append(clause)
            kept_keys.add(clause.atoms)
    if len(kept) == len(lineage.clauses):
        return lineage
    return Lineage(kept, lineage.arena)


def closed_form(lineage: Lineage) -> Optional[float]:
    """⊥ → 0, ⊤ → 1, one clause → its atom product, pairwise
    variable-disjoint clauses → 1 − ∏(1 − P(clause)); else None."""
    if not lineage.clauses:
        return 0.0
    if lineage.is_true:
        return 1.0
    probability = lineage.arena.probability
    if len(lineage.clauses) == 1:
        return probability(lineage.clauses[0])
    if sum(map(len, lineage.clauses)) == lineage.stats().variable_count:
        return combine_independent(map(probability, lineage.clauses))
    return None


def components(lineage: Lineage) -> List[Lineage]:
    """Union-find over shared variables, each clause's variables merged
    into the set of its first one (``frozenset`` order); the components
    in the order of their roots."""
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    clause_vars = [clause.variables() for clause in lineage.clauses]
    for variables in clause_vars:
        for var in variables:
            parent.setdefault(var, var)
    for variables in clause_vars:
        it = iter(variables)
        first = next(it, None)
        if first is None:
            continue
        head = find(first)
        for other in it:
            root = find(other)
            if root != head:
                parent[root] = head
    grouped: Dict[int, List[Condition]] = {}
    for clause, variables in zip(lineage.clauses, clause_vars):
        grouped.setdefault(find(next(iter(variables))), []).append(clause)
    if len(grouped) == 1:
        return [lineage]
    return [Lineage(clauses, lineage.arena) for _, clauses in sorted(grouped.items())]


def is_hierarchical(lineage: Lineage) -> bool:
    """Are the variables' clause-index sets laminar (nested or disjoint)?
    Then every connected component has a variable occurring in all its
    clauses (a root), recursively, and safe evaluation completes.  The
    converse needs one value per variable: with several, root eliminations
    can succeed on a family that is not laminar."""
    clause_sets: Dict[int, Set[int]] = {}
    for index, clause in enumerate(lineage.clauses):
        for var in clause.variables():
            clause_sets.setdefault(var, set()).add(index)
    sets = list(clause_sets.values())
    return all(
        a <= b or b <= a or not (a & b)
        for i, a in enumerate(sets)
        for b in sets[i + 1 :]
    )


def _shape(lineage: Lineage):
    stats = lineage.stats()
    return stats.clause_count, stats.variable_count


def _auto(
    dispatcher: ConfidenceDispatcher, lineage: Lineage, engine: ExactConfidenceEngine
) -> DispatchResult:
    closed = closed_form(lineage)
    if closed is not None:
        return DispatchResult(
            closed, (ComponentDecision(STRATEGY_CLOSED_FORM, closed, *_shape(lineage)),)
        )
    parts = components(lineage)
    delta = dispatcher.policy.delta / len(parts)
    decisions = []
    for part in parts:
        try:
            p = engine.probability(part)
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
    dispatcher: ConfidenceDispatcher, lineage: Lineage, engine: ExactConfidenceEngine
) -> DispatchResult:
    policy = dispatcher.policy
    decision = lambda p: (ComponentDecision(policy.strategy, p, *_shape(lineage)),)
    if policy.strategy == STRATEGY_MONTE_CARLO:
        if lineage.is_false or lineage.is_true:
            p = 0.0 if lineage.is_false else 1.0
        else:
            p = approximate_confidence(
                lineage, engine.registry, policy.epsilon, policy.delta, dispatcher.rng
            ).estimate
        return DispatchResult(p, decision(p))
    p = engine.probability(lineage, roots_only=policy.strategy == STRATEGY_SPROUT)
    return DispatchResult(p, decision(p), engine.statistics)


def group_probabilities(
    dispatcher: ConfidenceDispatcher, lineages: Sequence[Lineage]
) -> List[DispatchResult]:
    """One result per lineage under ``dispatcher``'s policy, drawing from
    its RNG, with one exact engine (one memo) for the whole call."""
    if not lineages:
        return []
    policy = dispatcher.policy
    budget = policy.exact_budget if policy.strategy == "auto" else None
    engine = ExactConfidenceEngine(lineages[0].arena.registry, max_subproblems=budget)
    step = _auto if policy.strategy == "auto" else _forced
    return [step(dispatcher, simplified(lineage), engine) for lineage in lineages]


def conf(
    urel: URelation, group_columns: Sequence[str], dispatcher: ConfidenceDispatcher
):
    """``(rows, dispatch results of the declined groups)`` of ``conf()``:
    the array pass as the system runs it, then every declined group's
    lineage through the dispatch above.  Records its EXPLAIN event like
    the aggregate does."""
    positions, projections, row_groups = aggregates._groups(urel, group_columns)
    probabilities, pending = aggregates._array_pass(urel, row_groups, dispatcher.policy)
    lineages = group_lineages(urel, [row_groups[g] for g in pending])
    results = group_probabilities(dispatcher, lineages)
    for g, result in zip(pending, results):
        probabilities[g] = result.probability
    dispatch.record_aggregate("conf", results, vectorized=len(row_groups) - len(pending))
    relation = aggregates._result(urel, positions, "conf", projections, probabilities)
    return relation.rows, results
