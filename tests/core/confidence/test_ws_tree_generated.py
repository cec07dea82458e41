"""Generated differential tests for the one ws-tree recursion.

Seeded :mod:`repro.datagen.random_dnf` lineages (domain sizes 2-3, clause
widths 1-4) with the shapes simplification and the recursion must get
right -- zero-probability alternatives, duplicate and absorbed clauses, a
certain (⊤) clause -- and ``conf_hard``-shaped lineages (order ∧ customer
∧ year).  On each:

- the engine equals world enumeration to 1e-12;
- its label is ``sprout`` or ``closed-form`` exactly when a reference
  safe-plan search (components, then a variable in every clause,
  recursively) succeeds; every hierarchical lineage (laminar clause
  sets, :meth:`Lineage.stats`) gets such a label, and when each variable
  occurs with one value only the two notions coincide;
- root-only mode raises exactly where the label is ``exact``;
- at ``exact_budget=1`` a hierarchical component is still ``sprout``,
  never ``monte-carlo``.
"""

import random

import pytest

from repro.core.conditions import TRUE_CONDITION, Condition
from repro.core.confidence.dispatch import (
    STRATEGY_CLOSED_FORM,
    STRATEGY_EXACT,
    STRATEGY_MONTE_CARLO,
    STRATEGY_SPROUT,
    ConfidenceDispatcher,
    DispatchPolicy,
)
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.naive import confidence_by_enumeration
from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry
from repro.datagen.random_dnf import random_dnf
from repro.errors import UnsafeLineageError


def random_lineage(seed):
    """A random DNF over variables that may carry zero-probability
    alternatives, plus duplicate, absorbed and (rarely) certain clauses."""
    rng = random.Random(seed)
    domain_size = rng.randint(2, 3)
    registry = VariableRegistry()
    variables = []
    for _ in range(rng.randint(2, 7)):
        weights = [rng.uniform(0.1, 1.0) for _ in range(domain_size)]
        if rng.random() < 0.3:
            weights[rng.randrange(domain_size)] = 0.0
        variables.append(registry.fresh([w / sum(weights) for w in weights]))
    lineage, _ = random_dnf(
        len(variables),
        rng.randint(1, 8),
        rng.randint(1, 4),
        rng,
        domain_size=domain_size,
        registry=registry,
        variables=variables,
    )
    clauses = list(lineage.clauses)
    for _ in range(rng.randint(0, 2)):
        clauses.append(rng.choice(clauses))  # a duplicate
    for _ in range(rng.randint(0, 2)):  # an absorbed clause
        extended = Condition.of(
            rng.choice(clauses).atoms
            + ((rng.choice(variables), rng.randrange(domain_size)),)
        )
        if extended is not None:
            clauses.append(extended)
    if rng.random() < 0.05:
        clauses.append(TRUE_CONDITION)
    rng.shuffle(clauses)
    return Lineage.from_clauses(clauses, registry), registry


def conf_hard_lineage(seed):
    """One nation's lineage of the ``conf_hard`` join: a clause
    order ∧ customer ∧ (year, status) per matching order."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    customers = [registry.fresh_boolean(0.8) for _ in range(rng.randint(1, 3))]
    years = [registry.fresh_boolean(0.7) for _ in range(rng.randint(1, 3))]
    clauses = [
        Condition.of(
            [
                (registry.fresh_boolean(0.8), 1),
                (rng.choice(customers), 1),
                (rng.choice(years), 1),
            ]
        )
        for _ in range(rng.randint(1, 4))
    ]
    return Lineage.from_clauses(clauses, registry), registry


def has_safe_plan(clauses):
    """Reference search for SPROUT's plan on atom tuples: ⊤, one clause or
    pairwise variable-disjoint clauses are safe; otherwise every connected
    component needs a variable in all of its clauses whose cofactors are
    safe."""
    if not clauses or any(not clause for clause in clauses):
        return True
    variables = [{var for var, _ in clause} for clause in clauses]
    if sum(map(len, variables)) == len(set().union(*variables)):
        return True
    unseen = list(range(len(clauses)))
    while unseen:
        component, frontier = set(), [unseen[0]]
        while frontier:
            index = frontier.pop()
            if index not in component:
                component.add(index)
                frontier.extend(
                    j for j in unseen if variables[j] & variables[index]
                )
        unseen = [i for i in unseen if i not in component]
        members = [clauses[i] for i in sorted(component)]
        if len(members) == 1:
            continue
        roots = set.intersection(*(variables[i] for i in component))
        if not roots:
            return False
        root = min(roots)
        values = {dict(clause)[root] for clause in members}
        for value in values:
            cofactor = [
                tuple(atom for atom in clause if atom[0] != root)
                for clause in members
                if dict(clause)[root] == value
            ]
            if not has_safe_plan(cofactor):
                return False
    return True


def single_valued(lineage):
    values = {}
    for clause in lineage.clauses:
        for var, value in clause.atoms:
            if values.setdefault(var, value) != value:
                return False
    return True


CASES = [("random", seed) for seed in range(120)] + [
    ("conf_hard", seed) for seed in range(40)
]


@pytest.mark.parametrize("shape, seed", CASES)
def test_one_recursion_against_enumeration_and_hierarchy(shape, seed):
    make = random_lineage if shape == "random" else conf_hard_lineage
    lineage, registry = make(seed)
    simplified = lineage.simplified()
    engine = ExactConfidenceEngine(registry)
    p = engine.probability(lineage)
    assert p == pytest.approx(confidence_by_enumeration(lineage, registry), abs=1e-12)

    safe = engine.label != STRATEGY_EXACT
    assert safe == has_safe_plan([clause.atoms for clause in simplified.clauses])
    hierarchical = simplified.stats(test_hierarchy=True).hierarchical
    assert hierarchical is not None
    if hierarchical:
        assert safe
    if single_valued(simplified):
        assert safe == hierarchical

    roots_only = ExactConfidenceEngine(registry)
    if safe:
        assert roots_only.probability(lineage, roots_only=True) == p
    else:
        with pytest.raises(UnsafeLineageError):
            roots_only.probability(lineage, roots_only=True)

    tiny = ConfidenceDispatcher(
        DispatchPolicy(exact_budget=1), random.Random(seed)
    )
    decisions = tiny.probability(lineage).decisions
    for component, decision in zip(_components(simplified), decisions):
        if component.stats(test_hierarchy=True).hierarchical:
            assert decision.strategy in (STRATEGY_CLOSED_FORM, STRATEGY_SPROUT)
        elif single_valued(component):
            assert decision.strategy in (STRATEGY_EXACT, STRATEGY_MONTE_CARLO)


def _components(simplified):
    """The components the dispatcher hands out, one per decision."""
    if simplified.closed_form_probability() is not None:
        return [simplified]
    return simplified.components()


def test_the_generator_covers_both_labels_and_every_shape():
    labels, shapes = set(), set()
    for shape, seed in CASES:
        make = random_lineage if shape == "random" else conf_hard_lineage
        lineage, registry = make(seed)
        engine = ExactConfidenceEngine(registry)
        engine.probability(lineage)
        labels.add((shape, engine.label))
        simplified = lineage.simplified()
        if len(simplified) < len(lineage):
            shapes.add("simplified away")
        if simplified.is_true:
            shapes.add("certain")
        if not single_valued(simplified) and engine.label != STRATEGY_EXACT:
            if not simplified.stats(test_hierarchy=True).hierarchical:
                shapes.add("safe but not laminar")
    for shape in ("random", "conf_hard"):
        assert {(shape, STRATEGY_SPROUT), (shape, STRATEGY_EXACT)} <= labels
    assert {"simplified away", "certain", "safe but not laminar"} <= shapes
