"""Tests for SPROUT-style safe evaluation on one lineage (the ws-tree
recursion in its root-only mode): against world enumeration and the exact
engine on hierarchical lineages, and refusal on the rest."""

import random

import pytest

from reference.confidence import is_hierarchical
from reference.naive import confidence_by_enumeration
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.lineage import canonical_clause, simplify_clauses
from repro.core.variables import VariableRegistry
from repro.errors import ConfidenceError, UnsafeLineageError, UnsafeQueryError


def clause(*atoms):
    condition = canonical_clause(atoms)
    assert condition is not None
    return condition


def safe_confidence(clauses, registry):
    """SPROUT's safe plan on one lineage: the clauses simplified as the
    dispatcher simplifies them, then the root-only recursion."""
    engine = ExactConfidenceEngine(registry)
    engine.load(clauses)
    kept = simplify_clauses(clauses, engine.clause_probability)
    return engine.probability(kept, roots_only=True)


def fresh(registry, rng):
    """A variable of domain 2 or 3 with a random distribution."""
    weights = [rng.uniform(0.1, 1.0) for _ in range(rng.choice([2, 3]))]
    return registry.fresh([w / sum(weights) for w in weights])


def hierarchical_clauses(registry, rng, depth):
    """Clauses whose variables' clause sets are laminar: a root variable,
    and under each of some of its values an independent set of subtrees
    (or nothing -- the root atom alone)."""
    root = fresh(registry, rng)
    clauses = []
    for value in rng.sample(registry.domain(root), rng.randint(1, 2)):
        if depth == 0 or rng.random() < 0.25:
            clauses.append(((root, value),))
            continue
        for _ in range(rng.randint(1, 2)):
            for below in hierarchical_clauses(registry, rng, depth - 1):
                clauses.append(((root, value),) + below)
    return clauses


def random_hierarchical(seed, depth=2, max_worlds=4096):
    """A random hierarchical lineage small enough to enumerate."""
    rng = random.Random(seed)
    while True:
        registry = VariableRegistry()
        clauses = []
        for _ in range(rng.randint(1, 2)):  # one or two independent components
            clauses.extend(hierarchical_clauses(registry, rng, depth))
        lineage = [clause(*atoms) for atoms in clauses]
        variables = {var for atoms in lineage for var, _ in atoms}
        if registry.world_count(variables) <= max_worlds:
            return lineage, registry


@pytest.mark.parametrize("seed", range(10))
def test_random_hierarchical_lineages_match_enumeration_and_exact(seed):
    lineage, registry = random_hierarchical(seed)
    assert is_hierarchical(lineage)
    p = safe_confidence(lineage, registry)
    assert p == pytest.approx(confidence_by_enumeration(lineage, registry), abs=1e-12)
    assert p == pytest.approx(
        ExactConfidenceEngine(registry).probability(lineage), abs=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_two_level_shape_is_one_root_elimination(seed):
    # R(x), S(x, y) per group: a root plus pairwise-disjoint single atoms
    # below each of its values.  Every cofactor closes as 1 − ∏(1 − p), so
    # the recursion needs exactly one elimination.
    rng = random.Random(100 + seed)
    registry = VariableRegistry()
    root = fresh(registry, rng)
    clauses = [
        clause((root, value), (registry.fresh_boolean(rng.uniform(0.1, 0.9)), 1))
        for value in registry.domain(root)
        for _ in range(rng.randint(1, 4))
    ]
    clauses.append(clause((root, registry.domain(root)[0])))
    lineage = clauses
    engine = ExactConfidenceEngine(registry)
    p = engine.probability(lineage, roots_only=True)
    assert p == pytest.approx(confidence_by_enumeration(lineage, registry), abs=1e-12)
    assert engine.statistics.eliminations == 1 and engine.label == "sprout"


def test_duplicate_and_subsumed_clauses_are_simplified_first():
    registry = VariableRegistry()
    r = registry.fresh_boolean(0.6)
    s = registry.fresh_boolean(0.5)
    lineage = [clause((r, 1), (s, 1)), clause((r, 1), (s, 1)), clause((r, 1))]
    assert safe_confidence(lineage, registry) == pytest.approx(0.6)


def test_component_without_a_root_variable_is_refused():
    # x1∧y1, x1∧y2, x2∧y2: a connected component no variable spans.
    registry = VariableRegistry()
    x1, y1, y2, x2 = (registry.fresh_boolean(0.5) for _ in range(4))
    lineage = [
        clause((x1, 1), (y1, 1)), clause((x1, 1), (y2, 1)), clause((x2, 1), (y2, 1))
    ]
    with pytest.raises(UnsafeLineageError):
        safe_confidence(lineage, registry)


def test_refusal_below_the_root_is_detected_too():
    # The root r spans everything, but its cofactor is the crossing shape.
    registry = VariableRegistry()
    r = registry.fresh_boolean(0.7)
    x1, y1, y2, x2 = (registry.fresh_boolean(0.5) for _ in range(4))
    lineage = [
        clause((r, 1), (x1, 1), (y1, 1)),
        clause((r, 1), (x1, 1), (y2, 1)),
        clause((r, 1), (x2, 1), (y2, 1)),
    ]
    with pytest.raises(UnsafeLineageError):
        safe_confidence(lineage, registry)


def test_refusal_keeps_its_error_names():
    # Wire frames carry the class name; code that caught the query-level
    # UnsafeQueryError still catches the lineage-level refusal.
    assert issubclass(UnsafeLineageError, UnsafeQueryError)
    assert issubclass(UnsafeQueryError, ConfidenceError)
