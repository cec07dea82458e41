"""Tests for SPROUT-style safe evaluation on one lineage
(:func:`safe_lineage_confidence`): against world enumeration and the exact
engine on hierarchical lineages, and refusal on the rest."""

import random

import pytest

from repro.core.conditions import Condition
from repro.core.confidence import sprout
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.naive import confidence_by_enumeration
from repro.core.confidence.sprout import safe_lineage_confidence
from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry
from repro.errors import ConfidenceError, UnsafeLineageError, UnsafeQueryError


def clause(*atoms):
    condition = Condition.of(list(atoms))
    assert condition is not None
    return condition


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
        lineage = Lineage.from_clauses([clause(*atoms) for atoms in clauses], registry)
        if registry.world_count(lineage.variables()) <= max_worlds:
            return lineage, registry


@pytest.mark.parametrize("seed", range(10))
def test_random_hierarchical_lineages_match_enumeration_and_exact(seed):
    lineage, registry = random_hierarchical(seed)
    assert lineage.stats().hierarchical is not False
    p = safe_lineage_confidence(lineage)
    assert p == pytest.approx(confidence_by_enumeration(lineage, registry), abs=1e-12)
    assert p == pytest.approx(
        ExactConfidenceEngine(registry).probability(lineage), abs=1e-12
    )


@pytest.mark.parametrize("seed", range(5))
def test_two_level_closed_form_equals_the_recursion(seed, monkeypatch):
    rng = random.Random(100 + seed)
    registry = VariableRegistry()
    root = fresh(registry, rng)
    clauses = [
        clause((root, value), (registry.fresh_boolean(rng.uniform(0.1, 0.9)), 1))
        for value in registry.domain(root)
        for _ in range(rng.randint(1, 4))
    ]
    clauses.append(clause((root, registry.domain(root)[0])))
    lineage = Lineage.from_clauses(clauses, registry)
    fast = safe_lineage_confidence(lineage)
    monkeypatch.setattr(sprout, "_two_level_closed_form", lambda *args: None)
    assert fast == pytest.approx(safe_lineage_confidence(lineage), abs=1e-15)


def test_connected_flag_skips_only_the_partition():
    lineage, _ = random_hierarchical(3)
    component = lineage.components()[0]
    connected = safe_lineage_confidence(component, connected=True)
    assert connected == safe_lineage_confidence(component)


def test_duplicate_and_subsumed_clauses_are_simplified_first():
    registry = VariableRegistry()
    r = registry.fresh_boolean(0.6)
    s = registry.fresh_boolean(0.5)
    lineage = Lineage.from_clauses(
        [clause((r, 1), (s, 1)), clause((r, 1), (s, 1)), clause((r, 1))], registry
    )
    assert safe_lineage_confidence(lineage) == pytest.approx(0.6)


def test_component_without_a_root_variable_is_refused():
    # x1∧y1, x1∧y2, x2∧y2: a connected component no variable spans.
    registry = VariableRegistry()
    x1, y1, y2, x2 = (registry.fresh_boolean(0.5) for _ in range(4))
    lineage = Lineage.from_clauses(
        [clause((x1, 1), (y1, 1)), clause((x1, 1), (y2, 1)), clause((x2, 1), (y2, 1))],
        registry,
    )
    with pytest.raises(UnsafeLineageError):
        safe_lineage_confidence(lineage)


def test_refusal_below_the_root_is_detected_too():
    # The root r spans everything, but its cofactor is the crossing shape.
    registry = VariableRegistry()
    r = registry.fresh_boolean(0.7)
    x1, y1, y2, x2 = (registry.fresh_boolean(0.5) for _ in range(4))
    lineage = Lineage.from_clauses(
        [
            clause((r, 1), (x1, 1), (y1, 1)),
            clause((r, 1), (x1, 1), (y2, 1)),
            clause((r, 1), (x2, 1), (y2, 1)),
        ],
        registry,
    )
    with pytest.raises(UnsafeLineageError):
        safe_lineage_confidence(lineage)


def test_refusal_keeps_its_error_names():
    # Wire frames carry the class name; code that caught the query-level
    # UnsafeQueryError still catches the lineage-level refusal.
    assert issubclass(UnsafeLineageError, UnsafeQueryError)
    assert issubclass(UnsafeQueryError, ConfidenceError)
