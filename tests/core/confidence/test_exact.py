"""Tests for the Koch-Olteanu exact confidence algorithm.

The gold standard: on every randomly generated lineage, the exact engine,
the world-enumeration oracle, and inclusion-exclusion must agree to more
than floating-point accuracy.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.naive import (
    confidence_by_enumeration,
    confidence_by_inclusion_exclusion,
)
from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry
from repro.datagen.random_dnf import random_dnf
from repro.errors import CostBudgetExceededError


def exact_probability(clauses, registry):
    """The exact engine on a lineage, or on a clause list made one."""
    if not isinstance(clauses, Lineage):
        clauses = Lineage.from_clauses(clauses, registry)
    return ExactConfidenceEngine(registry).probability(clauses)


@pytest.fixture
def registry():
    r = VariableRegistry()
    for _ in range(6):
        r.fresh([0.5, 0.3, 0.2])
    return r


class TestBaseCases:
    def test_false(self, registry):
        assert exact_probability([], registry) == 0.0

    def test_true(self, registry):
        assert exact_probability([TRUE_CONDITION], registry) == 1.0

    def test_single_atom(self, registry):
        assert exact_probability([Condition.atom(1, 0)], registry) == pytest.approx(0.5)

    def test_single_clause_product(self, registry):
        clause = Condition.of([(1, 0), (2, 1)])
        assert exact_probability([clause], registry) == pytest.approx(0.15)

    def test_independent_clauses(self, registry):
        lineage = [Condition.atom(1, 0), Condition.atom(2, 0)]
        assert exact_probability(lineage, registry) == pytest.approx(1 - 0.5 * 0.5)

    def test_exclusive_alternatives_sum(self, registry):
        lineage = [Condition.atom(1, 0), Condition.atom(1, 1)]
        assert exact_probability(lineage, registry) == pytest.approx(0.8)

    def test_exhaustive_alternatives_give_one(self, registry):
        lineage = [Condition.atom(1, v) for v in (0, 1, 2)]
        assert exact_probability(lineage, registry) == pytest.approx(1.0)

    def test_subsumed_duplicate_lineage(self, registry):
        weak = Condition.atom(1, 0)
        strong = Condition.of([(1, 0), (2, 0)])
        assert exact_probability([weak, strong], registry) == pytest.approx(0.5)


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_dnfs_match_enumeration(self, seed):
        rng = random.Random(seed)
        lineage, registry = random_dnf(
            n_variables=rng.randint(2, 7),
            n_clauses=rng.randint(1, 9),
            clause_width=rng.randint(1, 3),
            rng=rng,
            domain_size=rng.randint(2, 3),
        )
        expected = confidence_by_enumeration(lineage, registry)
        assert exact_probability(lineage, registry) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_dnfs_match_inclusion_exclusion(self, seed):
        rng = random.Random(100 + seed)
        lineage, registry = random_dnf(5, 6, 2, rng)
        expected = confidence_by_inclusion_exclusion(lineage, registry)
        assert exact_probability(lineage, registry) == pytest.approx(expected, abs=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_probability_in_unit_interval(self, seed):
        rng = random.Random(seed)
        lineage, registry = random_dnf(
            rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 3), rng
        )
        p = exact_probability(lineage, registry)
        assert 0.0 <= p <= 1.0 + 1e-12

    def test_monotonicity_adding_clause(self, registry):
        """Adding a clause can only increase the probability."""
        base = [Condition.of([(1, 0), (2, 1)])]
        bigger = base + [Condition.atom(3, 0)]
        assert exact_probability(bigger, registry) >= exact_probability(base, registry)


class TestEngineInternals:
    def test_memoization_hits(self):
        rng = random.Random(9)
        lineage, registry = random_dnf(4, 12, 2, rng)
        engine = ExactConfidenceEngine(registry)
        engine.probability(lineage)
        engine.probability(lineage)  # same lineage again: top-level memo hit
        assert engine.statistics.memo_hits >= 1

    def test_statistics_populated(self):
        rng = random.Random(9)
        lineage, registry = random_dnf(6, 8, 2, rng)
        engine = ExactConfidenceEngine(registry)
        engine.probability(lineage)
        stats = engine.statistics
        assert stats.subproblems > 0
        assert stats.eliminations + stats.decompositions + stats.clause_leaves > 0

    def test_ws_tree_structure(self):
        registry = VariableRegistry()
        x = registry.fresh([0.5, 0.5])
        y = registry.fresh([0.5, 0.5])
        # Two independent clauses: root must be a decompose node.
        lineage = Lineage.from_clauses(
            [Condition.atom(x, 0), Condition.atom(y, 0)], registry
        )
        engine = ExactConfidenceEngine(registry)
        probability, tree = engine.probability_with_tree(lineage)
        assert probability == pytest.approx(0.75)
        assert tree.kind == "decompose"
        assert len(tree.children) == 2
        assert tree.size() >= 3 and tree.depth() == 2

    def test_ws_tree_elimination_node(self):
        registry = VariableRegistry()
        x = registry.fresh([0.5, 0.5])
        y = registry.fresh([0.5, 0.5])
        # Chained clauses sharing x: elimination must occur.
        lineage = Lineage.from_clauses(
            [Condition.of([(x, 0), (y, 0)]), Condition.of([(x, 1), (y, 1)])],
            registry,
        )
        engine = ExactConfidenceEngine(registry)
        probability, tree = engine.probability_with_tree(lineage)
        assert tree.kind == "eliminate"
        assert tree.variable in (x, y)
        assert tree.render()  # renders without error

    def test_variable_choice_prefers_frequent(self):
        registry = VariableRegistry()
        a = registry.fresh([0.5, 0.5])
        b = registry.fresh([0.5, 0.5])
        c = registry.fresh([0.5, 0.5])
        # a occurs in all three clauses; b, c in one each.
        lineage = Lineage.from_clauses(
            [
                Condition.of([(a, 0), (b, 0)]),
                Condition.of([(a, 0), (c, 0)]),
                Condition.of([(a, 1), (b, 1)]),
            ],
            registry,
        )
        engine = ExactConfidenceEngine(registry)
        assert engine._choose_variable(lineage) == a

    def test_large_independent_dnf_is_fast(self):
        """100 disjoint clauses: decomposition keeps this linear, whereas
        enumeration would need 2^100 worlds."""
        registry = VariableRegistry()
        clauses = []
        for _ in range(100):
            var = registry.fresh([0.9, 0.1])
            clauses.append(Condition.atom(var, 1))
        p = exact_probability(clauses, registry)
        assert p == pytest.approx(1 - 0.9 ** 100)


class TestRecursionOnLineage:
    """The engine expands the lineage IR itself: components, cofactors and
    canonical keys over one clause arena."""

    def test_clause_order_does_not_change_the_answer(self):
        rng = random.Random(21)
        lineage, registry = random_dnf(7, 9, 3, rng, domain_size=3)
        shuffled = list(lineage.clauses)
        rng.shuffle(shuffled)
        again = Lineage.from_clauses(shuffled, registry)
        assert exact_probability(again, registry) == pytest.approx(
            exact_probability(lineage, registry), abs=1e-12
        )

    def test_memo_is_keyed_by_the_canonical_form(self):
        # The same clauses in another order, in another arena: one memo
        # entry serves both.
        rng = random.Random(4)
        lineage, registry = random_dnf(6, 8, 2, rng)
        engine = ExactConfidenceEngine(registry)
        first = engine.probability(lineage)
        hits = engine.statistics.memo_hits
        reversed_copy = Lineage.from_clauses(reversed(lineage.clauses), registry)
        assert engine.probability(reversed_copy) == first
        assert engine.statistics.memo_hits == hits + 1

    def test_cofactors_reuse_the_lineage_arena(self):
        rng = random.Random(9)
        lineage, registry = random_dnf(5, 10, 3, rng)
        interned = len(lineage.arena)
        ExactConfidenceEngine(registry).probability(lineage)
        # Restricted clauses were interned next to the originals.
        assert len(lineage.arena) > interned

    def test_zero_probability_clauses_are_simplified_away(self, registry):
        impossible = registry.fresh({0: 1.0, 1: 0.0})
        clauses = [Condition.of([(impossible, 1), (1, 0)]), Condition.atom(2, 1)]
        assert exact_probability(clauses, registry) == pytest.approx(0.3)

    def test_budget_raises_when_exceeded(self):
        rng = random.Random(3)
        lineage, registry = random_dnf(8, 12, 3, rng)
        engine = ExactConfidenceEngine(registry, max_subproblems=2)
        with pytest.raises(CostBudgetExceededError):
            engine.probability(lineage)

    def test_budget_counts_per_top_level_call(self):
        # Two lineages over disjoint variables (no memo sharing): a budget
        # that fits each fits both in turn, because the count restarts.
        rng = random.Random(3)
        registry = VariableRegistry()
        lineages = []
        for _ in range(2):
            variables = [registry.fresh([0.5, 0.5]) for _ in range(8)]
            lineages.append(
                random_dnf(8, 12, 3, rng, registry=registry, variables=variables)[0]
            )
        needed = []
        for lineage in lineages:
            fresh = ExactConfidenceEngine(registry)
            fresh.probability(lineage)
            needed.append(fresh.statistics.subproblems)
        engine = ExactConfidenceEngine(registry, max_subproblems=max(needed))
        for lineage in lineages:
            assert engine.probability(lineage) == pytest.approx(
                confidence_by_enumeration(lineage, registry), abs=1e-12
            )
        assert engine.statistics.subproblems == sum(needed) > max(needed)

    def test_memo_resets_wholesale_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(ExactConfidenceEngine, "MAX_MEMO_ENTRIES", 3)
        rng = random.Random(5)
        lineage, registry = random_dnf(6, 10, 2, rng)
        engine = ExactConfidenceEngine(registry)
        p = engine.probability(lineage)
        assert len(engine._memo) <= 3
        assert p == pytest.approx(confidence_by_enumeration(lineage, registry), abs=1e-12)

    def test_ws_tree_has_true_and_clause_leaves(self):
        registry = VariableRegistry()
        x = registry.fresh([0.5, 0.5])
        y = registry.fresh([0.5, 0.5])
        # x=0 leaves the certain clause (⊤); x=1 leaves the clause y=1.
        lineage = Lineage.from_clauses(
            [Condition.atom(x, 0), Condition.of([(x, 1), (y, 1)])], registry
        )
        probability, tree = ExactConfidenceEngine(registry).probability_with_tree(lineage)
        assert probability == pytest.approx(0.75)
        assert tree.kind == "eliminate" and tree.variable == x
        assert sorted(child.kind for child in tree.children) == ["clause", "true"]
