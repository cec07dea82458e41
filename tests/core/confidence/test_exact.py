"""Tests for the Koch-Olteanu exact confidence algorithm.

The gold standard: on every randomly generated lineage, the exact engine,
the world-enumeration oracle, and inclusion-exclusion must agree to more
than floating-point accuracy.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference.naive import (
    confidence_by_enumeration,
    confidence_by_inclusion_exclusion,
)
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.lineage import canonical_clause, simplify_clauses
from repro.core.variables import VariableRegistry
from repro.datagen.random_dnf import random_dnf
from repro.errors import CostBudgetExceededError, UnsafeLineageError


def simplified(clauses, registry):
    """The clauses as the dispatcher hands them to the engine."""
    engine = ExactConfidenceEngine(registry)
    engine.load(clauses)
    return simplify_clauses(clauses, engine.clause_probability)


def exact_probability(clauses, registry):
    """The exact engine on simplified clauses."""
    return ExactConfidenceEngine(registry).probability(simplified(clauses, registry))


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
        assert exact_probability([()], registry) == 1.0

    def test_single_atom(self, registry):
        assert exact_probability([((1, 0),)], registry) == pytest.approx(0.5)

    def test_single_clause_product(self, registry):
        clause = canonical_clause([(1, 0), (2, 1)])
        assert exact_probability([clause], registry) == pytest.approx(0.15)

    def test_independent_clauses(self, registry):
        lineage = [((1, 0),), ((2, 0),)]
        assert exact_probability(lineage, registry) == pytest.approx(1 - 0.5 * 0.5)

    def test_exclusive_alternatives_sum(self, registry):
        lineage = [((1, 0),), ((1, 1),)]
        assert exact_probability(lineage, registry) == pytest.approx(0.8)

    def test_exhaustive_alternatives_give_one(self, registry):
        lineage = [((1, v),) for v in (0, 1, 2)]
        assert exact_probability(lineage, registry) == pytest.approx(1.0)

    def test_subsumed_duplicate_lineage(self, registry):
        weak = ((1, 0),)
        strong = canonical_clause([(1, 0), (2, 0)])
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
        base = [canonical_clause([(1, 0), (2, 1)])]
        bigger = base + [((3, 0),)]
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

    def test_independent_clauses_close_at_the_top(self):
        registry = VariableRegistry()
        x = registry.fresh([0.5, 0.5])
        y = registry.fresh([0.5, 0.5])
        lineage = simplified(
            [((x, 0),), ((y, 0),)], registry
        )
        engine = ExactConfidenceEngine(registry)
        assert engine.probability(lineage) == pytest.approx(0.75)
        assert engine.label == "closed-form"
        assert engine.statistics.subproblems == 1
        assert engine.statistics.decompositions == engine.statistics.eliminations == 0

    def test_independent_clauses_close_below_the_top_too(self):
        # r ∧ a, r ∧ b, r ∧ c: eliminating the root r leaves {a, b, c},
        # pairwise disjoint -- one closed-form node, not three leaves.
        registry = VariableRegistry()
        r = registry.fresh_boolean(0.5)
        rest = [registry.fresh_boolean(0.5) for _ in range(3)]
        lineage = simplified(
            [canonical_clause([(r, 1), (v, 1)]) for v in rest], registry
        )
        engine = ExactConfidenceEngine(registry)
        assert engine.probability(lineage) == pytest.approx(0.5 * (1 - 0.5 ** 3))
        assert engine.statistics.subproblems == 2
        assert engine.statistics.clause_leaves == 0

    def test_elimination_on_a_shared_variable(self):
        registry = VariableRegistry()
        x = registry.fresh([0.5, 0.5])
        y = registry.fresh([0.5, 0.5])
        # Chained clauses sharing x and y: elimination must occur.
        lineage = simplified(
            [canonical_clause([(x, 0), (y, 0)]), canonical_clause([(x, 1), (y, 1)])],
            registry,
        )
        engine = ExactConfidenceEngine(registry)
        assert engine.probability(lineage) == pytest.approx(0.5)
        assert engine.statistics.eliminations == 1
        assert engine.label == "sprout"  # x and y are both roots

    def test_variable_choice_prefers_frequent(self):
        registry = VariableRegistry()
        a = registry.fresh([0.5, 0.5])
        b = registry.fresh([0.5, 0.5])
        c = registry.fresh([0.5, 0.5])
        # a occurs in all three clauses; b, c in one or two each.  Only
        # eliminating a first finishes in one elimination: a=0 leaves the
        # independent {b=0, c=0}, a=1 the single clause b=1.
        lineage = simplified(
            [
                canonical_clause([(a, 0), (b, 0)]),
                canonical_clause([(a, 0), (c, 0)]),
                canonical_clause([(a, 1), (b, 1)]),
            ],
            registry,
        )
        engine = ExactConfidenceEngine(registry)
        engine.probability(lineage)
        assert engine.statistics.eliminations == 1
        assert engine.statistics.clause_leaves == 1
        assert engine.label == "sprout"

    def test_non_root_elimination_is_labelled_exact(self):
        registry = VariableRegistry()
        v = [registry.fresh_boolean(0.5) for _ in range(4)]
        lineage = simplified(
            [canonical_clause([(v[i], 1), (v[i + 1], 1)]) for i in range(3)], registry
        )
        engine = ExactConfidenceEngine(registry)
        engine.probability(lineage)
        assert engine.label == "exact"
        with pytest.raises(UnsafeLineageError):
            ExactConfidenceEngine(registry).probability(lineage, roots_only=True)

    def test_large_independent_dnf_is_fast(self):
        """100 disjoint clauses: decomposition keeps this linear, whereas
        enumeration would need 2^100 worlds."""
        registry = VariableRegistry()
        clauses = []
        for _ in range(100):
            var = registry.fresh([0.9, 0.1])
            clauses.append(((var, 1),))
        p = exact_probability(clauses, registry)
        assert p == pytest.approx(1 - 0.9 ** 100)


class TestRecursionOnClauseTuples:
    """The engine expands sorted tuples of canonical clauses, with a memo
    that lives as long as the engine."""

    def test_clause_order_does_not_change_the_answer(self):
        rng = random.Random(21)
        lineage, registry = random_dnf(7, 9, 3, rng, domain_size=3)
        shuffled = list(lineage)
        rng.shuffle(shuffled)
        again = simplified(shuffled, registry)
        assert exact_probability(again, registry) == pytest.approx(
            exact_probability(lineage, registry), abs=1e-12
        )

    def test_memo_is_keyed_by_the_sorted_clause_tuples(self):
        # The same clauses in another order: one memo entry serves both.
        rng = random.Random(4)
        raw, registry = random_dnf(6, 8, 2, rng)
        lineage = simplified(raw, registry)
        engine = ExactConfidenceEngine(registry)
        first = engine.probability(lineage)
        hits = engine.statistics.memo_hits
        reversed_copy = list(reversed(lineage))
        assert engine.probability(reversed_copy) == first
        assert engine.statistics.memo_hits == hits + 1

    def test_memo_lives_with_its_engine(self):
        rng = random.Random(4)
        lineage, registry = random_dnf(6, 8, 2, rng)
        first = ExactConfidenceEngine(registry)
        first.probability(lineage)
        assert first._memo
        second = ExactConfidenceEngine(registry)
        second.probability(lineage)
        assert second.statistics.memo_hits == first.statistics.memo_hits

    def test_cofactors_leave_the_input_clauses_alone(self):
        rng = random.Random(9)
        lineage, registry = random_dnf(5, 10, 3, rng)
        before = list(lineage)
        ExactConfidenceEngine(registry).probability(lineage)
        assert lineage == before

    def test_zero_probability_clauses_are_simplified_away(self, registry):
        impossible = registry.fresh({0: 1.0, 1: 0.0})
        clauses = [canonical_clause([(impossible, 1), (1, 0)]), ((2, 1),)]
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

    def test_budget_counts_only_below_a_non_root_elimination(self):
        # r ∧ x_i ∧ y_i: hierarchical, many subproblems, none below a
        # non-root elimination -- a budget of one never trips.
        registry = VariableRegistry()
        r = registry.fresh([0.3, 0.3, 0.4])
        clauses = []
        for value in range(3):
            for _ in range(3):
                x, y = registry.fresh_boolean(0.5), registry.fresh_boolean(0.4)
                clauses.append(canonical_clause([(r, value), (x, 1), (y, 1)]))
                clauses.append(canonical_clause([(r, value), (x, 0)]))
        lineage = simplified(clauses, registry)
        engine = ExactConfidenceEngine(registry, max_subproblems=1)
        assert engine.probability(lineage) == pytest.approx(
            ExactConfidenceEngine(registry).probability(lineage), abs=1e-15
        )
        assert engine.label == "sprout" and engine.statistics.subproblems > 1

    def test_true_and_clause_leaves(self):
        registry = VariableRegistry()
        x = registry.fresh([0.5, 0.5])
        y = registry.fresh([0.5, 0.5])
        # x=0 leaves the certain clause (⊤); x=1 leaves the clause y=1.
        lineage = simplified(
            [((x, 0),), canonical_clause([(x, 1), (y, 1)])], registry
        )
        engine = ExactConfidenceEngine(registry)
        assert engine.probability(lineage) == pytest.approx(0.75)
        stats = engine.statistics
        assert (stats.subproblems, stats.eliminations, stats.clause_leaves) == (3, 1, 1)
