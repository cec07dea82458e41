"""Tests for the cost-based confidence dispatcher.

The backbone is differential: whatever strategy the dispatcher picks, the
result must agree with :func:`confidence_by_enumeration` (for exact
strategies, to float precision; for Monte Carlo, within the (ε,δ)
tolerance at a fixed seed).
"""

import random

import pytest

from reference.naive import confidence_by_enumeration
from repro.core.confidence.dispatch import (
    STRATEGY_CLOSED_FORM,
    STRATEGY_EXACT,
    STRATEGY_MONTE_CARLO,
    STRATEGY_SPROUT,
    ConfidenceDispatcher,
    DispatchPolicy,
    trace_confidence,
)
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.lineage import canonical_clause
from repro.core.variables import VariableRegistry
from repro.datagen.random_dnf import random_dnf
from repro.errors import ConfidenceError, UnsafeLineageError


def clause(*atoms):
    condition = canonical_clause(atoms)
    assert condition is not None
    return condition


def one(dispatcher, clauses, registry):
    """The ``conf()`` dispatch of a single group."""
    return dispatcher.group_probabilities([clauses], registry)[0]


def two_level_hierarchical(registry, fanout=3):
    """{r ∧ s₁, ..., r ∧ s_k}: hierarchical but not closed-form."""
    r = registry.fresh_boolean(0.6)
    children = [registry.fresh_boolean(0.3) for _ in range(fanout)]
    return [clause((r, 1), (s, 1)) for s in children]


def non_hierarchical_chain(registry, length=4):
    """{x₁∧x₂, x₂∧x₃, ...}: crossing clause sets, no root variable."""
    variables = [registry.fresh_boolean(0.5) for _ in range(length + 1)]
    return [clause((variables[i], 1), (variables[i + 1], 1)) for i in range(length)]


class TestStrategySelection:
    def test_independent_clauses_use_closed_form(self):
        registry = VariableRegistry()
        variables = [registry.fresh_boolean(0.4) for _ in range(4)]
        lin = [((v, 1),) for v in variables]
        result = one(ConfidenceDispatcher(), lin, registry)
        assert {d.strategy for d in result.decisions} == {STRATEGY_CLOSED_FORM}
        assert result.probability == pytest.approx(1.0 - 0.6 ** 4)

    def test_hierarchical_lineage_uses_sprout(self):
        registry = VariableRegistry()
        lin = two_level_hierarchical(registry)
        result = one(ConfidenceDispatcher(), lin, registry)
        assert {d.strategy for d in result.decisions} == {STRATEGY_SPROUT}
        assert result.probability == pytest.approx(
            confidence_by_enumeration(lin, registry)
        )

    def test_non_hierarchical_falls_to_exact(self):
        registry = VariableRegistry()
        lin = non_hierarchical_chain(registry)
        result = one(ConfidenceDispatcher(), lin, registry)
        assert {d.strategy for d in result.decisions} == {STRATEGY_EXACT}
        assert result.probability == pytest.approx(
            confidence_by_enumeration(lin, registry)
        )

    def test_tiny_budget_falls_to_monte_carlo(self):
        registry = VariableRegistry()
        lin = non_hierarchical_chain(registry, length=6)
        policy = DispatchPolicy(exact_budget=1, epsilon=0.05, delta=0.01)
        dispatcher = ConfidenceDispatcher(policy, random.Random(3))
        result = one(dispatcher, lin, registry)
        assert {d.strategy for d in result.decisions} == {STRATEGY_MONTE_CARLO}
        truth = confidence_by_enumeration(lin, registry)
        assert result.probability == pytest.approx(truth, rel=0.05)

    def test_mixed_components_get_individual_strategies(self):
        registry = VariableRegistry()
        hierarchical = two_level_hierarchical(registry)
        dense = non_hierarchical_chain(registry)
        lone = registry.fresh_boolean(0.5)
        lin = hierarchical + dense + [((lone, 1),)]
        result = one(ConfidenceDispatcher(), lin, registry)
        strategies = sorted(d.strategy for d in result.decisions)
        assert strategies == [STRATEGY_CLOSED_FORM, STRATEGY_EXACT, STRATEGY_SPROUT]
        assert result.probability == pytest.approx(
            confidence_by_enumeration(lin, registry)
        )

    def test_dense_random_dnfs_stay_exact_until_the_budget_is_tiny(self):
        # Width-3 clauses over a shared pool of 10 variables: clause sets
        # cross, no safe plan.  Under the default budget auto must reach
        # the exact engine (never Monte Carlo) and match forced exact;
        # with a budget of one sub-problem the same lineages degrade to
        # Monte Carlo and stay near the exact answers.
        registry = VariableRegistry()
        rng = random.Random(7)
        lineages = []
        for _ in range(6):
            variables = [
                registry.fresh_boolean(rng.uniform(0.2, 0.8)) for _ in range(10)
            ]
            lineage, _ = random_dnf(
                10, 12, 3, rng, domain_size=2, registry=registry, variables=variables
            )
            lineages.append(lineage)
        forced = ConfidenceDispatcher(DispatchPolicy(strategy="exact"))
        exact = [one(forced, lineage, registry).probability for lineage in lineages]
        groups = lineages
        auto = ConfidenceDispatcher().group_probabilities(groups, registry)
        strategies = {d.strategy for result in auto for d in result.decisions}
        assert STRATEGY_EXACT in strategies and STRATEGY_MONTE_CARLO not in strategies
        assert [r.probability for r in auto] == pytest.approx(exact, abs=1e-9)
        tiny = ConfidenceDispatcher(
            DispatchPolicy(exact_budget=1, epsilon=0.1, delta=0.05),
            random.Random(11),
        ).group_probabilities(groups, registry)
        assert {d.strategy for r in tiny for d in r.decisions} == {STRATEGY_MONTE_CARLO}
        for result, truth in zip(tiny, exact):
            assert result.probability == pytest.approx(truth, rel=0.3)

    def test_empty_lineage(self):
        registry = VariableRegistry()
        result = one(ConfidenceDispatcher(), [], registry)
        assert result.probability == 0.0
        assert result.decisions[0].strategy == STRATEGY_CLOSED_FORM


class TestForcedStrategies:
    def test_forced_exact(self):
        registry = VariableRegistry()
        lin = two_level_hierarchical(registry)
        dispatcher = ConfidenceDispatcher(
            DispatchPolicy(strategy="exact")
        )
        result = one(dispatcher, lin, registry)
        assert [d.strategy for d in result.decisions] == [STRATEGY_EXACT]
        assert result.probability == pytest.approx(
            confidence_by_enumeration(lin, registry)
        )

    def test_forced_sprout_raises_on_unsafe_lineage(self):
        registry = VariableRegistry()
        lin = non_hierarchical_chain(registry)
        dispatcher = ConfidenceDispatcher(
            DispatchPolicy(strategy="sprout")
        )
        with pytest.raises(UnsafeLineageError):
            one(dispatcher, lin, registry)

    def test_forced_monte_carlo(self):
        registry = VariableRegistry()
        lin = two_level_hierarchical(registry)
        dispatcher = ConfidenceDispatcher(
            DispatchPolicy(strategy="monte-carlo", epsilon=0.05, delta=0.01),
            random.Random(5),
        )
        result = one(dispatcher, lin, registry)
        assert [d.strategy for d in result.decisions] == [STRATEGY_MONTE_CARLO]
        truth = confidence_by_enumeration(lin, registry)
        assert result.probability == pytest.approx(truth, rel=0.05)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfidenceError):
            DispatchPolicy(strategy="quantum")


class TestDifferentialRandomized:
    """Dispatcher-chosen strategies must agree with enumeration."""

    def test_random_lineages_match_enumeration(self):
        rng = random.Random(1234)
        registry_count = 0
        strategies_seen = set()
        for trial in range(40):
            n_vars = rng.randrange(2, 9)
            n_clauses = rng.randrange(1, 7)
            width = rng.randrange(1, min(4, n_vars) + 1)
            lin, registry = random_dnf(
                n_vars, n_clauses, width, rng, domain_size=rng.choice([2, 3])
            )
            registry_count += 1
            dispatcher = ConfidenceDispatcher()
            result = one(dispatcher, lin, registry)
            truth = confidence_by_enumeration(lin, registry)
            strategies_seen.update(d.strategy for d in result.decisions)
            assert result.probability == pytest.approx(truth, abs=1e-9), (
                trial,
                repr(lin),
            )
        # The sweep must actually exercise more than one strategy.
        assert STRATEGY_CLOSED_FORM in strategies_seen
        assert strategies_seen - {STRATEGY_CLOSED_FORM}

    def test_safe_evaluator_matches_enumeration_on_hierarchical(self):
        rng = random.Random(99)
        for fanout in (1, 2, 4, 7):
            registry = VariableRegistry()
            lin = two_level_hierarchical(registry, fanout)
            safe = ExactConfidenceEngine(registry).probability(lin, roots_only=True)
            assert safe == pytest.approx(
                confidence_by_enumeration(lin, registry)
            )

    def test_multi_valued_hierarchical(self):
        # Repair-key style variables (domain > 2) under a shared root.
        registry = VariableRegistry()
        root = registry.fresh({0: 0.2, 1: 0.5, 2: 0.3})
        child_a = registry.fresh_boolean(0.4)
        child_b = registry.fresh_boolean(0.7)
        lin = [
            clause((root, 1), (child_a, 1)),
            clause((root, 1), (child_b, 1)),
            clause((root, 2), (child_a, 1)),
        ]
        result = one(ConfidenceDispatcher(), lin, registry)
        assert result.probability == pytest.approx(
            confidence_by_enumeration(lin, registry)
        )


class TestApproximate:
    def test_closed_form_shortcut(self):
        registry = VariableRegistry()
        x = registry.fresh_boolean(0.3)
        lin = [((x, 1),)]
        result = ConfidenceDispatcher().approximate(lin, registry, 0.1, 0.05)
        assert result.decisions[0].strategy == STRATEGY_CLOSED_FORM
        assert result.probability == pytest.approx(0.3)

    def test_hierarchical_shortcut(self):
        registry = VariableRegistry()
        lin = two_level_hierarchical(registry)
        result = ConfidenceDispatcher().approximate(lin, registry, 0.1, 0.05)
        assert result.decisions[0].strategy == STRATEGY_SPROUT
        assert result.probability == pytest.approx(
            confidence_by_enumeration(lin, registry)
        )

    def test_aconf_within_epsilon_of_conf_at_high_confidence(self):
        """The satellite check: on non-trivial lineages the (ε, δ=0.02)
        estimate lands within ε·p of the exact confidence (fixed seed, 10
        instances: the chance of any excursion under the guarantee is
        far below the suite's flakiness budget, and the seed pins it)."""
        rng = random.Random(2024)
        epsilon = 0.1
        for trial in range(10):
            lin, registry = random_dnf(6, 5, 3, rng, domain_size=2)
            truth = confidence_by_enumeration(lin, registry)
            dispatcher = ConfidenceDispatcher(
                DispatchPolicy(strategy="monte-carlo"),
                random.Random(100 + trial),
            )
            result = dispatcher.approximate(lin, registry, epsilon, 0.02)
            assert abs(result.probability - truth) <= epsilon * truth, (
                trial,
                result.probability,
                truth,
            )


class TestDeterminism:
    def test_same_seed_same_estimates(self):
        rng = random.Random(7)
        lin, registry = random_dnf(8, 6, 3, rng)
        policy = DispatchPolicy(strategy="monte-carlo")
        a = ConfidenceDispatcher(policy, random.Random(42))
        b = ConfidenceDispatcher(policy, random.Random(42))
        assert one(a, lin, registry).probability == one(b, lin, registry).probability

    def test_different_seeds_differ(self):
        rng = random.Random(7)
        lin, registry = random_dnf(10, 8, 3, rng)
        policy = DispatchPolicy(strategy="monte-carlo")
        a = ConfidenceDispatcher(policy, random.Random(1))
        b = ConfidenceDispatcher(policy, random.Random(2))
        assert one(a, lin, registry).probability != one(b, lin, registry).probability


class TestTracing:
    def test_trace_collects_events(self):
        from repro.core.confidence import dispatch as dispatch_module

        registry = VariableRegistry()
        lin = two_level_hierarchical(registry)
        dispatcher = ConfidenceDispatcher()
        with trace_confidence() as events:
            result = one(dispatcher, lin, registry)
            dispatch_module.record_aggregate("conf", [result])
        assert len(events) == 1
        assert events[0].aggregate == "conf"
        assert dict(events[0].strategy_counts) == {STRATEGY_SPROUT: 1}
        assert "sprout" in events[0].render()

    def test_no_trace_no_events(self):
        from repro.core.confidence import dispatch as dispatch_module

        assert not dispatch_module.tracing_active()
