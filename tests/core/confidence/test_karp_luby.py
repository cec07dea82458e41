"""Tests for the Karp-Luby estimator: unbiasedness and accuracy."""

import random

import pytest

from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.karp_luby import KarpLubyEstimator
from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry
from repro.datagen.random_dnf import random_dnf
from repro.errors import ConfidenceError


def lineage(registry, *clauses):
    return Lineage.from_clauses(clauses, registry)


def exact_probability(lin, registry):
    return ExactConfidenceEngine(registry).probability(lin)


def karp_luby_estimate(lin, registry, samples, rng=None):
    """Fixed-budget Karp-Luby estimate of P(lin)."""
    estimator = KarpLubyEstimator(lin, registry, rng)
    if estimator.is_trivial:
        return estimator.trivial_probability
    return estimator.estimate(samples)


@pytest.fixture
def registry():
    r = VariableRegistry()
    for _ in range(5):
        r.fresh([0.4, 0.6])
    return r


class TestTrivialCases:
    def test_false_dnf(self, registry):
        estimator = KarpLubyEstimator(lineage(registry), registry)
        assert estimator.is_trivial
        assert estimator.trivial_probability == 0.0

    def test_true_dnf(self, registry):
        estimator = KarpLubyEstimator(lineage(registry, TRUE_CONDITION), registry)
        assert estimator.is_trivial
        assert estimator.trivial_probability == 1.0

    def test_zero_probability_clauses_normalize_to_false(self, registry):
        zero = registry.fresh([0.0, 1.0])
        estimator = KarpLubyEstimator(
            lineage(registry, Condition.atom(zero, 0)), registry
        )
        assert estimator.is_trivial

    def test_sampling_trivial_raises(self, registry):
        estimator = KarpLubyEstimator(lineage(registry), registry)
        with pytest.raises(ConfidenceError):
            estimator.sample()

    def test_estimate_of_a_trivial_lineage_draws_nothing(self, registry):
        estimator = KarpLubyEstimator(lineage(registry), registry)
        assert estimator.estimate(10) == 0.0
        assert estimator.samples_drawn == 0


class TestEstimation:
    def test_single_clause_exact_in_expectation(self, registry):
        """With one clause, Z == 1 always, so the estimate equals p1."""
        clause = Condition.of([(1, 0), (2, 1)])
        estimator = KarpLubyEstimator(
            lineage(registry, clause), registry, random.Random(1)
        )
        estimate = estimator.estimate(100)
        assert estimate == pytest.approx(clause.probability(registry))

    def test_samples_are_binary(self, registry):
        lin = lineage(registry, Condition.atom(1, 0), Condition.atom(2, 0))
        estimator = KarpLubyEstimator(lin, registry, random.Random(2))
        draws = {estimator.sample() for _ in range(50)}
        assert draws <= {0, 1}

    def test_estimate_close_to_exact(self, registry):
        lin = lineage(
            registry,
            Condition.of([(1, 0), (2, 0)]),
            Condition.of([(2, 0), (3, 1)]),
            Condition.atom(4, 1),
        )
        exact = exact_probability(lin, registry)
        estimate = karp_luby_estimate(lin, registry, 40_000, random.Random(3))
        assert estimate == pytest.approx(exact, rel=0.03)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_dnfs_concentrate(self, seed):
        rng = random.Random(seed)
        lin, registry = random_dnf(5, 6, 2, rng)
        exact = exact_probability(lin, registry)
        estimate = karp_luby_estimate(lin, registry, 30_000, random.Random(seed + 50))
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_unbiasedness_mean_of_batches(self, registry):
        """Average of many small estimates converges to the exact value --
        the estimator is unbiased, not merely consistent."""
        lin = lineage(registry, Condition.atom(1, 0), Condition.of([(1, 1), (2, 0)]))
        exact = exact_probability(lin, registry)
        rng = random.Random(17)
        estimator = KarpLubyEstimator(lin, registry, rng)
        batches = [estimator.estimate(20) for _ in range(2_000)]
        assert sum(batches) / len(batches) == pytest.approx(exact, abs=0.01)

    def test_mean_lower_bound(self, registry):
        lin = lineage(
            registry, Condition.atom(1, 0), Condition.atom(2, 0), Condition.atom(3, 0)
        )
        estimator = KarpLubyEstimator(lin, registry)
        assert estimator.mean_lower_bound() >= 1.0 / 3.0 - 1e-12

    def test_sample_counter(self, registry):
        lin = lineage(registry, Condition.atom(1, 0), Condition.atom(2, 0))
        estimator = KarpLubyEstimator(lin, registry, random.Random(0))
        estimator.estimate(25)
        assert estimator.samples_drawn == 25

    def test_invalid_sample_count(self, registry):
        lin = lineage(registry, Condition.atom(1, 0))
        estimator = KarpLubyEstimator(lin, registry)
        with pytest.raises(ConfidenceError):
            estimator.estimate(0)

    def test_multivalued_variables(self):
        """The adaptation beyond boolean DNF counting: variables with
        domains > 2 and non-uniform distributions."""
        registry = VariableRegistry()
        x = registry.fresh([0.2, 0.3, 0.5])
        y = registry.fresh([0.1, 0.9])
        lin = lineage(registry, Condition.atom(x, 2), Condition.of([(x, 0), (y, 1)]))
        exact = exact_probability(lin, registry)
        estimate = karp_luby_estimate(lin, registry, 50_000, random.Random(4))
        assert estimate == pytest.approx(exact, rel=0.05)
