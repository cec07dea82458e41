"""Tests for the Karp-Luby estimator: unbiasedness and accuracy."""

import random

import pytest

from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.karp_luby import KarpLubyEstimator
from repro.core.lineage import canonical_clause
from repro.core.variables import VariableRegistry
from repro.datagen.random_dnf import random_dnf
from repro.errors import ConfidenceError


def lineage(*clauses):
    return list(clauses)


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
        estimator = KarpLubyEstimator(lineage(), registry)
        assert estimator.is_trivial
        assert estimator.trivial_probability == 0.0

    def test_true_dnf(self, registry):
        estimator = KarpLubyEstimator(lineage(()), registry)
        assert estimator.is_trivial
        assert estimator.trivial_probability == 1.0

    def test_zero_probability_clauses_normalize_to_false(self, registry):
        zero = registry.fresh([0.0, 1.0])
        estimator = KarpLubyEstimator(
            lineage(((zero, 0),)), registry
        )
        assert estimator.is_trivial

    def test_sampling_trivial_raises(self, registry):
        estimator = KarpLubyEstimator(lineage(), registry)
        with pytest.raises(ConfidenceError):
            estimator.sample()

    def test_estimate_of_a_trivial_lineage_draws_nothing(self, registry):
        estimator = KarpLubyEstimator(lineage(), registry)
        assert estimator.estimate(10) == 0.0
        assert estimator.samples_drawn == 0


class TestEstimation:
    def test_single_clause_exact_in_expectation(self, registry):
        """With one clause, Z == 1 always, so the estimate equals p1."""
        clause = canonical_clause([(1, 0), (2, 1)])
        estimator = KarpLubyEstimator(
            lineage(clause), registry, random.Random(1)
        )
        estimate = estimator.estimate(100)
        assert estimate == pytest.approx(registry.assignment_probability(dict(clause)))

    def test_samples_are_binary(self, registry):
        lin = lineage(((1, 0),), ((2, 0),))
        estimator = KarpLubyEstimator(lin, registry, random.Random(2))
        draws = {estimator.sample() for _ in range(50)}
        assert draws <= {0, 1}

    def test_estimate_close_to_exact(self, registry):
        lin = lineage(
            canonical_clause([(1, 0), (2, 0)]),
            canonical_clause([(2, 0), (3, 1)]),
            ((4, 1),),
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
        lin = lineage(((1, 0),), canonical_clause([(1, 1), (2, 0)]))
        exact = exact_probability(lin, registry)
        rng = random.Random(17)
        estimator = KarpLubyEstimator(lin, registry, rng)
        batches = [estimator.estimate(20) for _ in range(2_000)]
        assert sum(batches) / len(batches) == pytest.approx(exact, abs=0.01)

    def test_mean_lower_bound(self, registry):
        lin = lineage(((1, 0),), ((2, 0),), ((3, 0),))
        estimator = KarpLubyEstimator(lin, registry)
        assert estimator.mean_lower_bound() >= 1.0 / 3.0 - 1e-12

    def test_sample_counter(self, registry):
        lin = lineage(((1, 0),), ((2, 0),))
        estimator = KarpLubyEstimator(lin, registry, random.Random(0))
        estimator.estimate(25)
        assert estimator.samples_drawn == 25

    def test_invalid_sample_count(self, registry):
        lin = lineage(((1, 0),))
        estimator = KarpLubyEstimator(lin, registry)
        with pytest.raises(ConfidenceError):
            estimator.estimate(0)

    def test_multivalued_variables(self):
        """The adaptation beyond boolean DNF counting: variables with
        domains > 2 and non-uniform distributions."""
        registry = VariableRegistry()
        x = registry.fresh([0.2, 0.3, 0.5])
        y = registry.fresh([0.1, 0.9])
        lin = lineage(((x, 2),), canonical_clause([(x, 0), (y, 1)]))
        exact = exact_probability(lin, registry)
        estimate = karp_luby_estimate(lin, registry, 50_000, random.Random(4))
        assert estimate == pytest.approx(exact, rel=0.05)


class _Draws:
    """An rng stand-in that returns the given uniforms in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


class TestClauseChoice:
    def test_the_first_running_sum_above_the_draw(self, registry):
        lin = lineage(((1, 0),), ((2, 1), (3, 0)), ((4, 1),), ((5, 0), (1, 1)))
        estimator = KarpLubyEstimator(lin, registry)
        sums = estimator._cumulative
        draws = [0.0, 0.3, 0.5, 0.999, 1.0 - 2.0**-53]
        draws += [s / estimator.total_weight for s in sums]  # at a boundary
        estimator.rng = _Draws(draws)
        for u in draws:
            scaled = u * estimator.total_weight
            linear = next(
                (i for i, acc in enumerate(sums) if scaled < acc), len(sums) - 1
            )
            assert estimator._sample_clause_index() == linear

    def test_a_draw_past_the_last_sum_takes_the_last_clause(self, registry):
        estimator = KarpLubyEstimator(lineage(((1, 0),), ((2, 0),)), registry)
        estimator.rng = _Draws([1.0])
        assert estimator._sample_clause_index() == 1

    def test_z_is_one_only_for_the_first_satisfied_clause(self, registry):
        # Both clauses hold in every world where x1 = 0 and x2 = 0; the
        # sample counts only when the first of them was chosen.
        lin = lineage(((1, 0),), ((2, 0),))
        estimator = KarpLubyEstimator(lin, registry)
        p1 = estimator.clause_probabilities[0] / estimator.total_weight
        # clause 1 chosen, then x1 drawn as 0 (u < 0.4): clause 0 holds too.
        estimator.rng = _Draws([p1 + 0.01, 0.1])
        assert estimator.sample() == 0
        # clause 1 chosen, x1 drawn as 1: it is the first satisfied clause.
        estimator.rng = _Draws([p1 + 0.01, 0.9])
        assert estimator.sample() == 1
        # clause 0 chosen: always the first.
        estimator.rng = _Draws([0.0, 0.1])
        assert estimator.sample() == 1
