"""Tests for the Dagum-Karp-Luby-Ross optimal Monte Carlo algorithm.

The headline property under test: ``aconf(ε, δ)`` returns p̂ with
P(|p̂ − p| > ε·p) < δ, and the sample count adapts to the variance.
"""

import math
import random

import pytest

from repro.core.conditions import Condition
from repro.core.confidence.dklr import (
    ApproximationResult,
    aa_estimate,
    approximate_confidence,
    stopping_rule_estimate,
)
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry
from repro.datagen.random_dnf import random_dnf
from repro.errors import ConfidenceError


def lineage(registry, *clauses):
    return Lineage.from_clauses(clauses, registry)


def exact_probability(lin, registry):
    return ExactConfidenceEngine(registry).probability(lin)


def aconf(lin, registry, epsilon, delta, rng):
    return approximate_confidence(lin, registry, epsilon, delta, rng).estimate


def bernoulli_sampler(p, rng):
    return lambda: 1.0 if rng.random() < p else 0.0


class TestStoppingRule:
    def test_estimates_bernoulli_mean(self):
        rng = random.Random(1)
        estimate, samples = stopping_rule_estimate(bernoulli_sampler(0.3, rng), 0.1, 0.05)
        assert estimate == pytest.approx(0.3, rel=0.1)
        assert samples > 0

    def test_sample_count_scales_inversely_with_mean(self):
        """The SRA's sample count is ~Υ₁/μ: smaller means need more."""
        rng = random.Random(2)
        _, n_large = stopping_rule_estimate(bernoulli_sampler(0.8, rng), 0.2, 0.1)
        _, n_small = stopping_rule_estimate(bernoulli_sampler(0.05, rng), 0.2, 0.1)
        assert n_small > 5 * n_large

    def test_zero_mean_guard(self):
        with pytest.raises(ConfidenceError):
            stopping_rule_estimate(lambda: 0.0, 0.5, 0.25, max_samples=1000)

    def test_parameter_validation(self):
        sampler = lambda: 1.0
        with pytest.raises(ConfidenceError):
            stopping_rule_estimate(sampler, 0.0, 0.1)
        with pytest.raises(ConfidenceError):
            stopping_rule_estimate(sampler, 0.1, 1.5)

    def test_constant_one_terminates_quickly(self):
        estimate, samples = stopping_rule_estimate(lambda: 1.0, 0.1, 0.05)
        assert estimate == pytest.approx(1.0, rel=0.15)
        # Υ₁ samples of value 1.0 suffice.
        upsilon1 = 1 + (1.1) * 4 * (math.e - 2) * math.log(2 / 0.05) / 0.01
        assert samples <= math.ceil(upsilon1)


class TestAAAlgorithm:
    def test_estimates_bernoulli(self):
        rng = random.Random(3)
        result = aa_estimate(bernoulli_sampler(0.4, rng), 0.1, 0.05)
        assert result.estimate == pytest.approx(0.4, rel=0.1)
        assert result.total_samples == (
            result.pilot_samples + result.variance_samples + result.main_samples
        )

    def test_low_variance_needs_fewer_samples(self):
        """DKLR's optimality: for a nearly deterministic variable the main
        run shrinks (ρ ≈ 0 clamps to ε·μ̂) compared to a fair Bernoulli."""
        rng = random.Random(4)
        nearly_constant = aa_estimate(lambda: 0.5, 0.05, 0.05)
        fair_coin = aa_estimate(bernoulli_sampler(0.5, rng), 0.05, 0.05)
        assert nearly_constant.main_samples < fair_coin.main_samples

    def test_guarantee_empirically(self):
        """Run AA many times; the fraction of runs violating the relative
        error bound must be below δ (with slack for test stability)."""
        p = 0.3
        epsilon, delta = 0.2, 0.2
        failures = 0
        runs = 60
        for seed in range(runs):
            rng = random.Random(1000 + seed)
            result = aa_estimate(bernoulli_sampler(p, rng), epsilon, delta)
            if abs(result.estimate - p) > epsilon * p:
                failures += 1
        assert failures / runs <= delta  # typically far below


class TestAconf:
    @pytest.fixture
    def registry(self):
        r = VariableRegistry()
        for _ in range(4):
            r.fresh([0.4, 0.6])
        return r

    def test_trivial_dnfs_exact_without_sampling(self, registry):
        result = approximate_confidence(lineage(registry), registry)
        assert result.estimate == 0.0
        assert result.total_samples == 0

    def test_matches_exact_within_epsilon(self, registry):
        lin = lineage(
            registry,
            Condition.of([(1, 0), (2, 0)]),
            Condition.atom(3, 1),
            Condition.of([(2, 1), (4, 0)]),
        )
        exact = exact_probability(lin, registry)
        estimate = aconf(lin, registry, 0.05, 0.05, random.Random(7))
        assert abs(estimate - exact) <= 2 * 0.05 * exact  # 2x slack

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dnfs_guarantee(self, seed):
        rng = random.Random(seed)
        lin, registry = random_dnf(5, 5, 2, rng)
        exact = exact_probability(lin, registry)
        estimate = aconf(lin, registry, 0.1, 0.1, random.Random(seed + 30))
        assert abs(estimate - exact) <= 3 * 0.1 * max(exact, 1e-9)

    def test_scaling_transfer(self, registry):
        """The relative guarantee on μ_Z transfers through U: confirm the
        result is U * mean, not mean."""
        clause = Condition.atom(1, 1)  # p = 0.6
        result = approximate_confidence(lineage(registry, clause), registry, 0.1, 0.1)
        # Single clause: Z == 1 always, estimate must be exactly U = 0.6.
        assert result.estimate == pytest.approx(0.6)

    def test_tighter_epsilon_uses_more_samples(self, registry):
        lin = lineage(registry, Condition.atom(1, 0), Condition.of([(2, 0), (3, 0)]))
        loose = approximate_confidence(lin, registry, 0.2, 0.1, random.Random(8))
        tight = approximate_confidence(lin, registry, 0.05, 0.1, random.Random(8))
        assert tight.total_samples > loose.total_samples
