"""C-EXACT + C-ACONF: exact vs approximate confidence computation.

Section 2.3, quoting [3]: "Outside a narrow range of variable-to-clause
count ratios, it [the exact algorithm] outperforms the approximation
techniques."

The sweep holds the clause count fixed and varies the variable pool, so
the variable-to-clause ratio runs from << 1 (few, heavily shared
variables: shallow elimination trees, tiny world count) to >> 1 (near-
disjoint clauses: one decomposition step).  The approximation's cost is
roughly flat -- the DKLR sample count depends on ε, δ and the lineage's mean,
not its ratio -- so the exact algorithm wins at both ends and the
approximation is competitive only in the middle band, which is the
paper's claimed shape.  Instances are :class:`repro.core.lineage.Lineage`
values from :mod:`repro.datagen.random_dnf`.

C-ACONF additionally validates the (ε,δ) guarantee and DKLR's
variance-adaptive sample counts.
"""

import random

import pytest

from conftest import timed

from repro.core.confidence.dklr import approximate_confidence
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.karp_luby import KarpLubyEstimator
from repro.datagen.random_dnf import random_dnf, ratio_sweep_instances

CLAUSES = 40
WIDTH = 3
RATIOS = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
# ε chosen so the two methods' cost curves actually cross on laptop-scale
# instances: the exact algorithm's cost is sharply peaked around ratio 1,
# the approximation's is roughly flat in the ratio.
EPSILON = 0.25
DELTA = 0.1


def aconf(lineage, registry, epsilon, delta, rng):
    return approximate_confidence(lineage, registry, epsilon, delta, rng).estimate


def sweep_instances(seed=101):
    rng = random.Random(seed)
    return ratio_sweep_instances(CLAUSES, RATIOS, WIDTH, rng)


class TestCrossoverShape:
    def test_ratio_sweep_report(self, benchmark, report):
        """The C-EXACT series: per ratio, exact vs aconf runtime."""
        rows = []
        exact_times, approx_times = [], []
        for ratio, lineage, registry in sweep_instances():
            engine = ExactConfidenceEngine(registry)
            exact_seconds, p_exact = timed(engine.probability, lineage)
            rng = random.Random(7)
            approx_seconds, p_approx = timed(
                aconf, lineage, registry, EPSILON, DELTA, rng
            )
            exact_times.append(exact_seconds)
            approx_times.append(approx_seconds)
            rows.append(
                (
                    ratio,
                    len(lineage.variables()),
                    exact_seconds * 1e3,
                    approx_seconds * 1e3,
                    p_exact,
                    abs(p_approx - p_exact) / max(p_exact, 1e-12),
                )
            )
        report(
            "C-EXACT: variable-to-clause ratio sweep "
            f"({CLAUSES} clauses, width {WIDTH}, aconf({EPSILON}, {DELTA}))",
            ["ratio", "vars", "exact_ms", "aconf_ms", "p_exact", "rel_err"],
            rows,
        )
        # Shape assertions, mirroring the paper's claim: the exact
        # algorithm beats the approximation at the extremes of the ratio
        # range, and the approximation is competitive only in the narrow
        # middle band where the exact engine's cost peaks.
        assert exact_times[0] < approx_times[0], "exact should win at low ratio"
        assert exact_times[-1] < approx_times[-1], "exact should win at high ratio"
        hardest = max(range(len(RATIOS)), key=lambda i: exact_times[i])
        assert 0 < hardest < len(RATIOS) - 1, "exact cost should peak mid-range"
        assert approx_times[hardest] < exact_times[hardest] * 1.2, (
            "the approximation should be competitive where exact peaks"
        )
        # And the approximation keeps its relative-error promise (2x slack).
        assert all(row[5] <= 2 * EPSILON for row in rows)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_exact_scaling_in_clause_count(self, benchmark, report):
        rows = []
        for n_clauses in (4, 8, 16, 32, 64):
            rng = random.Random(300 + n_clauses)
            lineage, registry = random_dnf(
                max(2, n_clauses // 2), n_clauses, WIDTH, rng
            )
            engine = ExactConfidenceEngine(registry)
            seconds, _ = timed(engine.probability, lineage)
            rows.append(
                (
                    n_clauses,
                    len(lineage.variables()),
                    seconds * 1e3,
                    engine.statistics.subproblems,
                )
            )
        report(
            "C-EXACT: clause-count scaling (ratio fixed at 0.5)",
            ["clauses", "vars", "ms", "subproblems"],
            rows,
        )
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)


class TestHeadlineBenchmarks:
    def test_exact_low_ratio(self, benchmark):
        ratio, lineage, registry = sweep_instances()[0]
        p = benchmark(lambda: ExactConfidenceEngine(registry).probability(lineage))
        assert 0.0 <= p <= 1.0

    def test_exact_high_ratio(self, benchmark):
        ratio, lineage, registry = sweep_instances()[-1]
        p = benchmark(lambda: ExactConfidenceEngine(registry).probability(lineage))
        assert 0.0 <= p <= 1.0

    def test_aconf_mid_ratio(self, benchmark):
        instances = sweep_instances()
        ratio, lineage, registry = instances[len(instances) // 2]
        rng = random.Random(5)
        p = benchmark.pedantic(
            lambda: aconf(lineage, registry, EPSILON, DELTA, rng),
            rounds=3,
            iterations=1,
        )
        assert 0.0 <= p <= 1.2

    def test_karp_luby_fixed_budget(self, benchmark):
        ratio, lineage, registry = sweep_instances()[2]
        estimator = KarpLubyEstimator(lineage, registry, random.Random(5))
        p = benchmark.pedantic(
            lambda: estimator.estimate(5_000),
            rounds=3,
            iterations=1,
        )
        assert 0.0 <= p <= 1.2


class TestAconfGuarantee:
    def test_epsilon_delta_guarantee_sweep(self, benchmark, report):
        """C-ACONF: empirical failure rate of the (ε,δ) promise."""
        rng = random.Random(9)
        lineage, registry = random_dnf(8, 10, 2, rng)
        exact = ExactConfidenceEngine(registry).probability(lineage)
        failures = 0
        runs = 25
        total_samples = 0
        for seed in range(runs):
            result = approximate_confidence(
                lineage, registry, 0.2, 0.2, random.Random(9000 + seed)
            )
            total_samples += result.total_samples
            if abs(result.estimate - exact) > 0.2 * exact:
                failures += 1
        report(
            "C-ACONF: guarantee check (ε=δ=0.2)",
            ["runs", "failures", "allowed", "avg_samples"],
            [(runs, failures, int(0.2 * runs), total_samples // runs)],
        )
        assert failures <= max(2, int(0.2 * runs))
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_dklr_adapts_to_variance(self, benchmark, report):
        """DKLR's optimality: near-deterministic estimators need far fewer
        main-run samples than high-variance ones at equal (ε, δ)."""
        registry_rng = random.Random(42)
        # High-variance instance: p around 0.5 with many clauses.
        lineage_hi, registry_hi = random_dnf(10, 10, 2, registry_rng)
        # Low-variance instance: single clause (Z is constant 1).
        lineage_lo, registry_lo = random_dnf(4, 1, 2, registry_rng)
        hi = approximate_confidence(lineage_hi, registry_hi, 0.05, 0.05, random.Random(1))
        lo = approximate_confidence(lineage_lo, registry_lo, 0.05, 0.05, random.Random(1))
        report(
            "C-ACONF: DKLR sample adaptivity (ε=δ=0.05)",
            ["instance", "pilot", "variance", "main", "total"],
            [
                ("high-variance", hi.pilot_samples, hi.variance_samples,
                 hi.main_samples, hi.total_samples),
                ("single-clause", lo.pilot_samples, lo.variance_samples,
                 lo.main_samples, lo.total_samples),
            ],
        )
        assert lo.main_samples < hi.main_samples
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
