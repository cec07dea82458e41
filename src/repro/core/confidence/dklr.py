"""The Dagum-Karp-Luby-Ross optimal Monte Carlo algorithm [2].

Implements the two algorithms of "An Optimal Algorithm for Monte Carlo
Estimation" (SIAM J. Comput. 29(5), 2000) over an arbitrary [0,1]-valued
sampler, and glues them to the Karp-Luby estimator to provide MayBMS's
``aconf(ε, δ)``: an estimate p̂ with

    P( |p̂ − p| > ε·p ) < δ            (relative (ε,δ)-approximation).

**Stopping Rule Algorithm (SRA).**  With Υ = 4(e−2)·ln(2/δ)/ε² and
Υ₁ = 1 + (1+ε)·Υ, draw samples until their running sum S first exceeds
Υ₁ and output Υ₁ / N, where N is the number of samples drawn.  The paper
proves this is an (ε,δ)-approximation of the mean μ using an *optimal*
expected number of samples up to constants: the count adapts to μ itself
(≈ Υ₁/μ), without needing a lower bound on μ in advance.

**Approximation Algorithm (AA).**  Wraps three phases ("sequential
analysis": a small pilot run estimates the mean and variance, which then
size the main run):

1. a pilot SRA with loosened parameters (√ε, δ/3) giving μ̂;
2. a variance run of N = Υ₂·ε/μ̂ sample *pairs*, estimating
   ρ̂ = max(S/N, ε·μ̂) where S sums (Z₂ᵢ₋₁ − Z₂ᵢ)²/2 -- an unbiased
   variance estimator that needs no mean subtraction;
3. a main run of N = Υ₂·ρ̂/μ̂² samples whose mean is the output,

with Υ₂ = 2·(1 + √ε)·(1 + 2√ε)·(1 + ln(3/2)/ln(3/δ))·Υ (and Υ evaluated
at δ/3).  AA's expected sample count is within a constant factor of the
optimum ≈ ρ/(μ²ε²)·ln(1/δ) for *every* (μ, ρ), which is why the paper is
titled "optimal": the naive bound μ/(ε²μ²) overshoots when the variance
is small, and MayBMS inherits the saving.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.core.confidence.karp_luby import KarpLubyEstimator
from repro.core.lineage import Clause
from repro.core.variables import VariableRegistry
from repro.errors import ConfidenceError

Sampler = Callable[[], float]

_E_MINUS_2 = math.e - 2.0

#: Samples per seeded block of the deterministic main run (see
#: :func:`approximate_confidence` with ``unit_seed``).  The block layout
#: depends only on the main-run sample count, so blocked estimates are
#: reproducible anywhere.
MAIN_BLOCK = 32_768

#: Stream tag for per-group ``aconf`` seeds.  Changing it changes every
#: seeded ``aconf()`` answer.
ACONF_UNIT_STREAM = -2


def fnv_mix(seed: int, *parts: int) -> int:
    """Deterministic FNV-style integer mix: one 64-bit seed stream per
    (seed, parts) tuple.

    This is the single seed-derivation formula of the engine: the
    per-group aconf() seeds and the per-block main-run seeds below are
    both drawn from it, so a seeded result is a pure function of its
    seed.
    """
    h = 0x9E3779B97F4A7C15 ^ (seed & 0xFFFFFFFFFFFFFFFF)
    for part in parts:
        h = (h ^ (part + 2)) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
    return h


def aconf_unit_seed(base_seed: int, ordinal: int) -> int:
    """The per-group seed of ``aconf``'s Monte-Carlo run (group ``ordinal``
    in group order).  :func:`approximate_confidence` runs with this
    ``unit_seed``, so an aconf() answer is a pure function of (store
    seed, group ordinal)."""
    return fnv_mix(base_seed, ordinal, ACONF_UNIT_STREAM)


@dataclass
class ApproximationResult:
    """An estimate plus the number of samples each phase consumed."""

    estimate: float
    pilot_samples: int
    variance_samples: int
    main_samples: int

    @property
    def total_samples(self) -> int:
        return self.pilot_samples + self.variance_samples + self.main_samples


def _upsilon(epsilon: float, delta: float) -> float:
    """Υ = 4(e−2)·ln(2/δ)/ε², the base sample-count constant."""
    return 4.0 * _E_MINUS_2 * math.log(2.0 / delta) / (epsilon * epsilon)


def _check_parameters(epsilon: float, delta: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise ConfidenceError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ConfidenceError(f"delta must be in (0, 1), got {delta}")


def stopping_rule_estimate(
    sampler: Sampler,
    epsilon: float,
    delta: float,
    max_samples: int = 100_000_000,
) -> Tuple[float, int]:
    """The DKLR Stopping Rule Algorithm.

    Returns (μ̂, samples used).  Requires the sampler's mean to be
    positive; ``max_samples`` guards against a zero-mean sampler looping
    forever (the Karp-Luby variable always has mean ≥ 1/#clauses, so the
    guard never triggers for well-formed lineage).
    """
    _check_parameters(epsilon, delta)
    upsilon1 = 1.0 + (1.0 + epsilon) * _upsilon(epsilon, delta)
    total = 0.0
    count = 0
    while total < upsilon1:
        if count >= max_samples:
            raise ConfidenceError(
                f"stopping rule drew {count} samples without reaching "
                f"Υ₁ = {upsilon1:.3g}; sampler mean is (near) zero"
            )
        total += sampler()
        count += 1
    return upsilon1 / count, count


def aa_estimate(
    sampler: Sampler,
    epsilon: float,
    delta: float,
    main_run: Optional[Callable[[int], float]] = None,
) -> ApproximationResult:
    """The DKLR Approximation Algorithm AA (pilot / variance / main runs).

    ``main_run`` overrides step 3: given the main-run sample count it
    returns the sample mean.  The deterministic aconf path uses it to
    draw the main run in fixed seeded blocks (vectorized, and
    independent of how the pilot RNG advanced); the default draws from
    ``sampler`` one at a time.
    """
    _check_parameters(epsilon, delta)

    # Step 1: pilot estimate with loosened accuracy min(1/2, √ε), confidence δ/3.
    pilot_epsilon = min(0.5, math.sqrt(epsilon))
    mu_hat, pilot_samples = stopping_rule_estimate(sampler, pilot_epsilon, delta / 3.0)

    # Υ₂ as in the paper, with Υ evaluated at (ε, δ/3).
    upsilon = _upsilon(epsilon, delta / 3.0)
    upsilon2 = (
        2.0
        * (1.0 + math.sqrt(epsilon))
        * (1.0 + 2.0 * math.sqrt(epsilon))
        * (1.0 + math.log(1.5) / math.log(3.0 / delta))
        * upsilon
    )

    # Step 2: variance estimation from sample pairs.
    pair_count = max(1, math.ceil(upsilon2 * epsilon / mu_hat))
    s = 0.0
    for _ in range(pair_count):
        z1 = sampler()
        z2 = sampler()
        d = z1 - z2
        s += d * d / 2.0
    rho_hat = max(s / pair_count, epsilon * mu_hat)
    variance_samples = 2 * pair_count

    # Step 3: main run sized by the variance estimate.
    main_count = max(1, math.ceil(upsilon2 * rho_hat / (mu_hat * mu_hat)))
    if main_run is not None:
        estimate = main_run(main_count)
    else:
        total = 0.0
        for _ in range(main_count):
            total += sampler()
        estimate = total / main_count

    return ApproximationResult(
        estimate=estimate,
        pilot_samples=pilot_samples,
        variance_samples=variance_samples,
        main_samples=main_count,
    )


def _blocked_main_run(
    estimator: KarpLubyEstimator, unit_seed: int
) -> Callable[[int], float]:
    """AA step 3 drawn in fixed seeded blocks of :data:`MAIN_BLOCK`.

    Block ``j`` draws its hit count from a private RNG seeded with
    ``fnv_mix(unit_seed, j + 1)`` (stream 0 is the pilot/variance RNG), so
    the main-run estimate depends only on (unit seed, sample count) --
    not on how far the pilot advanced a shared stream.  Z is Bernoulli, so integer hit counts combine across
    blocks with no float-order sensitivity at all.
    """

    def run(main_count: int) -> float:
        hits = 0
        for j, start in enumerate(range(0, main_count, MAIN_BLOCK)):
            block = min(MAIN_BLOCK, main_count - start)
            hits += estimator.sample_hits(block, seed=fnv_mix(unit_seed, j + 1))
        return hits / main_count

    return run


def approximate_confidence(
    clauses: Sequence[Clause],
    registry: VariableRegistry,
    epsilon: float = 0.1,
    delta: float = 0.05,
    rng: Optional[random.Random] = None,
    unit_seed: Optional[int] = None,
) -> ApproximationResult:
    """``aconf(ε, δ)``: DKLR-driven Karp-Luby approximation of P(⋁ clauses).

    The AA guarantee on the Bernoulli mean μ_Z = p/U transfers to
    p = U·μ_Z because U is a known constant: relative error is preserved
    under scaling.  U = Σ P(clause) can exceed 1, and so can U·μ̂_Z; the
    estimate is clamped to 1, which only moves it toward p, so the
    guarantee still holds and every answer is a probability.

    With ``unit_seed`` the estimate is fully deterministic for that seed:
    the pilot/variance phases draw sequentially from a private RNG seeded
    with ``fnv_mix(unit_seed, 0)`` and the main run uses the blocked
    layout of :func:`_blocked_main_run`.  This is how a seeded aconf()
    answer stays reproducible across stores and sessions -- every group
    carries its own seed, derived from the store seed via
    :func:`aconf_unit_seed`.  Without it, draws come from ``rng``: the
    session RNG, for ``conf()``'s Monte-Carlo fallback and forced
    ``monte-carlo`` policy.
    """
    if unit_seed is not None:
        rng = random.Random(fnv_mix(unit_seed, 0))
    estimator = KarpLubyEstimator(clauses, registry, rng)
    if estimator.is_trivial:
        return ApproximationResult(estimator.trivial_probability, 0, 0, 0)
    main_run = (
        _blocked_main_run(estimator, unit_seed) if unit_seed is not None else None
    )
    result = aa_estimate(estimator.sample, epsilon, delta, main_run=main_run)
    return ApproximationResult(
        estimate=min(estimator.total_weight * result.estimate, 1.0),
        pilot_samples=result.pilot_samples,
        variance_samples=result.variance_samples,
        main_samples=result.main_samples,
    )

