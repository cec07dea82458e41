"""The Karp-Luby unbiased estimator, adapted to confidence computation.

Section 2.3: "The approximation algorithm used by MayBMS is a combination
of the Karp-Luby unbiased estimator for DNF counting in a modified version
adapted to confidence computation in probabilistic databases, and the
Dagum-Karp-Luby-Ross optimal algorithm for Monte Carlo estimation."

The classical estimator targets P(⋁ᵢ Cᵢ) for events Cᵢ with easily
computable probabilities pᵢ = P(Cᵢ) and easy conditional sampling.  For
confidence computation the Cᵢ are conjunctions of assignments of
independent finite random variables, so both are immediate:

- pᵢ is the product of the atom probabilities;
- sampling a world conditioned on Cᵢ fixes Cᵢ's atoms and samples every
  other variable of the DNF from its marginal distribution.

With U = Σᵢ pᵢ, sample a clause index i with probability pᵢ/U and then a
world θ ~ P(· | Cᵢ).  The Bernoulli variable

    Z = 1  iff  i is the *first* clause of the DNF satisfied by θ

has expectation P(⋁ᵢ Cᵢ) / U: each satisfying world θ is generated via
exactly one (clause, world) pair that counts -- its first satisfied
clause -- with probability P(θ)/U.  Therefore U·mean(Z) is an unbiased
estimator of the confidence, and Z ∈ {0,1} is exactly the [0,1]-valued
random variable the DKLR driver (:mod:`repro.core.confidence.dklr`)
expects.  Note μ_Z = p/U ≥ 1/m (m = clause count), so DKLR's stopping
rule terminates after O(m·ln(1/δ)/ε²) samples in the worst case.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Optional

from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry
from repro.engine.columnar import HAVE_NUMPY, np
from repro.errors import ConfidenceError

#: Below this sample count the NumPy batch setup outweighs the win.
_VECTOR_MIN_SAMPLES = 64


class KarpLubyEstimator:
    """Sampler for the Karp-Luby Bernoulli variable of a lineage.

    Construction simplifies the lineage (drops zero-probability /
    duplicate / subsumed clauses) unless it is already simplified, and
    reads clause probabilities from the IR's interned-clause cache.
    ``is_trivial`` reports lineages whose probability is 0 or 1 outright;
    callers must check it before sampling.
    """

    def __init__(
        self,
        lineage: Lineage,
        registry: VariableRegistry,
        rng: Optional[random.Random] = None,
    ):
        self.registry = registry
        self.rng = rng if rng is not None else random.Random(0)
        self.lineage = lineage.simplified()
        self.clause_probabilities = self.lineage.clause_probabilities()
        self.total_weight = sum(self.clause_probabilities)  # U = Σ pᵢ
        self.variables = sorted(self.lineage.variables())
        self._cumulative = list(itertools.accumulate(self.clause_probabilities))
        self.samples_drawn = 0

    # -- trivial cases ------------------------------------------------------
    @property
    def is_trivial(self) -> bool:
        return self.lineage.is_false or self.lineage.is_true

    @property
    def trivial_probability(self) -> float:
        if self.lineage.is_false:
            return 0.0
        if self.lineage.is_true:
            return 1.0
        raise ConfidenceError("lineage is not trivial")

    # -- sampling -------------------------------------------------------------
    def _sample_clause_index(self) -> int:
        u = self.rng.random() * self.total_weight
        # Linear scan with early exit; clause counts here are query-result
        # duplicate counts, typically small.  Bisect would also work.
        for i, acc in enumerate(self._cumulative):
            if u < acc:
                return i
        return len(self._cumulative) - 1

    def sample(self) -> int:
        """Draw one Bernoulli sample Z (see module docstring)."""
        if self.is_trivial:
            raise ConfidenceError("sampling a trivial lineage; use trivial_probability")
        self.samples_drawn += 1
        index = self._sample_clause_index()
        clause = self.lineage.clauses[index]
        fixed = {var: value for var, value in clause}
        world: Dict[int, int] = {}
        for var in self.variables:
            if var in fixed:
                world[var] = fixed[var]
            else:
                world[var] = self.registry.sample_value(var, self.rng)
        first = self.lineage.first_satisfied_clause(world)
        # ``clause`` is satisfied by construction, so first is not None and
        # first <= index.
        return 1 if first == index else 0

    def estimate(self, samples: int) -> float:
        """Fixed-sample-count estimate U · mean(Z) of the confidence.

        With NumPy available, sampling consumes the clause-probability and
        per-variable distribution *columns* in one vectorized block: all
        clause choices, all world draws, and all first-satisfied-clause
        tests happen array-at-a-time instead of per sample per variable.
        """
        if self.is_trivial:
            return self.trivial_probability
        return self.total_weight * self.sample_hits(samples) / samples

    def sample_hits(self, samples: int, seed: Optional[int] = None) -> int:
        """Integer hit count Σ Z over ``samples`` fresh Bernoulli draws.

        With ``seed`` the draws come from a private ``random.Random(seed)``
        stream instead of this estimator's rng, which is what makes a
        block of samples a pure function of (lineage, seed, count): the
        seeded aconf path hands each main-run block its own seed so the
        count is reproduced exactly on any run.
        """
        if samples <= 0:
            raise ConfidenceError(f"need a positive sample count, got {samples}")
        rng = self.rng if seed is None else random.Random(seed)
        if HAVE_NUMPY and samples >= _VECTOR_MIN_SAMPLES and self.variables:
            return self._hits_vectorized(samples, rng)
        if seed is None:
            return sum(self.sample() for _ in range(samples))
        # Scalar fallback for the seeded path: route self.sample() through
        # the private stream so seeded counts never touch the session rng.
        saved = self.rng
        self.rng = rng
        try:
            return sum(self.sample() for _ in range(samples))
        finally:
            self.rng = saved

    def _hits_vectorized(self, samples: int, base_rng: random.Random) -> int:
        """NumPy block implementation of :meth:`sample_hits` (statistically
        identical: same estimator, a different deterministic stream seeded
        from ``base_rng``)."""
        rng = np.random.default_rng(base_rng.getrandbits(64))
        self.samples_drawn += samples
        variables = self.variables
        column_of = {var: j for j, var in enumerate(variables)}

        # Sample every variable's column from its marginal distribution.
        worlds = np.empty((samples, len(variables)), dtype=np.int64)
        for j, var in enumerate(variables):
            distribution = self.registry.distribution(var)
            values = np.fromiter(distribution.keys(), dtype=np.int64)
            cumulative = np.cumsum(np.fromiter(distribution.values(), dtype=np.float64))
            draws = np.searchsorted(cumulative, rng.random(samples), side="right")
            worlds[:, j] = values[np.minimum(draws, len(values) - 1)]

        # Choose a clause per sample with probability pᵢ/U and force its
        # atoms into those samples' worlds.
        cumulative_weight = np.cumsum(
            np.fromiter(self.clause_probabilities, dtype=np.float64)
        )
        chosen = np.searchsorted(
            cumulative_weight, rng.random(samples) * self.total_weight, side="right"
        )
        chosen = np.minimum(chosen, len(self.lineage.clauses) - 1)
        for clause_index, clause in enumerate(self.lineage.clauses):
            rows = chosen == clause_index
            if not rows.any():
                continue
            for var, value in clause:
                worlds[rows, column_of[var]] = value

        # First satisfied clause per sample; Z = (first == chosen).
        first = np.full(samples, -1, dtype=np.int64)
        for clause_index, clause in enumerate(self.lineage.clauses):
            satisfied = np.ones(samples, dtype=bool)
            for var, value in clause:
                satisfied &= worlds[:, column_of[var]] == value
            undecided = first < 0
            first[satisfied & undecided] = clause_index
        return int((first == chosen).sum())

    def mean_lower_bound(self) -> float:
        """μ_Z ≥ max pᵢ / U ≥ 1/m: guarantees estimator progress."""
        if not self.clause_probabilities:
            return 0.0
        return max(self.clause_probabilities) / self.total_weight

