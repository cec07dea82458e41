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
from bisect import bisect_right
from functools import partial
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.lineage import Clause, clause_probability, simplify_clauses
from repro.core.variables import VariableRegistry, cumulative
from repro.errors import ConfidenceError

#: Below this sample count the NumPy batch setup outweighs the win.
_VECTOR_MIN_SAMPLES = 64


class KarpLubyEstimator:
    """Sampler for the Karp-Luby Bernoulli variable of a disjunction of
    canonical clauses.

    Construction simplifies the clauses (drops zero-probability /
    duplicate / subsumed clauses; simplified clauses stay as they are, in
    their order) and reads every variable's chances from the registry
    once.  ``is_trivial`` reports disjunctions whose probability is 0 or 1
    outright; callers must check it before sampling.
    """

    def __init__(
        self,
        clauses: Sequence[Clause],
        registry: VariableRegistry,
        rng: Optional[random.Random] = None,
    ):
        self.rng = rng if rng is not None else random.Random(0)
        variables = sorted({var for clause in clauses for var, _ in clause})
        distributions = dict(zip(variables, registry.distributions(variables)))
        probability = partial(clause_probability, distributions=distributions)
        self.clauses = simplify_clauses(clauses, probability)
        self.clause_probabilities = [probability(clause) for clause in self.clauses]
        self.total_weight = sum(self.clause_probabilities)  # U = Σ pᵢ
        kept = {var for clause in self.clauses for var, _ in clause}
        self.variables = [var for var in variables if var in kept]
        #: Per variable, its running chance sums (see ``cumulative``): what
        #: both samplers draw against.
        self._draws = [cumulative(distributions[var]) for var in self.variables]
        self._cumulative = list(itertools.accumulate(self.clause_probabilities))
        self.samples_drawn = 0

    # -- trivial cases ------------------------------------------------------
    @property
    def is_trivial(self) -> bool:
        return not self.clauses or not self.clauses[0]

    @property
    def trivial_probability(self) -> float:
        if not self.clauses:
            return 0.0
        if not self.clauses[0]:  # simplified ⊤ is the single clause ()
            return 1.0
        raise ConfidenceError("lineage is not trivial")

    # -- sampling -------------------------------------------------------------
    def _sample_clause_index(self) -> int:
        u = self.rng.random() * self.total_weight
        return min(bisect_right(self._cumulative, u), len(self._cumulative) - 1)

    def sample(self) -> int:
        """Draw one Bernoulli sample Z (see module docstring)."""
        if self.is_trivial:
            raise ConfidenceError("sampling a trivial lineage; use trivial_probability")
        self.samples_drawn += 1
        index = self._sample_clause_index()
        clauses = self.clauses
        fixed = dict(clauses[index])
        world: Dict[int, int] = {}
        draw = self.rng.random
        for var, sums in zip(self.variables, self._draws):
            if var in fixed:
                world[var] = fixed[var]
            else:
                world[var] = bisect_right(sums, draw())
        # Z = 1 iff no clause before the chosen one (which the world
        # satisfies by construction) is satisfied too.
        for i in range(index):
            for var, value in clauses[i]:
                if world[var] != value:
                    break
            else:
                return 0
        return 1

    def estimate(self, samples: int) -> float:
        """Fixed-sample-count estimate U · mean(Z) of the confidence.

        From ``_VECTOR_MIN_SAMPLES`` samples on, sampling consumes the clause-probability and
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
        block of samples a pure function of (clauses, seed, count): the
        seeded aconf path hands each main-run block its own seed so the
        count is reproduced exactly on any run.
        """
        if samples <= 0:
            raise ConfidenceError(f"need a positive sample count, got {samples}")
        rng = self.rng if seed is None else random.Random(seed)
        if samples >= _VECTOR_MIN_SAMPLES and self.variables:
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
        for j, sums in enumerate(self._draws):
            worlds[:, j] = np.searchsorted(sums, rng.random(samples), side="right")

        # Choose a clause per sample with probability pᵢ/U and force its
        # atoms into those samples' worlds.
        cumulative_weight = np.cumsum(
            np.fromiter(self.clause_probabilities, dtype=np.float64)
        )
        chosen = np.searchsorted(
            cumulative_weight, rng.random(samples) * self.total_weight, side="right"
        )
        chosen = np.minimum(chosen, len(self.clauses) - 1)
        for clause_index, clause in enumerate(self.clauses):
            rows = chosen == clause_index
            if not rows.any():
                continue
            for var, value in clause:
                worlds[rows, column_of[var]] = value

        # First satisfied clause per sample; Z = (first == chosen).
        first = np.full(samples, -1, dtype=np.int64)
        for clause_index, clause in enumerate(self.clauses):
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

