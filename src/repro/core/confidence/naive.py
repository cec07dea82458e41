"""Exponential confidence oracles (for testing and tiny inputs).

Two independent ground-truth implementations:

- :func:`confidence_by_enumeration` sums world probabilities over all
  assignments of the lineage's variables;
- :func:`confidence_by_inclusion_exclusion` applies inclusion-exclusion
  over clause subsets.

Having two oracles that must agree with each other (and with the exact
engine, and in expectation with the estimators) is the backbone of the
test suite.
"""

from __future__ import annotations

import itertools
from typing import List

from repro.core.conditions import Condition
from repro.core.variables import VariableRegistry
from repro.core.worlds import enumerate_worlds


def confidence_by_enumeration(dnf, registry: VariableRegistry) -> float:
    """P(dnf) by summing over all worlds of the lineage's variables."""
    if dnf.is_false:
        return 0.0
    if dnf.is_true:
        return 1.0
    variables = sorted(dnf.variables())
    total = 0.0
    for world, p in enumerate_worlds(registry, variables):
        if dnf.satisfied_by(world):
            total += p
    return total


def confidence_by_inclusion_exclusion(dnf, registry: VariableRegistry) -> float:
    """P(dnf) = Σ_{∅≠S⊆clauses} (−1)^{|S|+1} P(⋀S).

    The conjunction of a clause subset is contradictory (probability 0)
    when two clauses disagree on a variable.  Exponential in the clause
    count; use only for small DNFs.
    """
    if dnf.is_false:
        return 0.0
    clauses: List[Condition] = list(dnf.clauses)
    total = 0.0
    for size in range(1, len(clauses) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in itertools.combinations(clauses, size):
            conjunction = subset[0]
            for clause in subset[1:]:
                conjunction = conjunction.conjoin(clause)
                if conjunction is None:
                    break
            if conjunction is None:
                continue
            total += sign * conjunction.probability(registry)
    # Clamp tiny floating-point drift from the alternating sum.
    return min(1.0, max(0.0, total))
