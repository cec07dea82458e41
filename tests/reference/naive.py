"""Exponential confidence oracles (for testing and tiny inputs).

Two independent ground-truth implementations over a disjunction of
canonical clauses (atom tuples):

- :func:`confidence_by_enumeration` sums world probabilities over all
  assignments of the clauses' variables;
- :func:`confidence_by_inclusion_exclusion` applies inclusion-exclusion
  over clause subsets.

Having two oracles that must agree with each other (and with the exact
engine, and in expectation with the estimators) is the backbone of the
test suite.
"""

import itertools
from typing import Dict, Optional, Sequence

from repro.core.variables import VariableRegistry

from .confidence import clause_probability, satisfied
from .worlds import enumerate_worlds


def confidence_by_enumeration(
    clauses: Sequence[tuple], registry: VariableRegistry
) -> float:
    """P(⋁ clauses) by summing over all worlds of the clauses' variables."""
    if not clauses:
        return 0.0
    if not all(clauses):
        return 1.0
    variables = sorted({var for clause in clauses for var, _ in clause})
    total = 0.0
    for world, p in enumerate_worlds(registry, variables):
        if any(satisfied(clause, world) for clause in clauses):
            total += p
    return total


def _conjoin(clauses: Sequence[tuple]) -> Optional[tuple]:
    """The conjunction of clauses; None when two disagree on a variable."""
    atoms: Dict[int, int] = {}
    for clause in clauses:
        for var, value in clause:
            if atoms.setdefault(var, value) != value:
                return None
    return tuple(sorted(atoms.items()))


def confidence_by_inclusion_exclusion(
    clauses: Sequence[tuple], registry: VariableRegistry
) -> float:
    """P(⋁ clauses) = Σ_{∅≠S⊆clauses} (−1)^{|S|+1} P(⋀S).

    The conjunction of a clause subset is contradictory (probability 0)
    when two clauses disagree on a variable.  Exponential in the clause
    count; use only for small DNFs.
    """
    total = 0.0
    for size in range(1, len(clauses) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in itertools.combinations(clauses, size):
            conjunction = _conjoin(subset)
            if conjunction is not None:
                total += sign * clause_probability(conjunction, registry)
    # Clamp tiny floating-point drift from the alternating sum.
    return min(1.0, max(0.0, total))
