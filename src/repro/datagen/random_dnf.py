"""Random lineages with controlled variable-to-clause ratio.

The exact-vs-approximate crossover claim (Section 2.3, citing [3]) is
about where the exact algorithm wins as a function of the
variable-to-clause count ratio.  This generator produces monotone-ish
random lineages (DNFs of conjunctive clauses) over a registry of finite
random variables, sweeping that ratio while holding other shape
parameters fixed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.conditions import Condition
from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry


def random_registry(
    n_variables: int,
    rng: random.Random,
    domain_size: int = 2,
    skew: float = 0.0,
) -> Tuple[VariableRegistry, List[int]]:
    """A registry of ``n_variables`` fresh variables with uniform-ish
    distributions; ``skew`` > 0 biases mass toward the first value."""
    registry = VariableRegistry()
    variables = []
    for _ in range(n_variables):
        weights = [rng.uniform(0.1, 1.0) + (skew if i == 0 else 0.0)
                   for i in range(domain_size)]
        total = sum(weights)
        variables.append(registry.fresh([w / total for w in weights]))
    return registry, variables


def random_dnf(
    n_variables: int,
    n_clauses: int,
    clause_width: int,
    rng: random.Random,
    domain_size: int = 2,
    registry: Optional[VariableRegistry] = None,
    variables: Optional[List[int]] = None,
) -> Tuple[Lineage, VariableRegistry]:
    """A random lineage: each clause picks ``clause_width`` distinct variables
    and one domain value each.  Contradictory clauses cannot arise (one
    atom per variable per clause); duplicate clauses can and are kept, as
    real lineage has duplicates too."""
    if registry is None or variables is None:
        registry, variables = random_registry(n_variables, rng, domain_size)
    clauses = []
    width = min(clause_width, len(variables))
    for _ in range(n_clauses):
        chosen = rng.sample(variables, width)
        atoms = [(var, rng.randrange(domain_size)) for var in chosen]
        condition = Condition.of(atoms)
        assert condition is not None
        clauses.append(condition)
    return Lineage.from_clauses(clauses, registry), registry


def ratio_sweep_instances(
    base_clauses: int,
    ratios: List[float],
    clause_width: int,
    rng: random.Random,
    domain_size: int = 2,
) -> List[Tuple[float, Lineage, VariableRegistry]]:
    """One instance per requested variable-to-clause ratio.

    The clause count stays fixed at ``base_clauses``; the variable pool is
    sized to ``ratio * base_clauses`` (at least ``clause_width``), so low
    ratios give densely shared variables (decomposition-hostile, deep
    elimination) and high ratios give nearly disjoint clauses
    (decomposition-friendly)."""
    instances = []
    for ratio in ratios:
        n_variables = max(clause_width, int(round(ratio * base_clauses)))
        lineage, registry = random_dnf(
            n_variables, base_clauses, clause_width, rng, domain_size
        )
        instances.append((ratio, lineage, registry))
    return instances
