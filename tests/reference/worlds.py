"""Possible-worlds semantics: the exhaustive oracle.

A U-relational database represents a finite set of possible worlds: one
per total assignment of the independent random variables, with probability
the product of the per-variable assignment probabilities.  This module
enumerates them.  It is exponential by design -- it exists so that every
other component (translation, repair-key, confidence computation,
aggregates) can be tested against ground truth on small instances.

Row conditions are decoded by :func:`reference.confidence.row_conditions`,
one row at a time, not by the system's array decode.
"""

import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.engine.relation import Relation

from .confidence import clause_probability, row_conditions, satisfied

World = Dict[int, int]


def enumerate_worlds(
    registry: VariableRegistry,
    variables: Optional[Iterable[int]] = None,
    include_zero_probability: bool = False,
) -> Iterator[Tuple[World, float]]:
    """Yield (assignment, probability) for every possible world over the
    given variables (default: all user variables in the registry).

    Worlds of probability zero are skipped unless requested: they carry no
    probability mass, and skipping them keeps enumeration feasible for
    registries with many zero-weight alternatives.
    """
    var_list = list(variables) if variables is not None else list(registry.variables())
    choices: List[List[Tuple[int, float]]] = []
    for var in var_list:
        entries = [
            (value, p)
            for value, p in registry.distribution(var).items()
            if include_zero_probability or p > 0.0
        ]
        if not entries:  # all-zero distribution (cannot happen for valid ones)
            entries = list(registry.distribution(var).items())
        choices.append(entries)

    for combo in itertools.product(*choices):
        world = {var: value for var, (value, _) in zip(var_list, combo)}
        probability = 1.0
        for _, (_, p) in zip(var_list, combo):
            probability *= p
        yield world, probability


def world_probability(registry: VariableRegistry, world: Mapping[int, int]) -> float:
    """Probability of a total assignment (product over its variables)."""
    return registry.assignment_probability(world)


def _variables(clauses) -> List[int]:
    return sorted({var for clause in clauses if clause is not None for var, _ in clause})


def rows_with_conditions(urel: URelation) -> List[Tuple[tuple, Optional[tuple]]]:
    """(payload, condition) per row; the condition is None for a
    contradictory row."""
    return [
        (row[: urel.payload_arity], clause)
        for row, clause in zip(urel.relation, row_conditions(urel))
    ]


def in_world(
    urel: URelation, assignment: Mapping[int, int], distinct: bool = False
) -> Relation:
    """The U-relation instantiated in the world given by a total
    assignment: the payload rows whose condition is satisfied."""
    payload_arity = urel.payload_arity
    rows = [
        row[:payload_arity]
        for row, clause in zip(urel.relation, row_conditions(urel))
        if clause is not None and satisfied(clause, assignment)
    ]
    result = Relation(urel.payload_schema, rows)
    return result.distinct() if distinct else result


def normalized(urel: URelation) -> URelation:
    """The rows with a consistent, positive-probability condition, each
    condition re-encoded minimally (sorted, deduplicated, padded)."""
    rows: List[tuple] = []
    clauses = []
    for row, clause in zip(urel.relation, row_conditions(urel)):
        if clause is None or clause_probability(clause, urel.registry) <= 0.0:
            continue
        rows.append(row[: urel.payload_arity])
        clauses.append(clause)
    return URelation.from_conditions(urel.payload_schema, rows, clauses, urel.registry)


def tuple_confidence_by_enumeration(urel: URelation, payload: tuple) -> float:
    """Oracle for ``conf``: the total probability of worlds in which the
    given payload tuple appears at least once."""
    relevant = [
        clause
        for row, clause in zip(urel.relation, row_conditions(urel))
        if clause is not None and row[: urel.payload_arity] == payload
    ]
    if not relevant:
        return 0.0
    total = 0.0
    for world, p in enumerate_worlds(urel.registry, _variables(relevant)):
        if any(satisfied(clause, world) for clause in relevant):
            total += p
    return total


def relation_distribution(
    urel: URelation, distinct: bool = True
) -> List[Tuple[Relation, float]]:
    """The full distribution over world-instantiations of a U-relation.

    Returns (relation, probability) pairs, with equal relations merged.
    Exponential; for tests on small inputs only.
    """
    buckets: List[Tuple[Relation, float]] = []
    variables = _variables(row_conditions(urel))
    for world, p in enumerate_worlds(urel.registry, variables):
        instance = in_world(urel, world, distinct=distinct)
        for i, (existing, acc) in enumerate(buckets):
            if existing == instance:
                buckets[i] = (existing, acc + p)
                break
        else:
            buckets.append((instance, p))
    return buckets


def expected_aggregate_by_enumeration(
    urel: URelation,
    value_position: Optional[int] = None,
) -> float:
    """Oracle for ``esum`` (with a value column) / ``ecount`` (without):
    E[sum or count of the instantiated relation] by world enumeration."""
    conditions = [clause for clause in row_conditions(urel) if clause is not None]
    if not conditions:
        return 0.0
    expected = 0.0
    for world, p in enumerate_worlds(urel.registry, _variables(conditions)):
        instance = in_world(urel, world)
        if value_position is None:
            expected += p * len(instance)
        else:
            expected += p * sum(row[value_position] for row in instance)
    return expected
