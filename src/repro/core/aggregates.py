"""The uncertainty-aware aggregates of Section 2.2.

- ``conf`` / ``aconf(ε,δ)``: per group of result tuples, the exact or
  (ε,δ)-approximate probability that the group's tuple appears;
- ``tconf``: per *row*, the marginal probability of its own condition, in
  isolation from duplicates;
- ``possible``: the distinct possible tuples (probability > 0);
- ``esum`` / ``ecount``: expected sum / count across the worlds.  These
  are efficient despite confidence being #P-hard: by linearity of
  expectation, E[Σ_t v(t)·1(t present)] = Σ_t v(t)·P(t present), one
  marginal per row, no DNF combination at all;
- ``argmax`` is a certain-data aggregate and lives in the engine
  (:class:`repro.engine.algebra.AggregateSpec`).

Standard SQL aggregates on uncertain inputs are rejected by the SQL
analyzer (see :class:`repro.errors.UncertainAggregateError`), matching the
paper: "these aggregates will produce exponentially many different
numerical results in the various possible worlds".
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.confidence import dispatch
from repro.core.confidence.columnar import hierarchical_confidences
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.core.confidence.dklr import aconf_unit_seed
from repro.core.lineage import group_lineages
from repro.core.urelation import URelation
from repro.engine.physical import key_rows
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import FLOAT


def _group_rows(
    urel: URelation, positions: Sequence[int]
) -> Tuple[List[tuple], List[List[int]]]:
    """Group row indexes by the projection onto the columns at
    ``positions``: (projected row per group, row indexes per group), in
    order of first appearance.  Works off the relation's cached column
    view: only the grouping columns are touched, not whole rows.  NULLs
    form one group, and so do NaNs (:func:`~repro.engine.physical.key_rows`).
    """
    groups: Dict[tuple, List[int]] = {}
    relation = urel.relation
    columns = relation.columns() if positions else ()
    projected_iter = key_rows(
        [columns[p] for p in positions],
        [relation.schema[p].type for p in positions],
        len(relation),
    )
    for index, projected in enumerate(projected_iter):
        indexes = groups.get(projected)
        if indexes is None:
            indexes = groups[projected] = []
        indexes.append(index)
    return list(groups), list(groups.values())


def _groups(
    urel: URelation, group_columns: Sequence[str]
) -> Tuple[Tuple[int, ...], List[tuple], List[List[int]]]:
    """(group column positions, projected row per group, row indexes per
    group).  The grouping of a base-table snapshot is kept for the life
    of its table version (:meth:`Relation.derived`; the MVCC pin chain
    hands every statement pinned to a version the same relation object);
    a derived relation dies with its statement and is grouped per use.
    """
    positions = tuple(urel.relation.schema.resolve(name) for name in group_columns)
    projections, row_groups = urel.relation.derived(
        ("groups", positions), lambda: _group_rows(urel, positions)
    )
    return positions, projections, row_groups


def _array_pass(
    urel: URelation, row_groups: Sequence[Sequence[int]], policy: DispatchPolicy
) -> Tuple[List[Optional[float]], List[int]]:
    """What :func:`hierarchical_confidences` answers before any clause
    is decoded: (probability per group, ordinals of the groups it left to
    the dispatcher).  It leaves all of them when the policy forces the
    exact or the Monte-Carlo engine."""
    if policy.strategy not in ("auto", dispatch.STRATEGY_SPROUT):
        return [None] * len(row_groups), list(range(len(row_groups)))
    probabilities, answered = hierarchical_confidences(urel, row_groups)
    return probabilities.tolist(), (~answered).nonzero()[0].tolist()


def _result(
    urel: URelation,
    positions: Sequence[int],
    result_name: str,
    projections: Sequence[tuple],
    values: Sequence[Optional[float]],
) -> Relation:
    """One row per group, or the single row ``(0.0,)`` for an ungrouped
    aggregate over no rows."""
    rows = [projected + (value,) for projected, value in zip(projections, values)]
    if not positions and not rows:
        rows.append((0.0,))
    schema = urel.relation.schema
    columns = [Column(schema[p].name, schema[p].type) for p in positions]
    columns.append(Column(result_name, FLOAT))
    return Relation(Schema(columns), rows)


def conf(
    urel: URelation,
    group_columns: Sequence[str] = (),
    result_name: str = "conf",
    dispatcher: Optional[ConfidenceDispatcher] = None,
) -> Relation:
    """Confidence computation (the ``conf()`` aggregate).

    For each distinct value of ``group_columns``, the probability that at
    least one tuple with that value is present: the probability of the
    disjunction of the group's row conditions.  With no group columns the
    result is a single row -- the probability that the relation is
    non-empty.

    Groups whose clauses form a tree are answered straight from the
    condition columns, all at once
    (:func:`~repro.core.confidence.columnar.hierarchical_confidences`).
    Every other group's clauses
    (:func:`~repro.core.lineage.group_lineages`) go through the
    cost-based dispatcher (:mod:`repro.core.confidence.dispatch`).  Under
    ``auto`` it splits them into independent components in one more
    array pass, which answers single clauses in closed form, trees by
    SPROUT's reduction, and crossing components whose variables take one
    value each by Shannon expansion on a small cutset, every world a
    two-level tree (Jha, Olteanu and Suciu, EDBT 2010); only the other
    components take the exact ws-tree recursion, or Monte Carlo when it
    exceeds its budget.  A forced strategy runs its algorithm on every
    group.
    """
    positions, projections, row_groups = _groups(urel, group_columns)
    if dispatcher is None:
        dispatcher = ConfidenceDispatcher()
    probabilities, pending = _array_pass(urel, row_groups, dispatcher.policy)
    results = []
    # No call at all for a relation the array pass answered whole: the
    # traced run counts the groups that reach the dispatcher.
    if pending:
        groups = group_lineages(urel, [row_groups[g] for g in pending])
        results = dispatcher.group_probabilities(groups, urel.registry)
    for g, result in zip(pending, results):
        probabilities[g] = result.probability
    dispatch.record_aggregate(
        "conf", results, vectorized=len(row_groups) - len(pending)
    )
    return _result(urel, positions, result_name, projections, probabilities)


def aconf(
    urel: URelation,
    epsilon: float,
    delta: float,
    group_columns: Sequence[str] = (),
    result_name: str = "aconf",
    dispatcher: Optional[ConfidenceDispatcher] = None,
    *,
    base_seed: int,
) -> Relation:
    """Approximate confidence: ``aconf(ε, δ)``.

    Per group, an estimate p̂ with P(|p̂ − p| > ε·p) < δ.  Exact answers
    satisfy the guarantee trivially, so the shortcuts of ``conf()`` are
    taken first (the array pass over tree-shaped groups, then the
    dispatcher's closed forms and safe evaluation); everything else runs
    the Karp-Luby estimator under the DKLR optimal Monte-Carlo driver.

    Each group's Monte-Carlo run is pinned to its own deterministic
    stream, derived from ``base_seed`` (the store/session seed, wired by
    the SQL executor) and the group's ordinal via
    :func:`~repro.core.confidence.dklr.aconf_unit_seed`, so the answer is
    a pure function of (seed, data): the same store seed gives the same
    values in any session, and a group's stream does not depend on which
    other groups the array pass answered.
    """
    if dispatcher is None:
        dispatcher = ConfidenceDispatcher()
    positions, projections, row_groups = _groups(urel, group_columns)
    probabilities, pending = _array_pass(urel, row_groups, dispatcher.policy)
    results = []
    if pending:
        groups = group_lineages(urel, [row_groups[g] for g in pending])
        results = [
            dispatcher.approximate(
                clauses,
                urel.registry,
                epsilon,
                delta,
                unit_seed=aconf_unit_seed(base_seed, ordinal),
            )
            for ordinal, clauses in zip(pending, groups)
        ]
    for g, result in zip(pending, results):
        probabilities[g] = result.probability
    dispatch.record_aggregate(
        "aconf",
        results,
        detail=f"epsilon={epsilon:g}, delta={delta:g}",
        vectorized=len(row_groups) - len(pending),
    )
    return _result(urel, positions, result_name, projections, probabilities)


def tconf(urel: URelation, result_name: str = "tconf") -> Relation:
    """Per-row marginal probability ("in isolation from the other
    (possibly duplicate) tuples"): payload columns plus the probability of
    the row's own condition.

    Marginals are atom-product closed forms read straight off the
    condition columns -- no dispatch decision to make, but the strategy
    trace still records the call so EXPLAIN shows every confidence
    computation of a query.
    """
    columns = list(urel.payload_schema) + [Column(result_name, FLOAT)]
    n = len(urel.relation)
    payload = urel.relation.columns()[: urel.payload_arity]
    if dispatch.tracing_active():
        dispatch.record_event(
            dispatch.ConfidenceEvent(
                aggregate="tconf",
                groups=n,
                strategy_counts=(("marginal", n),),
            )
        )
    return Relation.from_columns(
        Schema(columns), payload + (urel.condition_probabilities(),), n
    )


def possible(urel: URelation) -> Relation:
    """The ``possible`` construct: distinct tuples with probability > 0.

    Equivalent to filtering ``tconf > 0`` and deduplicating, which is how
    MayBMS implements it by rewriting (Section 2.4).
    """
    return urel.possible_payloads()


def esum(
    urel: URelation,
    value_column: str,
    group_columns: Sequence[str] = (),
    result_name: str = "esum",
) -> Relation:
    """Expected sum: Σ_rows value(row) · P(condition(row)) per group.

    Linear in the input -- no #P-hard machinery -- by linearity of
    expectation (Section 2.2's justification for allowing esum/ecount
    while forbidding plain sum/count on uncertain data).  NULL values
    contribute nothing, mirroring SQL's sum.
    """
    value_position = urel.relation.schema.resolve(value_column)
    return _expectation(urel, value_position, group_columns, result_name)


def ecount(
    urel: URelation,
    group_columns: Sequence[str] = (),
    result_name: str = "ecount",
) -> Relation:
    """Expected count: Σ_rows P(condition(row)) per group."""
    return _expectation(urel, None, group_columns, result_name)


def _expectation(
    urel: URelation,
    value_position: Optional[int],
    group_columns: Sequence[str],
    result_name: str,
) -> Relation:
    """Per-group expectations.  Sums use exact accumulation
    (``math.fsum``), so a group's total is a function of its term
    multiset alone, whatever the row order."""
    positions, projections, row_groups = _groups(urel, group_columns)
    weights = urel.condition_probabilities()
    if value_position is None:
        totals = [math.fsum(weights[i] for i in indexes) for indexes in row_groups]
    else:
        value_column = urel.relation.columns()[value_position]
        totals = [
            math.fsum(
                weights[i] * value_column[i]
                for i in indexes
                if value_column[i] is not None
            )
            for indexes in row_groups
        ]
    return _result(urel, positions, result_name, projections, totals)
