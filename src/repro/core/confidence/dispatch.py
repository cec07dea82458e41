"""The cost-based confidence dispatcher.

Section 2.3 presents confidence computation as a *portfolio*: exact
ws-tree decomposition where tractable, SPROUT's safe plans for
hierarchical (tractable) cases, and (ε,δ) Monte Carlo everywhere else.
This module is the piece that actually chooses -- per ``conf()`` group
and per independent lineage component -- which algorithm runs:

1. **closed form** -- ⊥/⊤, a single clause, or pairwise
   variable-disjoint clauses: read the answer off the IR's cached clause
   probabilities (:meth:`~repro.core.lineage.Lineage.closed_form_probability`);
2. **sprout** -- the component is hierarchical (its variables' clause
   sets are laminar): SPROUT-style safe evaluation on the lineage
   (:func:`~repro.core.confidence.sprout.safe_lineage_confidence`),
   polynomial-time and exact;
3. **exact** -- the Koch-Olteanu ws-tree engine, under a *cost budget*
   (``max_subproblems``): still exact, but bounded;
4. **monte-carlo** -- the Karp-Luby estimator under the DKLR driver when
   the budget blows: an (ε,δ)-approximation with the policy's default
   parameters.

Components share no variables, so their results combine by independence:
P(⋁ all) = 1 − ∏(1 − P(componentᵢ)).

Under ``auto`` and ``sprout`` the SQL aggregates ask the array pass first
(:mod:`repro.core.confidence.columnar`): groups whose clauses form a tree
are answered straight from the condition columns, all in one pass, and
never become a :class:`~repro.core.lineage.Lineage`.  The dispatcher sees
the groups that pass declined -- all of them without NumPy or under a
forced ``exact`` / ``monte-carlo``.

The decisions taken are recorded per aggregate call when a
:func:`trace_confidence` scope is active; the SQL ``EXPLAIN`` statement
renders them next to the relational plan fragments, and the
:class:`~repro.db.MayBMS` facade exposes the policy as a tuning knob
(``confidence_strategy`` / ``REPRO_CONF_STRATEGY``).
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.confidence.dklr import approximate_confidence
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.sprout import safe_lineage_confidence
from repro.core.lineage import Lineage, combine_independent
from repro.core.variables import VariableRegistry
from repro.errors import (
    ConfidenceError,
    CostBudgetExceededError,
    UnsafeLineageError,
)

#: Strategy labels, in the order the dispatcher prefers them.
STRATEGY_CLOSED_FORM = "closed-form"
STRATEGY_SPROUT = "sprout"
STRATEGY_EXACT = "exact"
STRATEGY_MONTE_CARLO = "monte-carlo"
#: EXPLAIN's label for groups answered by the array pass, before dispatch.
STRATEGY_VECTORIZED = "sprout[vectorized]"

#: Legal values of the policy/facade strategy knob: "auto" is the cost
#: model; the rest force one algorithm for the whole lineage.
STRATEGY_CHOICES = (
    "auto",
    STRATEGY_SPROUT,
    STRATEGY_EXACT,
    STRATEGY_MONTE_CARLO,
)


@dataclass
class DispatchPolicy:
    """The tuning knobs of the dispatcher.

    - ``strategy``: ``"auto"`` (the cost model) or a forced algorithm
      (``"sprout"`` / ``"exact"`` / ``"monte-carlo"``);
    - ``exact_budget``: maximum ws-tree subproblems per component before
      ``conf()`` falls back to Monte Carlo (None = never fall back);
    - ``epsilon`` / ``delta``: the (ε,δ) parameters of that fallback,
      applied per component with δ split across a lineage's components
      (union bound); ε compounding through recombination makes the
      fallback best-effort -- ``aconf`` always uses its own SQL-given
      parameters on the whole lineage instead, keeping its guarantee.
    """

    strategy: str = "auto"
    exact_budget: Optional[int] = 100_000
    epsilon: float = 0.05
    delta: float = 0.01

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_CHOICES:
            raise ConfidenceError(
                f"unknown confidence strategy {self.strategy!r}; expected "
                f"one of {STRATEGY_CHOICES}"
            )


@dataclass(frozen=True)
class ComponentDecision:
    """What the dispatcher did for one independent lineage component."""

    strategy: str
    probability: float
    clause_count: int
    variable_count: int


@dataclass
class DispatchResult:
    """Probability of one lineage plus the per-component decisions."""

    probability: float
    decisions: Tuple[ComponentDecision, ...]

    def strategy_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for decision in self.decisions:
            counts[decision.strategy] = counts.get(decision.strategy, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# Strategy tracing (the EXPLAIN substrate, mirroring planner.trace_plans).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfidenceEvent:
    """One confidence-computing aggregate call: which strategies ran."""

    aggregate: str  # "conf" | "aconf" | "tconf"
    groups: int
    strategy_counts: Tuple[Tuple[str, int], ...]
    detail: str = ""

    def render(self) -> str:
        strategies = ", ".join(
            f"{name} x{count}" if count != 1 else name
            for name, count in self.strategy_counts
        )
        text = f"{self.aggregate}: {self.groups} group(s) via {strategies or 'nothing'}"
        if self.detail:
            text += f" ({self.detail})"
        return text


class _TraceStack(threading.local):
    """The calling thread's active event buffers: one session's EXPLAIN
    records only its own statements' events (the server runs one thread
    per connection)."""

    def __init__(self) -> None:
        self.buffers: List[List[ConfidenceEvent]] = []


_TRACES = _TraceStack()


@contextmanager
def trace_confidence() -> Iterator[List[ConfidenceEvent]]:
    """Collect a :class:`ConfidenceEvent` per confidence aggregate executed
    in this scope, on this thread; the EXPLAIN statement renders them."""
    buffer: List[ConfidenceEvent] = []
    _TRACES.buffers.append(buffer)
    try:
        yield buffer
    finally:
        _TRACES.buffers.pop()


def tracing_active() -> bool:
    return bool(_TRACES.buffers)


def record_event(event: ConfidenceEvent) -> None:
    for buffer in _TRACES.buffers:
        buffer.append(event)


def record_aggregate(
    aggregate: str,
    results: Sequence[DispatchResult],
    detail: str = "",
    vectorized: int = 0,
) -> None:
    """Summarize one aggregate call into a trace event (no-op when no
    trace is active): the ``vectorized`` groups the array pass answered
    (:mod:`repro.core.confidence.columnar`), counted per group, then the
    dispatch results of the others, counted per component."""
    if not _TRACES.buffers:
        return
    counts: Dict[str, int] = {}
    for result in results:
        for name, n in result.strategy_counts().items():
            counts[name] = counts.get(name, 0) + n
    strategies = sorted(counts.items())
    if vectorized:
        strategies.insert(0, (STRATEGY_VECTORIZED, vectorized))
    record_event(
        ConfidenceEvent(
            aggregate=aggregate,
            groups=len(results) + vectorized,
            strategy_counts=tuple(strategies),
            detail=detail,
        )
    )


# ---------------------------------------------------------------------------
# The dispatcher.
# ---------------------------------------------------------------------------


class ConfidenceDispatcher:
    """Chooses and runs a confidence algorithm per independent component.

    One dispatcher per session: it owns a shared exact engine (whose memo
    amortizes across groups and queries) and the Monte-Carlo RNG (seeded
    by the facade, so approximate results are reproducible).
    """

    def __init__(
        self,
        registry: VariableRegistry,
        policy: Optional[DispatchPolicy] = None,
        rng: Optional[random.Random] = None,
    ):
        self.registry = registry
        self.policy = policy if policy is not None else DispatchPolicy()
        self.rng = rng if rng is not None else random.Random(0)
        self._exact: Optional[ExactConfidenceEngine] = None
        self._budgeted_exact: Optional[ExactConfidenceEngine] = None

    def set_policy(self, policy: DispatchPolicy) -> None:
        """Swap the policy (the facade's tuning knob); engines built under
        the old policy's budget are discarded."""
        self.policy = policy
        self._budgeted_exact = None

    # -- engines (lazy, shared memoization) ---------------------------------
    def _exact_engine(self) -> ExactConfidenceEngine:
        if self._exact is None:
            self._exact = ExactConfidenceEngine(self.registry)
        return self._exact

    def _budgeted_engine(self) -> ExactConfidenceEngine:
        if self._budgeted_exact is None:
            self._budgeted_exact = ExactConfidenceEngine(
                self.registry, max_subproblems=self.policy.exact_budget
            )
        return self._budgeted_exact

    # -- public API ---------------------------------------------------------
    def probability(self, lineage: Lineage) -> DispatchResult:
        """P(lineage) with per-component strategy choice (the ``conf()``
        semantics: exact unless the exact budget blows, in which case the
        affected component degrades to an (ε,δ) estimate)."""
        lineage = lineage.simplified()
        strategy = self.policy.strategy
        if strategy != "auto":
            return self._forced(lineage, strategy)

        # Whole-lineage closed form first: the common fully-independent
        # case (e.g. tuple-independent lineage) finishes here without
        # materializing per-clause components.
        closed = lineage.closed_form_probability()
        if closed is not None:
            stats = lineage.stats(test_hierarchy=False)
            return DispatchResult(
                closed,
                (
                    ComponentDecision(
                        STRATEGY_CLOSED_FORM,
                        closed,
                        stats.clause_count,
                        stats.variable_count,
                    ),
                ),
            )
        components = lineage.components()
        # Union bound: splitting δ across components keeps the total
        # chance of any Monte-Carlo component exceeding its ε bound below
        # the policy's δ.  (Per-component relative errors can still
        # compound through the 1 − ∏(1 − pᵢ) recombination; conf()'s
        # budget fallback is best-effort by design -- aconf() runs one
        # whole-lineage estimation precisely to keep the strict
        # guarantee.)
        delta = self.policy.delta / max(1, len(components))
        decisions = [
            self._dispatch_component(component, delta)
            for component in components
        ]
        probability = combine_independent(d.probability for d in decisions)
        return DispatchResult(probability, tuple(decisions))

    def approximate(
        self,
        lineage: Lineage,
        epsilon: float,
        delta: float,
        unit_seed: Optional[int] = None,
    ) -> DispatchResult:
        """The ``aconf(ε, δ)`` semantics: any estimate p̂ with
        P(|p̂ − p| > ε·p) < δ.

        Exact answers satisfy the guarantee trivially, so cheap exact
        routes are taken when available: closed forms always, SPROUT safe
        evaluation when the lineage is known hierarchical.  Otherwise the
        whole lineage goes to the DKLR-driven Karp-Luby estimator (whole,
        not per component: the (ε,δ) guarantee is proved for a single
        estimator run and does not survive per-component recombination).

        ``unit_seed`` pins the Monte-Carlo route to a private deterministic
        stream (see :func:`approximate_confidence`); the exact routes are
        deterministic regardless, so a fresh dispatcher and the store's
        long-lived one return the same answer for the same (lineage, seed).
        """
        lineage = lineage.simplified()
        stats = lineage.stats(test_hierarchy=False)
        decision_shape = (stats.clause_count, stats.variable_count)
        if self.policy.strategy in ("auto", STRATEGY_SPROUT):
            closed = lineage.closed_form_probability()
            if closed is not None:
                return DispatchResult(
                    closed,
                    (ComponentDecision(STRATEGY_CLOSED_FORM, closed, *decision_shape),),
                )
            try:
                p = safe_lineage_confidence(lineage)
                return DispatchResult(
                    p, (ComponentDecision(STRATEGY_SPROUT, p, *decision_shape),)
                )
            except UnsafeLineageError:
                # A forced "sprout" policy means *only* safe plans, for
                # aconf as for conf; only "auto" may fall through.
                if self.policy.strategy == STRATEGY_SPROUT:
                    raise
        if self.policy.strategy == STRATEGY_EXACT:
            p = self._exact_engine().probability(lineage)
            return DispatchResult(
                p, (ComponentDecision(STRATEGY_EXACT, p, *decision_shape),)
            )
        result = approximate_confidence(
            lineage, self.registry, epsilon, delta, self.rng, unit_seed=unit_seed
        )
        return DispatchResult(
            result.estimate,
            (
                ComponentDecision(
                    STRATEGY_MONTE_CARLO, result.estimate, *decision_shape
                ),
            ),
        )

    def group_probabilities(
        self, lineages: Sequence[Lineage]
    ) -> List[DispatchResult]:
        return [self.probability(lineage) for lineage in lineages]

    # -- internals ----------------------------------------------------------
    def _forced(self, lineage: Lineage, strategy: str) -> DispatchResult:
        stats = lineage.stats(test_hierarchy=False)
        shape = (stats.clause_count, stats.variable_count)
        if strategy == STRATEGY_EXACT:
            p = self._exact_engine().probability(lineage)
        elif strategy == STRATEGY_SPROUT:
            p = safe_lineage_confidence(lineage)  # raises UnsafeLineageError
        else:  # monte-carlo
            if lineage.is_false or lineage.is_true:
                p = 0.0 if lineage.is_false else 1.0
            else:
                p = approximate_confidence(
                    lineage,
                    self.registry,
                    self.policy.epsilon,
                    self.policy.delta,
                    self.rng,
                ).estimate
        return DispatchResult(p, (ComponentDecision(strategy, p, *shape),))

    def _dispatch_component(
        self, component: Lineage, delta: Optional[float] = None
    ) -> ComponentDecision:
        stats = component.stats(test_hierarchy=False)
        shape = (stats.clause_count, stats.variable_count)

        closed = component.closed_form_probability()
        if closed is not None:
            return ComponentDecision(STRATEGY_CLOSED_FORM, closed, *shape)

        # Hierarchical components run SPROUT-style safe evaluation:
        # polynomial and exact.  Safety is probed constructively rather
        # than pre-tested (the O(V^2) laminarity test would dominate on
        # the very lineages safe evaluation makes cheap): the evaluator
        # raises on the first root-less component, typically at the top.
        try:
            p = safe_lineage_confidence(component, connected=True)
            return ComponentDecision(STRATEGY_SPROUT, p, *shape)
        except UnsafeLineageError:
            pass

        try:
            p = self._budgeted_engine().probability(component)
            return ComponentDecision(STRATEGY_EXACT, p, *shape)
        except CostBudgetExceededError:
            pass

        result = approximate_confidence(
            component,
            self.registry,
            self.policy.epsilon,
            delta if delta is not None else self.policy.delta,
            self.rng,
        )
        return ComponentDecision(STRATEGY_MONTE_CARLO, result.estimate, *shape)
