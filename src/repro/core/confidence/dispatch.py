"""The cost-based confidence dispatcher.

Section 2.3 presents confidence computation as a *portfolio*: exact
ws-tree decomposition where tractable, SPROUT's safe plans for
hierarchical (tractable) cases, and (ε,δ) Monte Carlo everywhere else.
This module is the piece that actually chooses -- per ``conf()`` group
and per independent lineage component -- which algorithm runs.  A whole
lineage whose clauses are pairwise variable-disjoint is answered in
closed form (:meth:`~repro.core.lineage.Lineage.closed_form_probability`);
otherwise each component takes one call of the exact ws-tree recursion
(:mod:`repro.core.confidence.exact`), which labels what it did:

1. **closed form** -- the component is a single clause;
2. **sprout** -- every elimination was on a root variable: SPROUT's safe
   plan for a hierarchical component, polynomial-time and exact;
3. **exact** -- a non-root elimination happened: the Koch-Olteanu
   ws-tree under a *cost budget* (``exact_budget`` subproblems below the
   first non-root elimination): still exact, but bounded;
4. **monte-carlo** -- the Karp-Luby estimator under the DKLR driver when
   the budget blows: an (ε,δ)-approximation with the policy's default
   parameters.

Components share no variables, so their results combine by independence:
P(⋁ all) = 1 − ∏(1 − P(componentᵢ)).  One engine, and so one ws-tree
memo, serves one ``group_probabilities`` / ``approximate`` call -- one
aggregate of one statement; the dispatcher itself keeps no per-statement
state.

Under ``auto`` and ``sprout`` the SQL aggregates ask the array pass first
(:mod:`repro.core.confidence.columnar`): groups whose clauses form a tree
are answered straight from the condition columns, all in one pass, and
never become a :class:`~repro.core.lineage.Lineage`.  The dispatcher sees
the groups that pass declined -- all of them under a forced ``exact`` /
``monte-carlo``, or when the relation is below the array kernels' size
threshold.

The decisions taken are recorded per aggregate call when a
:func:`trace_confidence` scope is active; the SQL ``EXPLAIN`` statement
renders them next to the relational plan fragments (with the call's
ws-tree subproblem and memo-hit counts when the recursion expanded), and the
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
from repro.core.confidence.exact import (
    LABELS,
    ExactConfidenceEngine,
    ExactStatistics,
)
from repro.core.lineage import Lineage, combine_independent
from repro.core.variables import VariableRegistry
from repro.errors import (
    ConfidenceError,
    CostBudgetExceededError,
    UnsafeLineageError,
)

#: Strategy labels, in the order the dispatcher prefers them; the first
#: three are the exact engine's labels.
STRATEGY_CLOSED_FORM, STRATEGY_SPROUT, STRATEGY_EXACT = LABELS
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
    - ``exact_budget``: maximum ws-tree subproblems per component below
      a non-root elimination before ``conf()`` falls back to Monte Carlo
      (None = never fall back; a hierarchical component never does);
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
    """Probability of one lineage plus the per-component decisions, and
    the statistics of the ws-tree engine of the call that produced it
    (one object shared by every result of that call)."""

    probability: float
    decisions: Tuple[ComponentDecision, ...]
    ws_tree: Optional[ExactStatistics] = None

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
    """One confidence-computing aggregate call: which strategies ran, and
    (subproblems, memo hits) of its ws-tree engines when they expanded
    anything."""

    aggregate: str  # "conf" | "aconf" | "tconf"
    groups: int
    strategy_counts: Tuple[Tuple[str, int], ...]
    detail: str = ""
    ws_tree: Optional[Tuple[int, int]] = None

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
    engines: Dict[int, ExactStatistics] = {}
    for result in results:
        for name, n in result.strategy_counts().items():
            counts[name] = counts.get(name, 0) + n
        if result.ws_tree is not None:
            engines[id(result.ws_tree)] = result.ws_tree
    strategies = sorted(counts.items())
    if vectorized:
        strategies.insert(0, (STRATEGY_VECTORIZED, vectorized))
    ws_tree = None
    if any(stats.eliminations for stats in engines.values()):
        ws_tree = (
            sum(stats.subproblems for stats in engines.values()),
            sum(stats.memo_hits for stats in engines.values()),
        )
    record_event(
        ConfidenceEvent(
            aggregate=aggregate,
            groups=len(results) + vectorized,
            strategy_counts=tuple(strategies),
            detail=detail,
            ws_tree=ws_tree,
        )
    )


# ---------------------------------------------------------------------------
# The dispatcher.
# ---------------------------------------------------------------------------


class ConfidenceDispatcher:
    """Chooses and runs a confidence algorithm per independent component.

    One dispatcher per session: it owns the policy and the Monte-Carlo RNG
    (seeded by the facade, so approximate results are reproducible).  Each
    call builds its own exact engine, whose memo serves that call's groups
    and components and goes with it.  Distributions come from the registry
    of the lineage's arena -- the one its U-relation is bound to, which
    may be a statement's scope -- never from the session's.
    """

    def __init__(
        self,
        policy: Optional[DispatchPolicy] = None,
        rng: Optional[random.Random] = None,
    ):
        self.policy = policy if policy is not None else DispatchPolicy()
        self.rng = rng if rng is not None else random.Random(0)

    def set_policy(self, policy: DispatchPolicy) -> None:
        """Swap the policy (the facade's tuning knob)."""
        self.policy = policy

    # -- public API ---------------------------------------------------------
    def probability(self, lineage: Lineage) -> DispatchResult:
        """P(lineage) with per-component strategy choice (the ``conf()``
        semantics: exact unless the exact budget blows, in which case the
        affected component degrades to an (ε,δ) estimate)."""
        return self._probability(lineage, self._engine(lineage.arena.registry))

    def group_probabilities(
        self, lineages: Sequence[Lineage]
    ) -> List[DispatchResult]:
        """:meth:`probability` of each lineage, sharing one ws-tree memo."""
        if not lineages:
            return []
        engine = self._engine(lineages[0].arena.registry)
        return [self._probability(lineage, engine) for lineage in lineages]

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
        routes are taken when available: closed forms always, the ws-tree
        recursion when it needs root eliminations only (SPROUT's safe
        plan).  Otherwise the whole lineage goes to the DKLR-driven
        Karp-Luby estimator (whole, not per component: the (ε,δ)
        guarantee is proved for a single estimator run and does not
        survive per-component recombination).

        ``unit_seed`` pins the Monte-Carlo route to a private deterministic
        stream (see :func:`approximate_confidence`); the exact routes are
        deterministic regardless, so a fresh dispatcher and the store's
        long-lived one return the same answer for the same (lineage, seed).
        """
        lineage = lineage.simplified()
        stats = lineage.stats(test_hierarchy=False)
        decision_shape = (stats.clause_count, stats.variable_count)
        strategy = self.policy.strategy
        registry = lineage.arena.registry
        engine = ExactConfidenceEngine(registry)
        if strategy in ("auto", STRATEGY_SPROUT):
            closed = lineage.closed_form_probability()
            if closed is not None:
                return DispatchResult(
                    closed,
                    (ComponentDecision(STRATEGY_CLOSED_FORM, closed, *decision_shape),),
                )
            try:
                p = engine.probability(lineage, roots_only=True)
                return DispatchResult(
                    p,
                    (ComponentDecision(STRATEGY_SPROUT, p, *decision_shape),),
                    engine.statistics,
                )
            except UnsafeLineageError:
                # A forced "sprout" policy means *only* safe plans, for
                # aconf as for conf; only "auto" may fall through.
                if strategy == STRATEGY_SPROUT:
                    raise
        if strategy == STRATEGY_EXACT:
            p = engine.probability(lineage)
            return DispatchResult(
                p,
                (ComponentDecision(STRATEGY_EXACT, p, *decision_shape),),
                engine.statistics,
            )
        result = approximate_confidence(
            lineage, registry, epsilon, delta, self.rng, unit_seed=unit_seed
        )
        return DispatchResult(
            result.estimate,
            (
                ComponentDecision(
                    STRATEGY_MONTE_CARLO, result.estimate, *decision_shape
                ),
            ),
        )

    # -- internals ----------------------------------------------------------
    def _engine(self, registry: VariableRegistry) -> ExactConfidenceEngine:
        """The exact engine of one call; only ``auto`` has a budget."""
        budget = self.policy.exact_budget if self.policy.strategy == "auto" else None
        return ExactConfidenceEngine(registry, max_subproblems=budget)

    def _probability(
        self, lineage: Lineage, engine: ExactConfidenceEngine
    ) -> DispatchResult:
        lineage = lineage.simplified()
        strategy = self.policy.strategy
        if strategy != "auto":
            return self._forced(lineage, strategy, engine)

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
            self._dispatch_component(component, delta, engine)
            for component in components
        ]
        probability = combine_independent(d.probability for d in decisions)
        return DispatchResult(probability, tuple(decisions), engine.statistics)

    def _forced(
        self, lineage: Lineage, strategy: str, engine: ExactConfidenceEngine
    ) -> DispatchResult:
        stats = lineage.stats(test_hierarchy=False)
        shape = (stats.clause_count, stats.variable_count)
        if strategy == STRATEGY_MONTE_CARLO:
            if lineage.is_false or lineage.is_true:
                p = 0.0 if lineage.is_false else 1.0
            else:
                p = approximate_confidence(
                    lineage,
                    engine.registry,
                    self.policy.epsilon,
                    self.policy.delta,
                    self.rng,
                ).estimate
            return DispatchResult(p, (ComponentDecision(strategy, p, *shape),))
        # Forced sprout raises UnsafeLineageError on a non-root elimination.
        p = engine.probability(lineage, roots_only=strategy == STRATEGY_SPROUT)
        return DispatchResult(
            p, (ComponentDecision(strategy, p, *shape),), engine.statistics
        )

    def _dispatch_component(
        self, component: Lineage, delta: float, engine: ExactConfidenceEngine
    ) -> ComponentDecision:
        stats = component.stats(test_hierarchy=False)
        shape = (stats.clause_count, stats.variable_count)
        # One ws-tree call labels itself closed-form / sprout / exact.
        # Safety is found constructively rather than pre-tested (the
        # O(V^2) laminarity test would dominate on the very lineages safe
        # evaluation makes cheap).
        try:
            p = engine.probability(component)
            return ComponentDecision(engine.label, p, *shape)
        except CostBudgetExceededError:
            pass
        result = approximate_confidence(
            component, engine.registry, self.policy.epsilon, delta, self.rng
        )
        return ComponentDecision(STRATEGY_MONTE_CARLO, result.estimate, *shape)
