"""The cost-based confidence dispatcher.

Section 2.3 presents confidence computation as a *portfolio*: exact
ws-tree decomposition where tractable, SPROUT's safe plans for
hierarchical (tractable) cases, and (ε,δ) Monte Carlo everywhere else.
This module is the piece that actually chooses -- per ``conf()`` group
and per independent component -- which algorithm runs.

Under ``auto`` and ``sprout`` the SQL aggregates ask the array pass first
(:func:`~repro.core.confidence.columnar.hierarchical_confidences`), which
answers the groups whose clauses form a tree.
:meth:`ConfidenceDispatcher.group_probabilities` gets the others -- all
groups under a forced ``exact`` / ``monte-carlo`` -- as canonical clauses
(:func:`~repro.core.lineage.group_lineages`).  Under ``auto`` one array
pass over all of them
(:func:`~repro.core.confidence.columnar.split_components`) drops
zero-probability and duplicate clauses, answers a group of pairwise
variable-disjoint clauses in closed form, and otherwise splits each group
into independent components, in order of their smallest variable id.  A
component is labelled by what it takes:

1. **closed form** -- the component is a single clause: its atom product;
2. **sprout** -- its clauses form a tree: SPROUT's safe plan, evaluated
   by the array reduction of the group pass, exact;
3. **exact** -- a crossing component whose variables each take one value
   is conditioned on a small cutset in the same array pass, as Jha,
   Olteanu and Suciu bridge intensional and extensional evaluation (EDBT
   2010): Shannon expansion on the cutset S, every world a two-level
   tree, when its clause count times 2^|S| is at most
   :data:`~repro.core.confidence.columnar.CONDITIONING_ROWS` and 2^|S| at
   most ``exact_budget``.  Such a component is non-hierarchical, and the
   recursion would label it ``exact`` too.  Anything else goes to the
   Koch-Olteanu ws-tree recursion (:mod:`repro.core.confidence.exact`),
   which labels what it did: a non-root elimination makes it ``exact``
   (a hierarchical component whose variables take several values can
   still come out ``sprout``).  It runs under a *cost budget*
   (``exact_budget`` subproblems below the first non-root elimination):
   still exact, but bounded;
4. **monte-carlo** -- the Karp-Luby estimator under the DKLR driver when
   the budget blows: an (ε,δ)-approximation with the policy's default
   parameters, on that component's clauses only.

A group whose clauses have more than one width (only then can one clause
absorb another) takes the per-group route instead: it is simplified
(:func:`~repro.core.lineage.simplify_clauses`), closed as a whole when
its clauses are pairwise variable-disjoint, and otherwise split by
:func:`~repro.core.confidence.exact.components`, every component one
ws-tree call.

Components share no variables, so their results combine by independence:
P(⋁ all) = 1 − ∏(1 − P(componentᵢ)).  One engine, and so one ws-tree
memo, serves one ``group_probabilities`` / ``approximate`` call -- one
aggregate of one statement; the dispatcher itself keeps no per-statement
state.  ``aconf()`` goes through :meth:`ConfidenceDispatcher.approximate`
once per group, with the same clauses.

The decisions taken are recorded per aggregate call when a
:func:`trace_confidence` scope is active; the SQL ``EXPLAIN`` statement
renders them next to the relational plan fragments (with the call's
ws-tree subproblem and memo-hit counts, over the components the recursion
answered -- not those conditioned in arrays -- when it expanded
anything), and the
:class:`~repro.db.MayBMS` facade exposes the policy as a tuning knob
(``MayBMS(confidence_strategy=...)``).
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.confidence.columnar import CLOSED, split_components
from repro.core.confidence.dklr import approximate_confidence
from repro.core.confidence.exact import (
    LABELS,
    ExactConfidenceEngine,
    ExactStatistics,
    components,
)
from repro.core.lineage import (
    Clause,
    closed_form,
    combine_independent,
    simplify_clauses,
)
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
    the groups' U-relation is bound to, which may be a statement's scope,
    never from the session's.
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
    def group_probabilities(
        self, groups: Sequence[Sequence[Clause]], registry: VariableRegistry
    ) -> List[DispatchResult]:
        """P(⋁ clauses) of each group with per-component strategy choice
        (the ``conf()`` semantics: exact unless the exact budget blows, in
        which case the affected component degrades to an (ε,δ) estimate),
        sharing one ws-tree memo.  A group is the canonical clauses of its
        rows, in row order, over the variables of ``registry``.

        Under ``auto`` one array pass
        (:func:`~repro.core.confidence.columnar.split_components`) splits
        the groups whose clauses have one width into components and
        answers the single clauses, the trees and the crossing
        components it can condition on a small cutset within the exact
        budget; only the other components reach the ws-tree, and only
        groups of mixed widths take the per-group route."""
        engine = self._engine(registry)
        if self.policy.strategy != "auto":
            engine.load(chain.from_iterable(groups))
            return [self._forced(clauses, engine) for clauses in groups]
        split = split_components(groups, registry, self.policy.exact_budget)
        engine.load(
            chain(
                chain.from_iterable(filter(None, split.declined)),
                chain.from_iterable(groups[g] for g in split.whole),
            )
        )
        bounds = np.searchsorted(split.group, np.arange(len(groups) + 1)).tolist()
        entries = list(
            zip(
                split.kind.tolist(),
                split.probability.tolist(),
                split.clauses.tolist(),
                split.variables.tolist(),
                split.declined,
            )
        )
        whole = set(split.whole)
        results = []
        for g, clauses in enumerate(groups):
            if g in whole:
                results.append(self._auto(clauses, engine))
                continue
            parts = entries[bounds[g] : bounds[g + 1]]
            kind, p, count, variables, _ = parts[0]
            if len(parts) == 1 and kind == CLOSED:
                decision = ComponentDecision(STRATEGY_CLOSED_FORM, p, count, variables)
                results.append(DispatchResult(p, (decision,)))
                continue
            # δ split over all of the group's components, as in _auto.
            delta = self.policy.delta / len(parts)
            decisions = tuple(
                ComponentDecision(LABELS[kind], p, count, variables)
                if part is None
                else self._component(part, variables, delta, engine)
                for kind, p, count, variables, part in parts
            )
            results.append(
                DispatchResult(
                    combine_independent(d.probability for d in decisions),
                    decisions,
                    engine.statistics,
                )
            )
        return results

    def approximate(
        self,
        clauses: Sequence[Clause],
        registry: VariableRegistry,
        epsilon: float,
        delta: float,
        unit_seed: Optional[int] = None,
    ) -> DispatchResult:
        """The ``aconf(ε, δ)`` semantics for one group of canonical
        clauses: any estimate p̂ with P(|p̂ − p| > ε·p) < δ.

        Exact answers satisfy the guarantee trivially, so cheap exact
        routes are taken when available: closed forms always, the ws-tree
        recursion when it needs root eliminations only (SPROUT's safe
        plan).  Otherwise the whole group goes to the DKLR-driven
        Karp-Luby estimator (whole, not per component: the (ε,δ)
        guarantee is proved for a single estimator run and does not
        survive per-component recombination).

        ``unit_seed`` pins the Monte-Carlo route to a private deterministic
        stream (see :func:`approximate_confidence`); the exact routes are
        deterministic regardless, so a fresh dispatcher and the store's
        long-lived one return the same answer for the same (clauses, seed).
        """
        engine = ExactConfidenceEngine(registry)
        engine.load(clauses)
        clauses = simplify_clauses(clauses, engine.clause_probability)
        shape = (len(clauses), _variable_count(clauses))
        strategy = self.policy.strategy
        if strategy in ("auto", STRATEGY_SPROUT):
            closed = closed_form(clauses, engine.clause_probability)
            if closed is not None:
                return DispatchResult(
                    closed, (ComponentDecision(STRATEGY_CLOSED_FORM, closed, *shape),)
                )
            try:
                p = engine.probability(clauses, roots_only=True)
                return DispatchResult(
                    p,
                    (ComponentDecision(STRATEGY_SPROUT, p, *shape),),
                    engine.statistics,
                )
            except UnsafeLineageError:
                # A forced "sprout" policy means *only* safe plans, for
                # aconf as for conf; only "auto" may fall through.
                if strategy == STRATEGY_SPROUT:
                    raise
        if strategy == STRATEGY_EXACT:
            p = engine.probability(clauses)
            return DispatchResult(
                p, (ComponentDecision(STRATEGY_EXACT, p, *shape),), engine.statistics
            )
        estimate = approximate_confidence(
            clauses, registry, epsilon, delta, self.rng, unit_seed=unit_seed
        ).estimate
        return DispatchResult(
            estimate, (ComponentDecision(STRATEGY_MONTE_CARLO, estimate, *shape),)
        )

    # -- internals ----------------------------------------------------------
    def _engine(self, registry: VariableRegistry) -> ExactConfidenceEngine:
        """The exact engine of one call; only ``auto`` has a budget."""
        budget = self.policy.exact_budget if self.policy.strategy == "auto" else None
        return ExactConfidenceEngine(registry, max_subproblems=budget)

    def _auto(
        self, clauses: Sequence[Clause], engine: ExactConfidenceEngine
    ) -> DispatchResult:
        clauses = simplify_clauses(clauses, engine.clause_probability)
        # Whole-group closed form first: the common fully-independent
        # case (e.g. tuple-independent lineage) finishes here without a
        # split into components.
        closed = closed_form(clauses, engine.clause_probability)
        if closed is not None:
            decision = ComponentDecision(
                STRATEGY_CLOSED_FORM, closed, len(clauses), _variable_count(clauses)
            )
            return DispatchResult(closed, (decision,))
        parts = components(clauses)
        # Union bound: splitting δ across components keeps the total
        # chance of any Monte-Carlo component exceeding its ε bound below
        # the policy's δ.  (Per-component relative errors can still
        # compound through the 1 − ∏(1 − pᵢ) recombination; conf()'s
        # budget fallback is best-effort by design -- aconf() runs one
        # whole-lineage estimation precisely to keep the strict
        # guarantee.)
        delta = self.policy.delta / len(parts)
        decisions = [
            self._component(part, count, delta, engine) for part, count in parts
        ]
        return DispatchResult(
            combine_independent(d.probability for d in decisions),
            tuple(decisions),
            engine.statistics,
        )

    def _forced(
        self, clauses: Sequence[Clause], engine: ExactConfidenceEngine
    ) -> DispatchResult:
        strategy = self.policy.strategy
        clauses = simplify_clauses(clauses, engine.clause_probability)
        shape = (len(clauses), _variable_count(clauses))
        if strategy == STRATEGY_MONTE_CARLO:
            if not clauses or not clauses[0]:  # ⊥ or ⊤
                p = 1.0 if clauses else 0.0
            else:
                p = approximate_confidence(
                    clauses,
                    engine.registry,
                    self.policy.epsilon,
                    self.policy.delta,
                    self.rng,
                ).estimate
            return DispatchResult(p, (ComponentDecision(strategy, p, *shape),))
        # Forced sprout raises UnsafeLineageError on a non-root elimination.
        p = engine.probability(clauses, roots_only=strategy == STRATEGY_SPROUT)
        return DispatchResult(
            p, (ComponentDecision(strategy, p, *shape),), engine.statistics
        )

    def _component(
        self,
        clauses: List[Clause],
        variable_count: int,
        delta: float,
        engine: ExactConfidenceEngine,
    ) -> ComponentDecision:
        shape = (len(clauses), variable_count)
        # One ws-tree call labels itself closed-form / sprout / exact.
        # Safety is found constructively rather than pre-tested.
        try:
            p = engine.probability(clauses)
            return ComponentDecision(engine.label, p, *shape)
        except CostBudgetExceededError:
            pass
        result = approximate_confidence(
            clauses,
            engine.registry,
            self.policy.epsilon,
            delta,
            self.rng,
        )
        return ComponentDecision(STRATEGY_MONTE_CARLO, result.estimate, *shape)


def _variable_count(clauses: Sequence[Clause]) -> int:
    return len({var for clause in clauses for var, _ in clause})

