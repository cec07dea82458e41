"""Exact confidence computation: the Koch-Olteanu algorithm [3].

"Given a DNF (of which each clause is a conjunctive local condition), the
algorithm employs a combination of variable elimination and decomposition
of the DNF into independent subsets of clauses (i.e., subsets that do not
share variables), with cost-estimation heuristics for choosing whether to
use the former (and for which variable) or the latter."  (Section 2.3)

The two rules:

**Independence decomposition.**  If the clause set splits into components
C₁..C_k sharing no variables, the events are independent and

    P(⋁ clauses) = 1 − ∏ᵢ (1 − P(Cᵢ)).

**Variable elimination (Shannon expansion).**  Pick a variable x; the
worlds partition by x's value, so

    P(D) = Σ_{v ∈ dom(x)} P(x = v) · P(D | x = v),

where D | x = v drops clauses disagreeing on x and consumes agreeing
atoms.

The recursion runs on the lineage IR itself
(:class:`~repro.core.lineage.Lineage`: components, cofactors and
canonical keys over one clause arena) and terminates because every step
either removes a variable or splits the clause set.  The computation is
recorded as a decomposition tree (*ws-tree*) that callers can inspect;
sub-lineage results are memoized on their canonical form (two duplicates
of a tuple often induce overlapping sub-problems).

Heuristics: decomposition is applied whenever it makes progress (it only
multiplies independent results -- always beneficial).  Otherwise the
variable to eliminate is chosen by estimated cost: occurrence count first
(eliminating a variable present in many clauses shrinks the problem
fastest), then smaller domain, then lower id for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry
from repro.errors import ConfidenceError, CostBudgetExceededError


@dataclass
class WSTreeNode:
    """One node of the decomposition (ws-)tree.

    ``kind`` is one of:
    - ``"false"`` / ``"true"`` -- leaves (empty lineage / empty clause);
    - ``"clause"`` -- a single-clause leaf, probability = atom product;
    - ``"decompose"`` -- children are independent components;
    - ``"eliminate"`` -- children are the cofactors per domain value of
      the eliminated variable (``variable``/``branch_values``/
      ``branch_probabilities`` describe the split).
    """

    kind: str
    probability: float
    variable: Optional[int] = None
    branch_values: Tuple[int, ...] = ()
    branch_probabilities: Tuple[float, ...] = ()
    children: List["WSTreeNode"] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        label = self.kind
        if self.kind == "eliminate":
            label += f"(x{self.variable})"
        lines = [f"{pad}{label} p={self.probability:.6g}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass
class ExactStatistics:
    """Counters for benchmarking the engine's behaviour."""

    decompositions: int = 0
    eliminations: int = 0
    clause_leaves: int = 0
    memo_hits: int = 0
    subproblems: int = 0


class ExactConfidenceEngine:
    """Reusable exact engine with memoization across calls.

    One engine per registry: memoized probabilities depend on the variable
    distributions.
    """

    def __init__(
        self,
        registry: VariableRegistry,
        build_tree: bool = False,
        max_subproblems: Optional[int] = None,
    ):
        self.registry = registry
        self.build_tree = build_tree
        self.max_subproblems = max_subproblems
        self.statistics = ExactStatistics()
        self._memo: Dict[tuple, float] = {}
        self._budget_base = 0

    # -- public API ---------------------------------------------------------
    def probability(self, lineage: Lineage) -> float:
        """P(lineage), exactly.

        An already-simplified lineage skips re-simplification (the IR did
        the zero-probability/duplicate/subsumption work once for all
        engines).  Raises :class:`CostBudgetExceededError` when
        ``max_subproblems`` is set and the decomposition exceeds it.
        """
        probability, _ = self._solve(self._prepare(lineage))
        return probability

    def probability_with_tree(self, lineage: Lineage) -> Tuple[float, WSTreeNode]:
        """P(lineage) plus the decomposition tree (forces tree construction)."""
        saved = self.build_tree
        self.build_tree = True
        try:
            probability, tree = self._solve(self._prepare(lineage))
            assert tree is not None
            return probability, tree
        finally:
            self.build_tree = saved

    def _prepare(self, lineage: Lineage) -> Lineage:
        # The budget is per top-level call (the engine is reused across
        # groups for memo sharing, so the lifetime counter keeps growing).
        self._budget_base = self.statistics.subproblems
        return lineage.simplified()

    # -- recursion ------------------------------------------------------------
    def _solve(self, lineage: Lineage) -> Tuple[float, Optional[WSTreeNode]]:
        self.statistics.subproblems += 1
        if (
            self.max_subproblems is not None
            and self.statistics.subproblems - self._budget_base
            > self.max_subproblems
        ):
            raise CostBudgetExceededError(
                f"exact decomposition exceeded its budget of "
                f"{self.max_subproblems} subproblems"
            )

        if lineage.is_false:
            return 0.0, self._leaf("false", 0.0)
        if lineage.is_true:
            return 1.0, self._leaf("true", 1.0)

        key = lineage.canonical_key()
        if key in self._memo and not self.build_tree:
            self.statistics.memo_hits += 1
            return self._memo[key], None

        if len(lineage) == 1:
            self.statistics.clause_leaves += 1
            p = lineage.clauses[0].probability(self.registry)
            self._remember(key, p)
            return p, self._leaf("clause", p)

        components = lineage.components()
        if len(components) > 1:
            self.statistics.decompositions += 1
            probability = 1.0
            children = []
            complement = 1.0
            for component in components:
                p, child = self._solve(component)
                complement *= 1.0 - p
                if child is not None:
                    children.append(child)
            probability = 1.0 - complement
            self._remember(key, probability)
            if self.build_tree:
                return probability, WSTreeNode("decompose", probability, children=children)
            return probability, None

        variable = self._choose_variable(lineage)
        self.statistics.eliminations += 1
        probability = 0.0
        values, value_probs, children = [], [], []
        for value, p_value in self.registry.distribution(variable).items():
            if p_value == 0.0:
                continue
            cofactor = lineage.restrict(variable, value)
            p_cofactor, child = self._solve(cofactor)
            probability += p_value * p_cofactor
            values.append(value)
            value_probs.append(p_value)
            if child is not None:
                children.append(child)
        self._remember(key, probability)
        if self.build_tree:
            return probability, WSTreeNode(
                "eliminate",
                probability,
                variable=variable,
                branch_values=tuple(values),
                branch_probabilities=tuple(value_probs),
                children=children,
            )
        return probability, None

    def _choose_variable(self, lineage: Lineage) -> int:
        """Cost-estimation heuristic for the elimination variable.

        Prefers the variable occurring in the most clauses: each branch of
        the expansion then touches (removes or shrinks) the most clauses,
        maximizing the chance that cofactors decompose.  Ties break toward
        smaller domains (fewer branches), then smaller ids (determinism).
        """
        counts = lineage.occurrence_counts()
        if not counts:
            raise ConfidenceError("cannot eliminate: lineage has no variables")
        return min(
            counts,
            key=lambda var: (-counts[var], self.registry.domain_size(var), var),
        )

    #: Memo-size safety valve.  The executor keeps one engine per session,
    #: so without a bound the memo would grow for the process lifetime;
    #: past this many entries the memo resets wholesale (crude epoch
    #: eviction -- losing it costs recomputation, never correctness).
    MAX_MEMO_ENTRIES = 1_000_000

    def _remember(self, key: tuple, probability: float) -> None:
        if len(self._memo) >= self.MAX_MEMO_ENTRIES:
            self._memo.clear()
        self._memo[key] = probability

    def _leaf(self, kind: str, probability: float) -> Optional[WSTreeNode]:
        if not self.build_tree:
            return None
        return WSTreeNode(kind, probability)

