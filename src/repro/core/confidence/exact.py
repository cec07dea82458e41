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

**One recursion.**  A subproblem is a sorted tuple of canonical clauses
(:data:`~repro.core.lineage.Clause` atom tuples).  At each node one pass
over the clauses computes the variables' occurrence counts and the
union-find partition together; then the node takes the first case that
applies:

1. ⊥ → 0, ⊤ → 1, a single clause → its atom product;
2. pairwise variable-disjoint clauses → 1 − ∏(1 − P(clauseᵢ));
3. several components → decompose;
4. otherwise eliminate a variable: the one occurring in the most clauses
   (each branch then removes or shrinks the most clauses), then the one
   with the smaller domain (fewer branches), then the lower id.

**SPROUT is a mode of it.**  A *root* variable occurs in every clause, so
it always has the most occurrences and the heuristic eliminates roots
first.  An evaluation that eliminated roots only is SPROUT's safe plan
for a hierarchical lineage, so each call is labelled with how it went:
``closed-form`` if the lineage closed at its top (case 1 or 2),
``sprout`` if every elimination was on a root, ``exact`` otherwise.
``roots_only`` refuses a non-root elimination with
:class:`~repro.errors.UnsafeLineageError`: SPROUT's safe plan on one
lineage is ``ExactConfidenceEngine(registry).probability(clauses,
roots_only=True)``.

**Memo scope.**  Subproblem results (with their label rank) are memoized
for the life of the engine, which the dispatcher creates per confidence
call -- one aggregate of one statement -- so groups and components of a
statement share sub-lineages, and nothing outlives the statement.
``max_subproblems`` bounds only the subproblems below a non-root
elimination, so a hierarchical lineage never exceeds it.

**Input.**  :meth:`ExactConfidenceEngine.probability` takes canonical
clauses, best simplified (:func:`~repro.core.lineage.simplify_clauses`).
The dispatcher splits a group with :func:`components` and makes one call
per component, so each gets its own budget.  Each variable's distribution
is read once per engine
(:meth:`~repro.core.variables.VariableRegistry.distributions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.lineage import Clause
from repro.core.lineage import clause_probability as _product
from repro.core.variables import VariableRegistry
from repro.errors import CostBudgetExceededError, UnsafeLineageError

Subproblem = Tuple[Clause, ...]
#: Per variable, its chances indexed by domain value.
Distributions = Dict[int, Sequence[float]]

#: How a call was evaluated, indexed by rank (a node's rank is the highest
#: of its own step and its children's): closed at the top, root
#: eliminations only, or a non-root elimination somewhere.
LABELS = ("closed-form", "sprout", "exact")
_CLOSED, _ROOTS, _ANY = 0, 1, 2


@dataclass
class ExactStatistics:
    """Counters of one engine, i.e. of one confidence call."""

    decompositions: int = 0
    eliminations: int = 0
    clause_leaves: int = 0
    memo_hits: int = 0
    subproblems: int = 0


class ExactConfidenceEngine:
    """The exact engine of one confidence call: the memo and the
    statistics live as long as the engine."""

    def __init__(
        self,
        registry: VariableRegistry,
        max_subproblems: Optional[int] = None,
    ):
        self.registry = registry
        self.max_subproblems = max_subproblems
        self.statistics = ExactStatistics()
        #: The label (see ``LABELS``) of the latest :meth:`probability` call.
        self.label = LABELS[_CLOSED]
        self._memo: Dict[Subproblem, Tuple[float, int]] = {}
        self._distributions: Distributions = {}
        self._roots_only = False
        self._spent = 0

    def load(self, clauses: Iterable[Clause]) -> None:
        """Read the distributions of the clauses' variables that this
        engine has not read yet."""
        distributions = self._distributions
        missing = {
            var for clause in clauses for var, _ in clause if var not in distributions
        }
        if missing:
            distributions.update(zip(missing, self.registry.distributions(missing)))

    def clause_probability(self, clause: Clause) -> float:
        """P(clause), the product of its atoms' marginals; the clause's
        variables must be :meth:`load`-ed."""
        return _product(clause, self._distributions)

    def probability(
        self, clauses: Sequence[Clause], roots_only: bool = False
    ) -> float:
        """P(⋁ clauses), exactly; :attr:`label` says how it was evaluated.
        ``roots_only`` is SPROUT's safe plan: root eliminations only.

        Raises :class:`CostBudgetExceededError` when ``max_subproblems``
        is set and this call exceeds it below a non-root elimination, and
        :class:`UnsafeLineageError` under ``roots_only`` when the lineage
        needs a non-root elimination.
        """
        subproblem = tuple(sorted(clauses))
        self.load(subproblem)
        self._roots_only = roots_only
        self._spent = 0
        probability, rank = self._solve(subproblem, False)
        self.label = LABELS[rank]
        return probability

    def _solve(self, clauses: Subproblem, counted: bool) -> Tuple[float, int]:
        statistics = self.statistics
        statistics.subproblems += 1
        if counted and self.max_subproblems is not None:
            self._spent += 1
            if self._spent > self.max_subproblems:
                raise CostBudgetExceededError(
                    f"exact decomposition exceeded its budget of "
                    f"{self.max_subproblems} subproblems"
                )
        if not clauses:
            return 0.0, _CLOSED
        if not clauses[0]:  # the empty clause sorts first
            return 1.0, _CLOSED
        distributions = self._distributions
        if len(clauses) == 1:
            statistics.clause_leaves += 1
            return _product(clauses[0], distributions), _CLOSED
        memo = self._memo
        hit = memo.get(clauses)
        if hit is not None:
            statistics.memo_hits += 1
            if self._roots_only and hit[1] == _ANY:
                raise _unsafe()
            return hit

        # One pass: occurrence counts and the union-find partition.
        counts: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        atoms = 0
        components = 0
        for clause in clauses:
            atoms += len(clause)
            first = -1  # the root of this clause's set; variable ids are > 0
            for var, _ in clause:
                count = counts.get(var)
                if count is None:
                    counts[var] = 1
                    if first < 0:
                        parent[var] = first = var
                        components += 1
                    else:
                        parent[var] = first
                    continue
                counts[var] = count + 1
                root = var
                while parent[root] != root:
                    parent[root] = parent[parent[root]]
                    root = parent[root]
                if first < 0:
                    first = root
                elif root != first:
                    parent[root] = first
                    components -= 1

        if atoms == len(counts):  # no variable occurs twice
            complement = 1.0
            for clause in clauses:
                complement *= 1.0 - _product(clause, distributions)
            return 1.0 - complement, _CLOSED

        if components > 1:
            statistics.decompositions += 1
            groups: Dict[int, List[Clause]] = {}
            for clause in clauses:
                root = clause[0][0]
                while parent[root] != root:
                    root = parent[root]
                group = groups.get(root)
                if group is None:
                    groups[root] = [clause]
                else:
                    group.append(clause)
            complement = 1.0
            rank = _CLOSED
            for group in groups.values():
                p, child_rank = self._solve(tuple(group), counted)
                complement *= 1.0 - p
                if child_rank > rank:
                    rank = child_rank
            result = (1.0 - complement, rank)
            memo[clauses] = result
            return result

        most = max(counts.values())
        tied = [var for var, count in counts.items() if count == most]
        variable = (
            tied[0]
            if len(tied) == 1
            else min(tied, key=lambda var: (len(distributions[var]), var))
        )
        on_root = most == len(clauses)
        if not on_root and self._roots_only:
            raise _unsafe()
        statistics.eliminations += 1
        below = counted or not on_root
        kept: List[Clause] = []
        rests: Dict[int, List[Clause]] = {}
        for clause in clauses:
            for index, (var, value) in enumerate(clause):
                if var == variable:
                    rest = clause[:index] + clause[index + 1 :]
                    bucket = rests.get(value)
                    if bucket is None:
                        rests[value] = [rest]
                    else:
                        bucket.append(rest)
                    break
            else:
                kept.append(clause)
        probability = 0.0
        rank = _ROOTS if on_root else _ANY
        for value, p_value in enumerate(distributions[variable]):
            if p_value == 0.0:
                continue
            bucket = rests.get(value)
            if bucket is None:
                if not kept:
                    continue  # the cofactor is ⊥
                cofactor = tuple(kept)
            else:
                cofactor = tuple(sorted(kept + bucket))
            p, child_rank = self._solve(cofactor, below)
            probability += p_value * p
            if child_rank > rank:
                rank = child_rank
        result = (probability, rank)
        memo[clauses] = result
        return result


def components(clauses: Sequence[Clause]) -> List[Tuple[List[Clause], int]]:
    """The clauses split into groups that share no variables (union-find),
    each with its variable count; the groups' disjunctions are independent
    events.  ``clauses`` are simplified and free of ⊤.

    A group keeps the clauses' order.  Groups come in the order of their
    union-find roots, where merging a clause's variables keeps the root of
    its *first* variable in ``frozenset`` iteration order.  That order is
    the one the dispatcher multiplies the components' probabilities in
    and runs their Monte-Carlo fallbacks in, and so fixes the answer's
    last bits and the session RNG's draws.
    """
    parent: Dict[int, int] = {}
    setdefault = parent.setdefault
    for clause in clauses:
        if len(clause) == 1:
            first = clause[0][0]
        else:
            first = next(iter(frozenset([var for var, _ in clause])))
        head = setdefault(first, first)
        while parent[head] != head:
            head = parent[head]
        for var, _ in clause:
            root = setdefault(var, var)
            if root == head:
                continue
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            if root != head:
                parent[root] = head
    roots: Dict[int, int] = {}
    for var in parent:
        root = var
        while parent[root] != root:
            root = parent[root]
        roots[var] = root
    groups: Dict[int, List[Clause]] = {}
    for clause in clauses:
        root = roots[clause[0][0]]
        group = groups.get(root)
        if group is None:
            groups[root] = [clause]
        else:
            group.append(clause)
    sizes = dict.fromkeys(groups, 0)
    for root in roots.values():
        sizes[root] += 1
    return [(groups[root], sizes[root]) for root in sorted(groups)]


def _unsafe() -> UnsafeLineageError:
    return UnsafeLineageError(
        "lineage is not hierarchical: a connected clause component "
        "has no variable occurring in all of its clauses"
    )
