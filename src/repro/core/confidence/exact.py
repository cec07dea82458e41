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

**One recursion.**  A subproblem is a sorted tuple of folded clauses
(:data:`Folded`): before the recursion starts, every variable that occurs
once among the loaded clauses (:meth:`~ExactConfidenceEngine.load`; with
none loaded, among the call's) is folded into its clause's weight, since
such a variable is never eliminated and joins no two clauses.  Folded
clauses are a multiset: two of them with equal atoms and equal weights
are two independent events, never one.  At each node one pass over the
clauses computes the variables' occurrence counts and the union-find
partition together; then the node takes the first case that applies:

1. ⊥ → 0, ⊤ → 1, a single clause → its weight times its atom product;
2. pairwise variable-disjoint clauses → 1 − ∏(1 − P(clauseᵢ));
3. several components → decompose, closing single clauses in place;
4. otherwise eliminate a variable: the one occurring in the most clauses
   (each branch then removes or shrinks the most clauses), then the one
   with the smaller domain (fewer branches), then the lower id.

Folding leaves the cases, the elimination order and the labels as they
were, and the statistics too as long as the folded subproblems are as
distinct as the unfolded ones; equal weights can only make more of them
equal, and so more memo hits.

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
elimination, so a hierarchical lineage never exceeds it.  A call that
exceeds it leaves the statistics and the memo as it found them, so the
counters and the memo depend only on the calls the recursion answered,
not on the order it visited their subproblems in.

**Input.**  :meth:`ExactConfidenceEngine.probability` takes canonical
clauses, best simplified (:func:`~repro.core.lineage.simplify_clauses`).
The dispatcher makes one call per component that needs the recursion, so
each gets its own budget, after loading all their clauses at once: each
variable's distribution is read once per engine
(:meth:`~repro.core.variables.VariableRegistry.distributions`), and the
calls scan no clause for unread variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.lineage import Atom, Clause
from repro.core.lineage import clause_probability as _product
from repro.core.variables import VariableRegistry
from repro.errors import CostBudgetExceededError, UnsafeLineageError

#: A clause with the atoms of variables that occur nowhere else in its
#: lineage folded into a weight: ``(remaining atoms, weight)``.
Folded = Tuple[Tuple[Atom, ...], float]
#: A sorted tuple of folded clauses.
Subproblem = Tuple[Folded, ...]
#: Per variable, its chances indexed by domain value.
Distributions = Dict[int, Sequence[float]]

#: How a call was evaluated, indexed by rank (a node's rank is the highest
#: of its own step and its children's): closed at the top, root
#: eliminations only, or a non-root elimination somewhere.
LABELS = ("closed-form", "sprout", "exact")
_CLOSED, _ROOTS, _ANY = 0, 1, 2
#: The cofactor that holds the empty (certain) clause.
_CERTAIN: "Subproblem" = (((), 1.0),)


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
        #: Per variable, its occurrences among the loaded clauses.
        self._counts: Dict[int, int] = {}
        #: Once clauses are loaded: the variables occurring once among them.
        self._private: Optional[Set[int]] = None

    def load(self, clauses: Iterable[Clause]) -> None:
        """Read the distributions of the clauses' variables that this
        engine has not read yet.  Every later call takes loaded clauses
        only: it scans none of them for unread variables, and folds the
        variables that occur once among all the loaded clauses."""
        counts = self._counts
        for clause in clauses:
            for var, _ in clause:
                counts[var] = counts.get(var, 0) + 1
        self._read(counts)
        self._private = {var for var, count in counts.items() if count == 1}

    def _read(self, variables: Iterable[int]) -> None:
        distributions = self._distributions
        missing = [var for var in variables if var not in distributions]
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
        needs a non-root elimination.  A call that exceeds the budget
        leaves the statistics and the memo as it found them.
        """
        statistics = self.statistics
        self._roots_only = roots_only
        self._spent = 0
        if not all(clauses):  # ⊤
            statistics.subproblems += 1
            self.label = LABELS[_CLOSED]
            return 1.0
        private = self._private
        if private is None:  # nothing loaded: the call's own clauses
            counts: Dict[int, int] = {}
            for clause in clauses:
                for var, _ in clause:
                    counts[var] = counts.get(var, 0) + 1
            self._read(counts)
            private = {var for var, count in counts.items() if count == 1}
        before = dict(vars(statistics))
        entries = len(self._memo)
        try:
            probability, rank = self._solve(tuple(self._fold(clauses, private)), False)
        except CostBudgetExceededError:
            vars(statistics).update(before)
            memo = self._memo
            while len(memo) > entries:
                memo.popitem()
            raise
        self.label = LABELS[rank]
        return probability

    def _fold(self, clauses: Iterable[Clause], private: Set[int]) -> List[Folded]:
        """Each clause as ``(core, weight)``: the atoms on ``private``
        variables multiplied into the weight (those with chance 1 stay,
        so the weight is 1 exactly when nothing was folded), sorted."""
        distributions = self._distributions
        folded: List[Folded] = []
        for clause in clauses:
            weight = 1.0
            core: List[Atom] = []
            for atom in clause:
                var, value = atom
                if var in private:
                    chances = distributions[var]
                    chance = chances[value] if 0 <= value < len(chances) else 0.0
                    if chance != 1.0:
                        weight *= chance
                        continue
                core.append(atom)
            folded.append((tuple(core), weight))
        folded.sort()
        return folded

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
        if clauses is _CERTAIN:
            return 1.0, _CLOSED
        distributions = self._distributions
        if len(clauses) == 1:
            statistics.clause_leaves += 1
            core, weight = clauses[0]
            return weight * _product(core, distributions), _CLOSED
        memo = self._memo
        hit = memo.get(clauses)
        if hit is not None:
            statistics.memo_hits += 1
            if self._roots_only and hit[1] == _ANY:
                raise _unsafe()
            return hit

        # One pass: occurrence counts and the union-find partition.  A
        # clause whose atoms were all folded is a component of its own.
        counts: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        atoms = 0
        components = 0
        for core, _ in clauses:
            if not core:
                components += 1
                continue
            atoms += len(core)
            first = -1  # the root of this clause's set; variable ids are > 0
            for var, _ in core:
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
            for core, weight in clauses:
                complement *= 1.0 - weight * _product(core, distributions)
            return 1.0 - complement, _CLOSED

        if components > 1:
            statistics.decompositions += 1
            groups: Dict[int, List[Folded]] = {}
            for clause in clauses:
                core = clause[0]
                if core:
                    root = core[0][0]
                    while parent[root] != root:
                        root = parent[root]
                else:
                    root = -len(groups)  # below every variable id
                group = groups.get(root)
                if group is None:
                    groups[root] = [clause]
                else:
                    group.append(clause)
            complement = 1.0
            rank = _CLOSED
            budget = self.max_subproblems if counted else None
            for group in groups.values():
                if len(group) == 1:
                    # A single clause closes here, counted as the
                    # subproblem it would have been.
                    statistics.subproblems += 1
                    if budget is not None:
                        self._spent += 1
                        if self._spent > budget:
                            raise CostBudgetExceededError(
                                f"exact decomposition exceeded its budget of "
                                f"{budget} subproblems"
                            )
                    statistics.clause_leaves += 1
                    core, weight = group[0]
                    p = weight * _product(core, distributions)
                else:
                    p, child_rank = self._solve(tuple(group), counted)
                    if child_rank > rank:
                        rank = child_rank
                complement *= 1.0 - p
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
        kept: List[Folded] = []
        rests: Dict[int, List[Folded]] = {}
        certain: Set[int] = set()  # values whose cofactor holds ⊤
        for clause in clauses:
            core, weight = clause
            for index, (var, value) in enumerate(core):
                if var == variable:
                    rest = core[:index] + core[index + 1 :]
                    if not rest and weight == 1.0:
                        certain.add(value)
                    bucket = rests.get(value)
                    if bucket is None:
                        rests[value] = [(rest, weight)]
                    else:
                        bucket.append((rest, weight))
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
            elif value in certain:
                cofactor = _CERTAIN
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

    A group keeps the clauses' order, and groups come in order of their
    smallest variable id, as
    :func:`~repro.core.confidence.columnar.split_components` orders them.
    That order is the one the dispatcher multiplies the components'
    probabilities in and runs their Monte-Carlo fallbacks in, and so fixes
    the answer's last bits and the session RNG's draws.
    """
    # Each set's root is its smallest variable: a union keeps the smaller.
    parent: Dict[int, int] = {}
    setdefault = parent.setdefault
    for clause in clauses:
        head = -1
        for var, _ in clause:
            root = setdefault(var, var)
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            if head < 0 or root == head:
                head = root
            elif root < head:
                parent[head] = head = root
            else:
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
