"""A frozen copy of the ws-tree recursion, so that the reference dispatch
of :mod:`reference.confidence` does not share the engine it checks.

:class:`WsTree` is the Koch-Olteanu recursion of
:mod:`repro.core.confidence.exact` as it stood before that engine folded
the variables that occur once into clause weights: it works on sorted
tuples of canonical clauses, closes single clauses, pairwise
variable-disjoint clauses, decomposes into components and otherwise
eliminates the variable occurring in the most clauses (ties: smaller
domain, then lower id).  Its statistics are what the engine's must be on
lineages whose folded subproblems are as distinct as the unfolded ones.
:func:`components` is the dispatcher's split of a group, its components
ordered by their smallest variable id.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.lineage import Clause
from repro.core.lineage import clause_probability as _product
from repro.errors import CostBudgetExceededError, UnsafeLineageError

Subproblem = Tuple[Clause, ...]
LABELS = ("closed-form", "sprout", "exact")
_CLOSED, _ROOTS, _ANY = 0, 1, 2


@dataclass
class WsTreeStatistics:
    decompositions: int = 0
    eliminations: int = 0
    clause_leaves: int = 0
    memo_hits: int = 0
    subproblems: int = 0


class WsTree:
    """One memo and one set of counters per engine, as in the system."""

    def __init__(self, registry, max_subproblems: Optional[int] = None):
        self.registry = registry
        self.max_subproblems = max_subproblems
        self.statistics = WsTreeStatistics()
        self.label = LABELS[_CLOSED]
        self._memo: Dict[Subproblem, Tuple[float, int]] = {}
        self._distributions: Dict[int, Sequence[float]] = {}
        self._roots_only = False
        self._spent = 0

    def probability(self, clauses: Sequence[Clause], roots_only: bool = False) -> float:
        subproblem = tuple(sorted(clauses))
        distributions = self._distributions
        missing = {var for clause in subproblem for var, _ in clause if var not in distributions}
        if missing:
            distributions.update(zip(missing, self.registry.distributions(missing)))
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
    each with its variable count, as the engine's ``components`` split them
    before it learned to order the groups by their smallest variable id;
    the groups come in that order here too."""
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
    smallest: Dict[int, int] = {}
    for var, root in roots.items():
        smallest[root] = min(var, smallest.get(root, var))
    return [(groups[root], sizes[root]) for root in sorted(groups, key=smallest.get)]


def _unsafe() -> UnsafeLineageError:
    return UnsafeLineageError(
        "lineage is not hierarchical: a connected clause component "
        "has no variable occurring in all of its clauses"
    )
