"""The lineage IR: the one input of every confidence method.

The lineage of a (distinct) result tuple is a disjunction of conjunctive
local conditions -- one clause per duplicate of the tuple.  This module
holds the single representation of it:

- a :class:`ClauseArena` *interns* clauses and caches, per interned
  clause, its variable set and marginal probability -- computed once no
  matter how many groups, engines, or recursion levels touch the clause;
- a :class:`Lineage` is an immutable clause sequence over an arena, built
  columnar-ly from a U-relation's condition columns (one memoized decode
  pass for the whole relation, see :func:`group_lineages`), carrying:

  * **simplification** -- certain/contradictory/zero-probability clause
    elimination, duplicate removal, and subsumption absorption;
  * **independence partitioning** -- union-find over shared variables
    splits the clause set into components whose disjunctions are
    independent events (probabilities combine as 1 − ∏(1 − pᵢ));
  * **the recursion steps** -- cofactors (:meth:`Lineage.restrict`),
    occurrence counts and canonical keys, which the exact ws-tree engine
    and SPROUT's safe evaluation expand on;
  * **closed forms** -- ⊥/⊤, single clause (atom product), and fully
    independent clause sets (no shared variables at all:
    1 − ∏(1 − P(clause)));
  * **structural statistics** -- clause/variable/atom counts, width, and
    the hierarchicity test (are the variables' clause sets laminar?).

The cost-based dispatcher (:mod:`repro.core.confidence.dispatch`) reads
these statistics to pick an algorithm per independent component; every
engine (:mod:`~repro.core.confidence.exact`,
:mod:`~repro.core.confidence.karp_luby`,
:mod:`~repro.core.confidence.dklr`, :mod:`~repro.core.confidence.sprout`)
takes a ``Lineage``, and so do the enumeration oracles of
:mod:`~repro.core.confidence.naive` that the tests check them against.

This module deliberately imports only :mod:`repro.core.conditions` and
:mod:`repro.core.variables`, so every layer above (engines, SQL) can
depend on it without cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.variables import VariableRegistry
from repro.errors import ConfidenceError


class ClauseArena:
    """Interning table for clauses, with per-clause derived-data caches.

    Conditions are canonical (sorted, deduplicated atom tuples), so the
    atom tuple is the identity of a clause.  The arena maps it to one
    shared :class:`Condition` object and caches the two facts every
    confidence method keeps re-deriving: the clause's variable set and its
    marginal probability under a registry.  One arena is shared by all
    lineages built together (all groups of one ``conf()`` call, and every
    component/cofactor derived from them), so the caches amortize across
    the whole computation.
    """

    __slots__ = ("registry", "_interned", "_probabilities", "_variables")

    def __init__(self, registry: VariableRegistry):
        self.registry = registry
        self._interned: Dict[Tuple, Condition] = {}
        self._probabilities: Dict[Tuple, float] = {}
        self._variables: Dict[Tuple, FrozenSet[int]] = {}

    def intern(self, clause: Condition) -> Condition:
        """The shared representative of an equal clause."""
        existing = self._interned.get(clause.atoms)
        if existing is None:
            self._interned[clause.atoms] = clause
            return clause
        return existing

    def probability(self, clause: Condition) -> float:
        """P(clause) -- atom-marginal product, computed once per clause."""
        p = self._probabilities.get(clause.atoms)
        if p is None:
            p = clause.probability(self.registry)
            self._probabilities[clause.atoms] = p
        return p

    def variables(self, clause: Condition) -> FrozenSet[int]:
        vs = self._variables.get(clause.atoms)
        if vs is None:
            vs = clause.variables()
            self._variables[clause.atoms] = vs
        return vs

    def __len__(self) -> int:
        return len(self._interned)


@dataclass(frozen=True)
class LineageStats:
    """Structural statistics the dispatcher's cost model reads."""

    clause_count: int
    variable_count: int
    atom_count: int
    max_width: int
    #: No two clauses share a variable (closed form applies).
    independent: bool
    #: The variables' clause-index sets are laminar (nested or disjoint),
    #: so SPROUT-style safe evaluation applies; None when the test was
    #: skipped because the lineage is too large to test cheaply.
    hierarchical: Optional[bool] = None


#: Above this clause width, simplification falls back to a linear
#: absorption scan instead of enumerating 2^k atom subsets.
_SUBSET_ENUMERATION_WIDTH = 12

#: Above this many variables, Lineage.stats() skips the O(V^2)
#: hierarchicity test (the dispatcher probes safety constructively
#: instead, see dispatch.py).
_HIERARCHY_TEST_VARIABLE_LIMIT = 64


class Lineage:
    """An immutable disjunction of conjunctive clauses over an arena.

    Clause order is preserved (the Karp-Luby estimator's canonical-witness
    tie-break depends on a fixed order).  The empty lineage is identically
    false; a lineage containing the empty clause is identically true.
    """

    __slots__ = (
        "clauses",
        "arena",
        "_simplified",
        "_simplified_form",
        "_variables",
        "_stats",
        "_components",
    )

    def __init__(
        self,
        clauses: Iterable[Condition],
        arena: ClauseArena,
        _simplified: bool = False,
    ):
        intern = arena.intern
        self.clauses: Tuple[Condition, ...] = tuple(intern(c) for c in clauses)
        self.arena = arena
        self._simplified = _simplified
        self._simplified_form: Optional["Lineage"] = None
        self._variables: Optional[FrozenSet[int]] = None
        self._stats: Optional[LineageStats] = None
        self._components: Optional[List["Lineage"]] = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_clauses(
        clauses: Iterable[Optional[Condition]],
        registry: VariableRegistry,
        arena: Optional[ClauseArena] = None,
    ) -> "Lineage":
        """Build from decoded conditions; ``None`` entries (contradictory
        conditions, representing no world) are dropped."""
        arena = arena if arena is not None else ClauseArena(registry)
        return Lineage((c for c in clauses if c is not None), arena)

    # -- protocol -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Condition]:
        return iter(self.clauses)

    def __repr__(self) -> str:
        if not self.clauses:
            return "⊥"
        return " ∨ ".join(f"({c!r})" for c in self.clauses)

    # -- classification -----------------------------------------------------
    @property
    def is_false(self) -> bool:
        return not self.clauses

    @property
    def is_true(self) -> bool:
        return any(not clause.atoms for clause in self.clauses)

    def variables(self) -> FrozenSet[int]:
        if self._variables is None:
            out: Set[int] = set()
            variables_of = self.arena.variables
            for clause in self.clauses:
                out.update(variables_of(clause))
            self._variables = frozenset(out)
        return self._variables

    def occurrence_counts(self) -> Dict[int, int]:
        """How many clauses each variable occurs in."""
        counts: Dict[int, int] = {}
        variables_of = self.arena.variables
        for clause in self.clauses:
            for var in variables_of(clause):
                counts[var] = counts.get(var, 0) + 1
        return counts

    def clause_probabilities(self) -> List[float]:
        probability = self.arena.probability
        return [probability(clause) for clause in self.clauses]

    def root_variables(self) -> FrozenSet[int]:
        """Variables occurring in *every* clause (SPROUT's root test)."""
        if not self.clauses:
            return frozenset()
        variables_of = self.arena.variables
        roots = set(variables_of(self.clauses[0]))
        for clause in self.clauses[1:]:
            roots &= variables_of(clause)
            if not roots:
                break
        return frozenset(roots)

    # -- statistics ---------------------------------------------------------
    def stats(self, test_hierarchy: bool = True) -> LineageStats:
        """Clause/variable/atom counts, width, independence, hierarchicity.

        Counts are computed once and cached.  The hierarchicity test is
        quadratic in the variable count, so it runs only when requested
        (``test_hierarchy``) and only up to
        ``_HIERARCHY_TEST_VARIABLE_LIMIT`` variables -- ``hierarchical``
        is None when unknown.  The hot evaluation paths (dispatcher, safe
        evaluator) never request it: they probe safety constructively
        instead, which fails fast on the first root-less component.
        """
        if self._stats is None:
            atom_count = 0
            max_width = 0
            for clause in self.clauses:
                width = len(clause.atoms)
                atom_count += width
                if width > max_width:
                    max_width = width
            variable_count = len(self.variables())
            # Independent == every variable occurs in exactly one clause;
            # with per-clause dedup already done by Condition, that is
            # equivalent to "total atoms == distinct variables".
            independent = atom_count == variable_count
            self._stats = LineageStats(
                clause_count=len(self.clauses),
                variable_count=variable_count,
                atom_count=atom_count,
                max_width=max_width,
                independent=independent,
                hierarchical=True if independent else None,
            )
        stats = self._stats
        if (
            test_hierarchy
            and stats.hierarchical is None
            and stats.variable_count <= _HIERARCHY_TEST_VARIABLE_LIMIT
        ):
            stats = LineageStats(
                clause_count=stats.clause_count,
                variable_count=stats.variable_count,
                atom_count=stats.atom_count,
                max_width=stats.max_width,
                independent=stats.independent,
                hierarchical=self._laminar_clause_sets(),
            )
            self._stats = stats
        return stats

    def _laminar_clause_sets(self) -> bool:
        """The hierarchicity test, transplanted from queries to lineage.

        For subgoals, Dalvi-Suciu tractability demands the subgoal sets of
        any two variables be nested or disjoint.  The lineage analog uses
        clause-index sets: when they form a laminar family, every
        connected component has a variable occurring in all its clauses (a
        *root*), recursively -- exactly the shape SPROUT-style safe
        evaluation (``repro.core.confidence.sprout.safe_lineage_confidence``)
        needs to run to completion.
        """
        clause_sets: Dict[int, Set[int]] = {}
        variables_of = self.arena.variables
        for index, clause in enumerate(self.clauses):
            for var in variables_of(clause):
                clause_sets.setdefault(var, set()).add(index)
        sets = list(clause_sets.values())
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                if not (a <= b or b <= a or not (a & b)):
                    return False
        return True

    # -- simplification -----------------------------------------------------
    def simplified(self) -> "Lineage":
        """Eliminate clauses that cannot matter.

        - a certain (empty) clause makes the lineage ⊤: collapse to it;
        - zero-probability clauses (an atom outside its variable's support)
          never hold in any world: dropped;
        - duplicate clauses: dropped (interning makes this a set test);
        - subsumed clauses (a kept clause's atoms ⊆ this clause's atoms):
          absorbed, by enumerating atom subsets for narrow clauses and a
          linear scan for wide ones.

        Idempotent and cached: a lineage that is already minimal marks
        itself via the ``_simplified`` flag; one that is not remembers its
        simplified form, so repeated dispatch over cached group lineages
        pays the pass once.
        """
        if self._simplified:
            return self
        if self._simplified_form is not None:
            return self._simplified_form
        probability = self.arena.probability
        kept: List[Condition] = []
        kept_keys: Set[Tuple] = set()
        for clause in sorted(self.clauses, key=len):
            if not clause.atoms:
                out = Lineage((TRUE_CONDITION,), self.arena, _simplified=True)
                self._simplified_form = out
                return out
            if clause.atoms in kept_keys:
                continue
            if probability(clause) <= 0.0:
                continue
            absorbed = False
            width = len(clause.atoms)
            if width <= 2:
                # The overwhelmingly common widths, inlined: a width-1
                # clause can only be absorbed by ⊤ (already collapsed
                # above); width-2 by one of its two atoms.
                if width == 2:
                    a, b = clause.atoms
                    absorbed = (a,) in kept_keys or (b,) in kept_keys
            elif width <= _SUBSET_ENUMERATION_WIDTH:
                for size in range(1, width):  # proper, non-empty subsets
                    for subset in itertools.combinations(clause.atoms, size):
                        if subset in kept_keys:
                            absorbed = True
                            break
                    if absorbed:
                        break
            else:
                absorbed = any(k.subsumes(clause) for k in kept)
            if absorbed:
                continue
            kept.append(clause)
            kept_keys.add(clause.atoms)
        if len(kept) == len(self.clauses):
            self._simplified = True  # nothing changed; avoid re-allocating
            return self
        out = Lineage(kept, self.arena, _simplified=True)
        self._simplified_form = out
        return out

    # -- independence partitioning ------------------------------------------
    def components(self) -> List["Lineage"]:
        """Partition clauses into groups sharing no variables (union-find).

        Clauses in different components are independent events, so
        P(⋁ all) = 1 − ∏ᵢ (1 − P(componentᵢ)).  Certain clauses (no
        variables) each form their own component.  The partition is
        cached (lineages are immutable).
        """
        if self._components is not None:
            return self._components
        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        variables_of = self.arena.variables
        clause_vars = [variables_of(c) for c in self.clauses]
        for vs in clause_vars:
            for var in vs:
                if var not in parent:
                    parent[var] = var
        for vs in clause_vars:
            it = iter(vs)
            first = next(it, None)
            if first is None:
                continue
            ra = find(first)
            for other in it:
                rb = find(other)
                if ra != rb:
                    parent[rb] = ra

        grouped: Dict[Optional[int], List[Condition]] = {}
        trivial: List[Condition] = []
        for clause, vs in zip(self.clauses, clause_vars):
            if not vs:
                trivial.append(clause)
                continue
            grouped.setdefault(find(next(iter(vs))), []).append(clause)

        if len(grouped) == 1 and not trivial:
            # Connected: the component IS this lineage; reuse it (and its
            # cached variables/stats) instead of re-materializing.
            self._components = [self]
            return self._components
        out = [
            Lineage(clauses, self.arena, _simplified=self._simplified)
            for _, clauses in sorted(grouped.items())
        ]
        out.extend(
            Lineage((c,), self.arena, _simplified=self._simplified)
            for c in trivial
        )
        self._components = out
        return out

    # -- operations the evaluators use --------------------------------------
    def restrict(self, var: int, value: int) -> "Lineage":
        """Condition on ``var = value``: clauses disagreeing on ``var``
        disappear, agreeing atoms are consumed."""
        clauses = []
        for clause in self.clauses:
            restricted = clause.restrict(var, value)
            if restricted is not None:
                clauses.append(restricted)
        return Lineage(clauses, self.arena)

    def satisfied_by(self, assignment: Mapping[int, int]) -> bool:
        return any(clause.satisfied_by(assignment) for clause in self.clauses)

    def first_satisfied_clause(self, assignment: Mapping[int, int]) -> Optional[int]:
        for i, clause in enumerate(self.clauses):
            if clause.satisfied_by(assignment):
                return i
        return None

    def canonical_key(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Hashable canonical form (sorted clause atom tuples)."""
        return tuple(sorted(clause.atoms for clause in self.clauses))

    # -- closed forms ---------------------------------------------------------
    def closed_form_probability(self) -> Optional[float]:
        """P(lineage) when a closed form applies, else None.

        Forms, cheapest first: ⊥ → 0; ⊤ (certain clause) → 1; a single
        clause → its atom-marginal product; pairwise variable-disjoint
        clauses → 1 − ∏(1 − P(clauseᵢ)) by independence.  Callers should
        :meth:`simplified` first so zero-probability and duplicate clauses
        do not mask a form.
        """
        if not self.clauses:
            return 0.0
        if self.is_true:
            return 1.0
        probability = self.arena.probability
        if len(self.clauses) == 1:
            return probability(self.clauses[0])
        if self.stats(test_hierarchy=False).independent:
            complement = 1.0
            for clause in self.clauses:
                complement *= 1.0 - probability(clause)
            return 1.0 - complement
        return None


def combine_independent(probabilities: Iterable[float]) -> float:
    """P(⋁ᵢ Eᵢ) for independent events: 1 − ∏(1 − pᵢ)."""
    complement = 1.0
    for p in probabilities:
        complement *= 1.0 - p
    return 1.0 - complement


# ---------------------------------------------------------------------------
# Columnar construction from U-relations.
# ---------------------------------------------------------------------------


def group_lineages(
    urel,
    row_groups: Sequence[Sequence[int]],
    arena: Optional[ClauseArena] = None,
) -> List[Lineage]:
    """Per-group lineages read straight off a U-relation's condition
    columns.

    One memoized columnar decode covers the whole relation (see
    :meth:`repro.core.urelation.URelation.conditions`); the decoded
    conditions are interned into one shared arena so equal clauses across
    groups share their probability/variable caches.  Rows with
    contradictory conditions (possible only before a consistency filter
    runs) represent no world and contribute no clause.
    """
    arena = arena if arena is not None else ClauseArena(urel.registry)
    conditions = urel.conditions()
    return [
        Lineage(
            (
                conditions[index]
                for index in indexes
                if conditions[index] is not None
            ),
            arena,
        )
        for indexes in row_groups
    ]

