"""The lineage IR and the clause decode of ``conf()``.

The lineage of a (distinct) result tuple is a disjunction of conjunctive
local conditions -- one clause per duplicate of the tuple.  A clause is
canonical: its atom tuple, sorted by variable, with the top padding
dropped and a repeated atom merged (:meth:`Condition.of`'s rules).

- :func:`row_clauses` reads every row's clause off a U-relation's
  condition columns in one array pass; ``conf()`` hands the clauses of
  each group the array pass of :mod:`repro.core.confidence.columnar`
  declines straight to the dispatcher, which works on these atom tuples
  throughout (:mod:`repro.core.confidence.dispatch`);
- :func:`simplify_clauses` drops the clauses that cannot matter:
  ⊤ collapses the disjunction, zero-probability and duplicate clauses go,
  and a clause with a kept subset is absorbed;
- a :class:`Lineage` is the object form -- an immutable clause sequence
  over a :class:`ClauseArena`, which interns clauses and caches each
  one's variable set and marginal probability.  ``aconf()`` builds one
  per declined group (:func:`group_lineages`), and so does ``conf()``
  for a component whose exact evaluation blows its budget: the
  Monte-Carlo engines (:mod:`~repro.core.confidence.karp_luby`,
  :mod:`~repro.core.confidence.dklr`) and the enumeration oracles of
  :mod:`~repro.core.confidence.naive` take a ``Lineage``.  It shares the
  simplification and :func:`closed_form` (⊥/⊤, a single clause's atom
  product, 1 − ∏(1 − P(clause)) over pairwise variable-disjoint clauses)
  with the atom tuples.

The exact ws-tree recursion (:mod:`repro.core.confidence.exact`) takes
either form and works on the atom tuples below its top.

This module deliberately imports only :mod:`repro.core.conditions` and
:mod:`repro.core.variables`, so every layer above (engines, SQL) can
depend on it without cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
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
    TypeVar,
)

import numpy as np

from repro.core.conditions import Atom, Condition
from repro.core.variables import TOP_VARIABLE, VariableRegistry

#: A canonical clause: a :class:`Condition`'s atom tuple.
Clause = Tuple[Atom, ...]
C = TypeVar("C", Clause, Condition)


class ClauseArena:
    """Interning table for clauses: the atom tuple is a clause's identity.
    The arena maps it to one shared :class:`Condition` and caches the
    clause's variable set and marginal probability under a registry, for
    all lineages built together (the groups of one ``aconf()`` call)."""

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
    """Structural statistics of a lineage."""

    clause_count: int
    variable_count: int


#: Above this clause width, simplification falls back to a linear
#: absorption scan instead of enumerating 2^k atom subsets.
_SUBSET_ENUMERATION_WIDTH = 12


def simplify_clauses(
    clauses: Sequence[Clause], probability: Callable[[Clause], float]
) -> Sequence[Clause]:
    """The clauses of a disjunction that can matter, given each clause's
    marginal ``probability``:

    - a certain (empty) clause makes the disjunction ⊤: ``[()]``;
    - zero-probability clauses (an atom outside its variable's support)
      never hold in any world: dropped;
    - duplicate clauses: dropped;
    - subsumed clauses (a kept clause's atoms ⊆ this clause's atoms):
      absorbed, by enumerating atom subsets for narrow clauses and a
      linear scan for wide ones.

    Clauses are visited shortest first, so the kept ones come in that
    order -- unless none is dropped: then ``clauses`` itself is returned,
    in its own order.
    """
    kept: List[Clause] = []
    kept_keys: Set[Clause] = set()
    kept_widths: Set[int] = set()
    for clause in sorted(clauses, key=len):
        if not clause:
            return [()]
        if clause in kept_keys or probability(clause) <= 0.0:
            continue
        width = len(clause)
        if width > _SUBSET_ENUMERATION_WIDTH:
            absorbed = any(set(k).issubset(clause) for k in kept)
        else:
            # Only subsets as wide as some kept clause can be one.
            absorbed = False
            for size in range(1, width):
                if size in kept_widths and not kept_keys.isdisjoint(
                    itertools.combinations(clause, size)
                ):
                    absorbed = True
                    break
        if absorbed:
            continue
        kept.append(clause)
        kept_keys.add(clause)
        kept_widths.add(width)
    return clauses if len(kept) == len(clauses) else kept


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

    def clause_probabilities(self) -> List[float]:
        probability = self.arena.probability
        return [probability(clause) for clause in self.clauses]

    # -- statistics ---------------------------------------------------------
    def stats(self) -> LineageStats:
        """Clause and variable counts, computed once."""
        if self._stats is None:
            self._stats = LineageStats(len(self.clauses), len(self.variables()))
        return self._stats

    # -- simplification -----------------------------------------------------
    def simplified(self) -> "Lineage":
        """The lineage after :func:`simplify_clauses`.

        Idempotent and cached: a lineage that is already minimal marks
        itself via the ``_simplified`` flag; one that is not remembers its
        simplified form, so repeated use of a cached group lineage pays
        the pass once.
        """
        if self._simplified:
            return self
        if self._simplified_form is not None:
            return self._simplified_form
        arena = self.arena
        interned = arena._interned
        atoms = [clause.atoms for clause in self.clauses]
        kept = simplify_clauses(
            atoms, lambda clause: arena.probability(interned[clause])
        )
        if kept is atoms:
            self._simplified = True  # nothing changed; avoid re-allocating
            return self
        out = Lineage((interned[clause] for clause in kept), arena, _simplified=True)
        self._simplified_form = out
        return out

    # -- semantics (the enumeration oracles) ---------------------------------
    def satisfied_by(self, assignment: Mapping[int, int]) -> bool:
        return any(clause.satisfied_by(assignment) for clause in self.clauses)

    def first_satisfied_clause(self, assignment: Mapping[int, int]) -> Optional[int]:
        for i, clause in enumerate(self.clauses):
            if clause.satisfied_by(assignment):
                return i
        return None

    # -- closed forms ---------------------------------------------------------
    def closed_form_probability(self) -> Optional[float]:
        """P(lineage) by :func:`closed_form`, or 1 when a clause is ⊤;
        None when no closed form applies.  Callers should
        :meth:`simplified` first so zero-probability and duplicate clauses
        do not mask a form."""
        if self.is_true:
            return 1.0
        return closed_form(self.clauses, self.arena.probability)


def closed_form(
    clauses: Sequence[C], probability: Callable[[C], float]
) -> Optional[float]:
    """P(⋁ clauses) when a closed form applies, else None: ⊥ → 0, a single
    clause → its atom-marginal product, pairwise variable-disjoint clauses
    → 1 − ∏(1 − P(clauseᵢ)) by independence.  A clause is a
    :class:`Condition` or its atom tuple."""
    if len(clauses) <= 1:
        return probability(clauses[0]) if clauses else 0.0
    if sum(map(len, clauses)) != len({var for clause in clauses for var, _ in clause}):
        return None  # some variable occurs in two clauses
    return combine_independent(map(probability, clauses))


def combine_independent(probabilities: Iterable[float]) -> float:
    """P(⋁ᵢ Eᵢ) for independent events: 1 − ∏(1 − pᵢ)."""
    complement = 1.0
    for p in probabilities:
        complement *= 1.0 - p
    return 1.0 - complement


# ---------------------------------------------------------------------------
# Columnar construction from U-relations.
# ---------------------------------------------------------------------------


def group_lineages(urel, row_groups: Sequence[Sequence[int]]) -> List[Lineage]:
    """Per-group lineages read straight off a U-relation's condition
    columns.

    One memoized columnar decode covers the whole relation (see
    :meth:`repro.core.urelation.URelation.conditions`); the decoded
    conditions are interned into one shared arena so equal clauses across
    groups share their probability/variable caches.  Rows with
    contradictory conditions (possible only before a consistency filter
    runs) represent no world and contribute no clause.
    """
    arena = ClauseArena(urel.registry)
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



def row_clauses(urel) -> List[Optional[Clause]]:
    """Per row of a U-relation, the atoms of ``urel.conditions()``: its
    canonical clause, or None for a contradictory row.  With int64
    condition arrays (:meth:`URelation.condition_arrays`) that is one
    stable sort of each row's atoms by variable: the top padding sorts
    first and is dropped, an atom equal to its left neighbour is merged,
    and a variable repeated with another value makes the row
    contradictory.  Without arrays the conditions are decoded."""
    arrays = urel.condition_arrays()
    if arrays is None:
        return [
            None if condition is None else condition.atoms
            for condition in urel.conditions()
        ]
    variables, values = arrays  # shape (cond_arity, rows)
    order = np.argsort(variables, axis=0, kind="stable")
    variables = np.take_along_axis(variables, order, axis=0)
    values = np.take_along_axis(values, order, axis=0)
    repeated = (variables[1:] == variables[:-1]) & (variables[1:] != TOP_VARIABLE)
    keep = variables != TOP_VARIABLE
    keep[1:] &= ~repeated
    # Consecutive runs of cond_arity atoms are the rows' clauses.
    atoms = zip(variables.T.ravel().tolist(), values.T.ravel().tolist())
    out: List[Optional[Clause]] = list(zip(*[atoms] * len(variables)))
    for row in np.flatnonzero(~keep.all(axis=0)).tolist():
        out[row] = tuple(
            atom for atom, kept in zip(out[row], keep[:, row].tolist()) if kept
        )
    conflicting = (repeated & (values[1:] != values[:-1])).any(axis=0)
    for row in np.flatnonzero(conflicting).tolist():
        out[row] = None
    return out
