"""Conditions: conjunctions of variable assignments.

A tuple of a U-relation is annotated with a *local condition* -- a
conjunction of atoms ``x ↦ v`` over the independent random variables of
the database (Section 2.1).  The tuple is present exactly in the worlds
whose total assignment extends the condition.

Conditions are immutable and canonical: atoms are deduplicated and sorted
by variable id, so two equal conditions are identical tuples and can be
used as dict keys (the exact confidence algorithm memoizes on them).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.errors import ConditionError

Atom = Tuple[int, int]  # (variable id, assigned value)


class Condition:
    """A consistent conjunction of atoms, at most one atom per variable.

    Construction via :meth:`of` returns ``None`` for contradictory atom
    sets (same variable, two different values); the direct constructor
    assumes consistency and is for internal use.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Tuple[Atom, ...]):
        self.atoms = atoms

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def of(atoms: Iterable[Atom]) -> Optional["Condition"]:
        """Canonicalize an atom set; None if contradictory.

        Atoms on the reserved top variable are dropped (they are padding
        and always true).
        """
        by_var: Dict[int, int] = {}
        for var, value in atoms:
            if var == TOP_VARIABLE:
                continue
            if var in by_var and by_var[var] != value:
                return None
            by_var[var] = value
        return Condition(tuple(sorted(by_var.items())))

    @staticmethod
    def true() -> "Condition":
        return TRUE_CONDITION

    @staticmethod
    def atom(var: int, value: int) -> "Condition":
        if var == TOP_VARIABLE:
            return TRUE_CONDITION
        return Condition(((var, value),))

    # -- protocol -----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Condition) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __repr__(self) -> str:
        if not self.atoms:
            return "⊤"
        return " ∧ ".join(f"x{var}↦{val}" for var, val in self.atoms)

    @property
    def is_true(self) -> bool:
        return not self.atoms

    # -- algebra ---------------------------------------------------------------
    def variables(self) -> FrozenSet[int]:
        return frozenset(var for var, _ in self.atoms)

    def conjoin(self, other: "Condition") -> Optional["Condition"]:
        """Conjunction of two conditions; None if contradictory."""
        if not self.atoms:
            return other
        if not other.atoms:
            return self
        return Condition.of(self.atoms + other.atoms)

    def subsumes(self, other: "Condition") -> bool:
        """self ⊆ other as atom sets: every world satisfying ``other`` also
        satisfies ``self`` (self is the weaker condition)."""
        return set(self.atoms).issubset(other.atoms)

    # -- semantics ----------------------------------------------------------------
    def satisfied_by(self, assignment: Mapping[int, int]) -> bool:
        """Does a (total) assignment satisfy every atom?

        A variable missing from the assignment fails the atom, so partial
        assignments are treated pessimistically; the worlds oracle always
        passes total assignments.
        """
        for var, value in self.atoms:
            if assignment.get(var) != value:
                return False
        return True

    def probability(self, registry: VariableRegistry) -> float:
        """Marginal probability of the condition: product over its atoms
        (the variables are independent, and atoms are one-per-variable)."""
        p = 1.0
        for var, value in self.atoms:
            p *= registry.probability(var, value)
            if p == 0.0:
                return 0.0
        return p


#: The empty conjunction (always true).
TRUE_CONDITION = Condition(())
