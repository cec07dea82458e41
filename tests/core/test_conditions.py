"""Tests for conditions (conjunctions of variable assignments)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.variables import TOP_VARIABLE, VariableRegistry


@pytest.fixture
def registry():
    r = VariableRegistry()
    # Three ternary variables x1, x2, x3.
    for _ in range(3):
        r.fresh([0.5, 0.3, 0.2])
    return r


class TestConstruction:
    def test_canonical_ordering(self):
        a = Condition.of([(2, 1), (1, 0)])
        b = Condition.of([(1, 0), (2, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicate_atoms_collapse(self):
        c = Condition.of([(1, 0), (1, 0)])
        assert len(c) == 1

    def test_contradiction_returns_none(self):
        assert Condition.of([(1, 0), (1, 1)]) is None

    def test_top_atoms_dropped(self):
        c = Condition.of([(TOP_VARIABLE, 0), (1, 2)])
        assert c.atoms == ((1, 2),)

    def test_atom_constructor(self):
        assert Condition.atom(1, 2).atoms == ((1, 2),)
        assert Condition.atom(TOP_VARIABLE, 0) is TRUE_CONDITION

    def test_true_condition(self):
        assert TRUE_CONDITION.is_true
        assert len(TRUE_CONDITION) == 0


class TestAlgebra:
    def test_conjoin_disjoint(self):
        a = Condition.atom(1, 0)
        b = Condition.atom(2, 1)
        merged = a.conjoin(b)
        assert merged.variables() == {1, 2}

    def test_conjoin_agreeing(self):
        a = Condition.of([(1, 0), (2, 1)])
        b = Condition.atom(1, 0)
        assert a.conjoin(b) == a

    def test_conjoin_contradicting(self):
        assert Condition.atom(1, 0).conjoin(Condition.atom(1, 1)) is None

    def test_conjoin_with_true(self):
        a = Condition.atom(1, 0)
        assert TRUE_CONDITION.conjoin(a) == a
        assert a.conjoin(TRUE_CONDITION) == a

    def test_subsumes(self):
        weak = Condition.atom(1, 0)
        strong = Condition.of([(1, 0), (2, 1)])
        assert weak.subsumes(strong)
        assert not strong.subsumes(weak)
        assert TRUE_CONDITION.subsumes(weak)


class TestSemantics:
    def test_satisfied_by(self):
        c = Condition.of([(1, 0), (2, 1)])
        assert c.satisfied_by({1: 0, 2: 1, 3: 2})
        assert not c.satisfied_by({1: 0, 2: 0, 3: 2})
        assert not c.satisfied_by({1: 0})  # missing variable fails

    def test_true_satisfied_by_anything(self):
        assert TRUE_CONDITION.satisfied_by({})

    def test_probability_product(self, registry):
        c = Condition.of([(1, 0), (2, 1)])
        assert c.probability(registry) == pytest.approx(0.5 * 0.3)

    def test_probability_true_is_one(self, registry):
        assert TRUE_CONDITION.probability(registry) == 1.0

    def test_probability_zero_short_circuit(self, registry):
        var = registry.fresh([0.0, 1.0])
        c = Condition.of([(var, 0), (1, 0)])
        assert c.probability(registry) == 0.0


@st.composite
def atom_lists(draw):
    n = draw(st.integers(0, 6))
    return [
        (draw(st.integers(1, 4)), draw(st.integers(0, 2))) for _ in range(n)
    ]


class TestProperties:
    @given(atom_lists(), atom_lists())
    def test_conjoin_commutative(self, a_atoms, b_atoms):
        a = Condition.of(a_atoms)
        b = Condition.of(b_atoms)
        if a is None or b is None:
            return
        ab = a.conjoin(b)
        ba = b.conjoin(a)
        assert ab == ba

    @given(atom_lists())
    def test_of_idempotent(self, atoms):
        c = Condition.of(atoms)
        if c is None:
            return
        assert Condition.of(c.atoms) == c

    @given(atom_lists(), atom_lists())
    def test_conjoin_satisfaction(self, a_atoms, b_atoms):
        """A world satisfies a ∧ b iff it satisfies both."""
        a = Condition.of(a_atoms)
        b = Condition.of(b_atoms)
        if a is None or b is None:
            return
        merged = a.conjoin(b)
        world = {var: 0 for var in range(1, 5)}
        lhs = (merged is not None) and merged.satisfied_by(world)
        rhs = a.satisfied_by(world) and b.satisfied_by(world)
        assert lhs == rhs
