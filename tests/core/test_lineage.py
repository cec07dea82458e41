"""Tests for the shared lineage IR (repro.core.lineage)."""

import random

import pytest

from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.confidence.naive import confidence_by_enumeration
from repro.core.lineage import (
    ClauseArena,
    Lineage,
    combine_independent,
    group_lineages,
)
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.core.worlds import tuple_confidence_by_enumeration
from repro.datagen.random_dnf import random_dnf
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER


def atom(var, value=1):
    return Condition.atom(var, value)


def clause(*atoms):
    condition = Condition.of(list(atoms))
    assert condition is not None
    return condition


@pytest.fixture
def registry():
    return VariableRegistry()


class TestArena:
    def test_interning_shares_equal_clauses(self, registry):
        x = registry.fresh_boolean(0.5)
        arena = ClauseArena(registry)
        a = arena.intern(Condition.of([(x, 1)]))
        b = arena.intern(Condition.of([(x, 1)]))
        assert a is b

    def test_probability_cached_per_clause(self, registry):
        x = registry.fresh_boolean(0.25)
        arena = ClauseArena(registry)
        c = arena.intern(atom(x))
        assert arena.probability(c) == pytest.approx(0.25)
        # Second read comes from the cache (same value, no recompute).
        assert arena.probability(c) == pytest.approx(0.25)

    def test_variables_cached(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        arena = ClauseArena(registry)
        c = arena.intern(clause((x, 1), (y, 0)))
        assert arena.variables(c) == frozenset({x, y})


class TestClassification:
    def test_empty_lineage_is_false(self, registry):
        lin = Lineage.from_clauses([], registry)
        assert lin.is_false
        assert lin.closed_form_probability() == 0.0

    def test_true_clause_makes_lineage_true(self, registry):
        x = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), TRUE_CONDITION], registry)
        assert lin.is_true
        assert lin.simplified().closed_form_probability() == 1.0

    def test_duplicates_kept_until_simplified(self, registry):
        # Construction interns (one shared object) but keeps the sequence:
        # clause order is the Karp-Luby canonical-witness order.
        x = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), atom(x)], registry)
        assert len(lin) == 2 and lin.clauses[0] is lin.clauses[1]

    def test_contradictory_conditions_dropped_at_construction(self, registry):
        x = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([None, atom(x), None], registry)
        assert len(lin) == 1

    def test_variables_union(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        z = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([clause((x, 1), (y, 1)), atom(z)], registry)
        assert lin.variables() == frozenset({x, y, z})

    def test_occurrence_counts(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses(
            [clause((x, 1), (y, 1)), atom(x, 0), atom(y, 0)], registry
        )
        assert lin.occurrence_counts() == {x: 2, y: 2}

    def test_satisfied_by_and_first_satisfied_clause(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x, 0), atom(y, 1)], registry)
        assert lin.satisfied_by({x: 0, y: 0})
        assert not lin.satisfied_by({x: 1, y: 0})
        assert lin.first_satisfied_clause({x: 0, y: 1}) == 0
        assert lin.first_satisfied_clause({x: 1, y: 1}) == 1
        assert lin.first_satisfied_clause({x: 1, y: 0}) is None

    def test_canonical_key_ignores_clause_order(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        a = Lineage.from_clauses([atom(x), atom(y, 0)], registry)
        b = Lineage.from_clauses([atom(y, 0), atom(x)], registry)
        assert a.canonical_key() == b.canonical_key()


class TestSimplification:
    def test_duplicates_removed(self, registry):
        x = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), atom(x)], registry).simplified()
        assert len(lin) == 1

    def test_zero_probability_clause_dropped(self, registry):
        x = registry.fresh({0: 1.0, 1: 0.0})
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x, 1), atom(y)], registry).simplified()
        assert len(lin) == 1
        assert lin.clauses[0] == atom(y)

    def test_subsumed_clause_absorbed(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses(
            [clause((x, 1), (y, 1)), atom(x)], registry
        ).simplified()
        assert list(lin.clauses) == [atom(x)]

    def test_certain_clause_absorbs_everything(self, registry):
        x = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), TRUE_CONDITION], registry)
        assert list(lin.simplified().clauses) == [TRUE_CONDITION]

    def test_simplified_idempotent(self, registry):
        x = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x)], registry).simplified()
        assert lin.simplified() is lin


class TestComponents:
    def test_disjoint_clauses_split(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), atom(y)], registry)
        components = lin.components()
        assert len(components) == 2

    def test_shared_variable_joins(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        z = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses(
            [clause((x, 1), (y, 1)), clause((y, 1), (z, 1))], registry
        )
        assert len(lin.components()) == 1

    def test_certain_clauses_each_own_component(self, registry):
        lin = Lineage((TRUE_CONDITION, TRUE_CONDITION), ClauseArena(registry))
        assert len(lin.components()) == 2

    def test_connected_lineage_is_its_own_component(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([clause((x, 1), (y, 1)), atom(x, 0)], registry)
        assert lin.components() == [lin] and lin.components()[0] is lin

    def test_components_keep_the_simplified_mark(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), atom(y), atom(x)], registry).simplified()
        assert all(part.simplified() is part for part in lin.components())

    def test_components_share_arena(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), atom(y)], registry)
        for component in lin.components():
            assert component.arena is lin.arena


class TestClosedForms:
    def test_single_clause_product(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.4)
        lin = Lineage.from_clauses([clause((x, 1), (y, 1))], registry)
        assert lin.closed_form_probability() == pytest.approx(0.2)

    def test_independent_clauses(self, registry):
        probabilities = [0.3, 0.5, 0.2]
        variables = [registry.fresh_boolean(p) for p in probabilities]
        lin = Lineage.from_clauses([atom(v) for v in variables], registry)
        expected = 1.0 - (0.7 * 0.5 * 0.8)
        assert lin.closed_form_probability() == pytest.approx(expected)

    def test_shared_variables_no_closed_form(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses(
            [clause((x, 1), (y, 1)), atom(x)], registry
        )
        assert lin.closed_form_probability() is None

    def test_combine_independent(self):
        assert combine_independent([0.5, 0.5]) == pytest.approx(0.75)
        assert combine_independent([]) == 0.0


class TestStats:
    def test_counts_and_width(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([clause((x, 1), (y, 1)), atom(x)], registry)
        stats = lin.stats()
        assert stats.clause_count == 2
        assert stats.variable_count == 2
        assert stats.atom_count == 3
        assert stats.max_width == 2
        assert not stats.independent

    def test_independent_stat(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), atom(y)], registry)
        assert lin.stats().independent
        assert lin.stats().hierarchical is True

    def test_hierarchical_two_level(self, registry):
        # {r ∧ s1, r ∧ s2}: cl(r) = {0,1}, cl(si) = {i} -- laminar.
        r = registry.fresh_boolean(0.5)
        s = [registry.fresh_boolean(0.5) for _ in range(2)]
        lin = Lineage.from_clauses(
            [clause((r, 1), (s[0], 1)), clause((r, 1), (s[1], 1))], registry
        )
        assert lin.stats().hierarchical is True

    def test_hierarchy_test_skipped_above_the_variable_limit(self, registry):
        variables = [registry.fresh_boolean(0.5) for _ in range(70)]
        lin = Lineage.from_clauses(
            [clause((a, 1), (b, 1)) for a, b in zip(variables, variables[1:])],
            registry,
        )
        assert lin.stats().hierarchical is None

    def test_non_hierarchical_crossing(self, registry):
        # {x∧y, y∧z, z∧w}: cl(y)={0,1}, cl(z)={1,2} cross.
        x, y, z, w = (registry.fresh_boolean(0.5) for _ in range(4))
        lin = Lineage.from_clauses(
            [
                clause((x, 1), (y, 1)),
                clause((y, 1), (z, 1)),
                clause((z, 1), (w, 1)),
            ],
            registry,
        )
        assert lin.stats().hierarchical is False


class TestRestrict:
    def test_restrict_consumes_and_drops(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses(
            [clause((x, 1), (y, 1)), clause((x, 0), (y, 1))], registry
        )
        restricted = lin.restrict(x, 1)
        assert list(restricted.clauses) == [atom(y)]

    def test_cofactors_are_interned_in_the_same_arena(self, registry):
        # The exact engine's recursion shares probability/variable caches
        # between a lineage and every cofactor it expands.
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([clause((x, 1), (y, 1)), atom(y)], registry)
        restricted = lin.restrict(x, 1)
        assert restricted.arena is lin.arena
        assert restricted.clauses[0] is lin.clauses[1]

    def test_restrict_on_an_absent_variable_keeps_every_clause(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x), atom(x, 0)], registry)
        assert list(lin.restrict(y, 1).clauses) == list(lin.clauses)

    def test_restrict_can_make_the_lineage_certain(self, registry):
        x = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x)], registry)
        assert lin.restrict(x, 1).is_true
        assert lin.restrict(x, 0).is_false

    def test_root_variables(self, registry):
        r = registry.fresh_boolean(0.5)
        s = [registry.fresh_boolean(0.5) for _ in range(2)]
        lin = Lineage.from_clauses(
            [clause((r, 1), (s[0], 1)), clause((r, 1), (s[1], 1))], registry
        )
        assert lin.root_variables() == frozenset({r})


class TestGroupLineages:
    def _urelation(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        schema = Schema([Column("a", INTEGER)])
        rows = [(1,), (1,), (2,)]
        conditions = [atom(x), atom(y), atom(x)]
        return URelation.from_conditions(schema, rows, conditions, registry)

    def test_groups_share_one_arena(self, registry):
        urel = self._urelation(registry)
        lineages = group_lineages(urel, [[0, 1], [2]])
        assert lineages[0].arena is lineages[1].arena
        assert len(lineages[0]) == 2
        assert len(lineages[1]) == 1

    def test_interning_across_groups(self, registry):
        urel = self._urelation(registry)
        lineages = group_lineages(urel, [[0, 1], [2]])
        # Row 0 and row 2 carry the same condition: one interned clause.
        assert lineages[0].clauses[0] is lineages[1].clauses[0]

    def test_agrees_with_enumeration(self, registry):
        urel = self._urelation(registry)
        lineages = group_lineages(urel, [[0, 1], [2]])
        for lineage, key in zip(lineages, [(1,), (2,)]):
            assert confidence_by_enumeration(lineage, registry) == pytest.approx(
                tuple_confidence_by_enumeration(urel, key)
            )


class TestRandomized:
    def test_components_partition_into_connected_independent_parts(self):
        rng = random.Random(11)
        for _ in range(20):
            lin, registry = random_dnf(8, 6, 3, rng, domain_size=3)
            components = lin.components()
            assert sorted(c.atoms for part in components for c in part) == sorted(
                c.atoms for c in lin
            )
            for i, part in enumerate(components):
                assert len(part.components()) == 1
                for other in components[i + 1:]:
                    assert not part.variables() & other.variables()
