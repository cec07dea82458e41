"""Tests for the shared lineage IR (repro.core.lineage)."""

import random

import pytest

from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.confidence.exact import components
from repro.core.confidence.naive import confidence_by_enumeration
from repro.core.lineage import (
    ClauseArena,
    Lineage,
    combine_independent,
    group_lineages,
    simplify_clauses,
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

    def test_satisfied_by_and_first_satisfied_clause(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([atom(x, 0), atom(y, 1)], registry)
        assert lin.satisfied_by({x: 0, y: 0})
        assert not lin.satisfied_by({x: 1, y: 0})
        assert lin.first_satisfied_clause({x: 0, y: 1}) == 0
        assert lin.first_satisfied_clause({x: 1, y: 1}) == 1
        assert lin.first_satisfied_clause({x: 1, y: 0}) is None


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

    def test_clauses_keep_their_order_when_none_goes(self):
        clauses = [((2, 1), (3, 1)), ((1, 1),)]
        assert simplify_clauses(clauses, lambda c: 0.5) is clauses

    def test_kept_clauses_come_shortest_first(self):
        wide = tuple((var, 1) for var in range(1, 15))
        clauses = [((20, 1), (21, 1)), wide + ((15, 1),), ((30, 1),), wide, ((30, 1),)]
        assert simplify_clauses(clauses, lambda c: 0.5) == [
            ((30, 1),), ((20, 1), (21, 1)), wide  # the wider one absorbed
        ]

    def test_certain_and_zero_probability_clauses(self):
        zero = lambda c: 0.0 if (9, 1) in c else 0.5
        assert simplify_clauses([((1, 1),), ()], zero) == [()]
        assert simplify_clauses([((1, 1),), ((9, 1), (2, 1))], zero) == [((1, 1),)]


class TestComponents:
    """The dispatcher's split of a simplified group (the exact engine's
    :func:`components`), on atom tuples."""

    def test_disjoint_clauses_split(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        assert len(components([((x, 1),), ((y, 1),)])) == 2

    def test_shared_variable_joins(self, registry):
        x, y, z = (registry.fresh_boolean(0.5) for _ in range(3))
        assert components([((x, 1), (y, 1)), ((y, 1), (z, 1))]) == [
            ([((x, 1), (y, 1)), ((y, 1), (z, 1))], 3)
        ]

    def test_connected_clauses_keep_their_order(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        clauses = [((x, 1), (y, 1)), ((x, 0),)]
        assert components(clauses) == [(clauses, 2)]

    def test_each_component_counts_its_variables(self, registry):
        x, y, z = (registry.fresh_boolean(0.5) for _ in range(3))
        parts = components([((x, 1),), ((y, 1), (z, 0)), ((x, 0),)])
        assert sorted(parts) == [([((x, 1),), ((x, 0),)], 1), ([((y, 1), (z, 0))], 2)]


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
    def test_counts(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        lin = Lineage.from_clauses([clause((x, 1), (y, 1)), atom(x)], registry)
        stats = lin.stats()
        assert stats.clause_count == 2
        assert stats.variable_count == 2


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
            clauses = [c.atoms for c in lin.simplified()]
            parts = components(clauses)
            assert sorted(c for part, _ in parts for c in part) == sorted(clauses)
            variables = [{var for c in part for var, _ in c} for part, _ in parts]
            assert [count for _, count in parts] == [len(vs) for vs in variables]
            for i, (part, _) in enumerate(parts):
                assert len(components(part)) == 1
                for other in variables[i + 1:]:
                    assert not variables[i] & other
