"""Tests for the clause form of lineage (repro.core.lineage)."""

import random

import pytest
from hypothesis import given, strategies as st

from reference.naive import confidence_by_enumeration
from reference.worlds import tuple_confidence_by_enumeration
from repro.core import lineage
from repro.core.confidence.exact import components
from repro.core.lineage import (
    canonical_clause,
    clause_probability,
    closed_form,
    combine_independent,
    group_lineages,
    simplify_clauses,
)
from repro.core.urelation import URelation, condition_columns
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.datagen.random_dnf import random_dnf
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER


@pytest.fixture
def registry():
    return VariableRegistry()


def chances(registry):
    """P(clause) under ``registry``, as the dispatcher computes it."""
    variables = list(registry.variables())
    distributions = dict(zip(variables, registry.distributions(variables)))
    return lambda clause: clause_probability(clause, distributions)


class TestCanonicalClause:
    def test_canonical_ordering(self):
        assert canonical_clause([(2, 1), (1, 0)]) == ((1, 0), (2, 1))
        assert canonical_clause([(1, 0), (2, 1)]) == ((1, 0), (2, 1))

    def test_duplicate_atoms_collapse(self):
        assert canonical_clause([(1, 0), (1, 0)]) == ((1, 0),)

    def test_contradiction_returns_none(self):
        assert canonical_clause([(1, 0), (1, 1)]) is None

    def test_top_atoms_dropped(self):
        assert canonical_clause([(TOP_VARIABLE, 0), (1, 2)]) == ((1, 2),)
        assert canonical_clause([(TOP_VARIABLE, 0), (TOP_VARIABLE, 1)]) == ()


@st.composite
def atom_lists(draw):
    n = draw(st.integers(0, 6))
    return [(draw(st.integers(0, 4)), draw(st.integers(0, 2))) for _ in range(n)]


class TestCanonicalClauseProperties:
    @given(atom_lists())
    def test_idempotent(self, atoms):
        clause = canonical_clause(atoms)
        if clause is not None:
            assert canonical_clause(clause) == clause

    @given(atom_lists(), atom_lists())
    def test_order_of_the_atoms_does_not_matter(self, a_atoms, b_atoms):
        assert canonical_clause(a_atoms + b_atoms) == canonical_clause(b_atoms + a_atoms)

    @given(atom_lists(), atom_lists())
    def test_a_joined_row_is_the_conjunction(self, a_atoms, b_atoms):
        """A world satisfies the clause of a ∧ b iff it satisfies every
        non-padding atom of both."""
        merged = canonical_clause(a_atoms + b_atoms)
        world = {var: 0 for var in range(1, 5)}
        lhs = merged is not None and all(world[var] == value for var, value in merged)
        rhs = all(
            world[var] == value for var, value in a_atoms + b_atoms if var != TOP_VARIABLE
        )
        assert lhs == rhs


class TestClauseProbability:
    def test_product_of_the_atoms(self, registry):
        x = registry.fresh([0.5, 0.3, 0.2])
        y = registry.fresh([0.5, 0.3, 0.2])
        assert chances(registry)(((x, 0), (y, 1))) == pytest.approx(0.5 * 0.3)

    def test_certain_clause_is_one(self, registry):
        assert clause_probability((), {}) == 1.0

    def test_value_outside_the_domain_is_zero(self, registry):
        x = registry.fresh_boolean(0.5)
        z = registry.fresh([0.0, 1.0])
        assert chances(registry)(((x, 7),)) == 0.0
        assert chances(registry)(((x, 1), (z, 0))) == 0.0

    def test_same_floats_as_the_registry(self):
        rng = random.Random(5)
        registry = VariableRegistry()
        variables = []
        for _ in range(6):
            weights = [rng.random() + 0.01 for _ in range(3)]
            variables.append(registry.fresh([w / sum(weights) for w in weights]))
        probability = chances(registry)
        for _ in range(50):
            clause = tuple(sorted((v, rng.randrange(3)) for v in rng.sample(variables, 4)))
            assert probability(clause) == registry.assignment_probability(dict(clause))


class TestSimplification:
    def test_duplicates_removed(self, registry):
        x = registry.fresh_boolean(0.5)
        assert simplify_clauses([((x, 1),), ((x, 1),)], chances(registry)) == [((x, 1),)]

    def test_zero_probability_clause_dropped(self, registry):
        x = registry.fresh({0: 1.0, 1: 0.0})
        y = registry.fresh_boolean(0.5)
        kept = simplify_clauses([((x, 1),), ((y, 1),)], chances(registry))
        assert kept == [((y, 1),)]

    def test_subsumed_clause_absorbed(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        kept = simplify_clauses([((x, 1), (y, 1)), ((x, 1),)], chances(registry))
        assert kept == [((x, 1),)]

    def test_certain_clause_absorbs_everything(self, registry):
        x = registry.fresh_boolean(0.5)
        assert simplify_clauses([((x, 1),), ()], chances(registry)) == [()]

    def test_simplified_idempotent(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        kept = simplify_clauses([((x, 1), (y, 1)), ((y, 0),), ((y, 0),)], chances(registry))
        assert simplify_clauses(kept, chances(registry)) is kept

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
    def test_false(self, registry):
        assert closed_form([], chances(registry)) == 0.0

    def test_true(self, registry):
        assert closed_form([()], chances(registry)) == 1.0

    def test_single_clause_product(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.4)
        assert closed_form([((x, 1), (y, 1))], chances(registry)) == pytest.approx(0.2)

    def test_independent_clauses(self, registry):
        probabilities = [0.3, 0.5, 0.2]
        variables = [registry.fresh_boolean(p) for p in probabilities]
        clauses = [((v, 1),) for v in variables]
        expected = 1.0 - (0.7 * 0.5 * 0.8)
        assert closed_form(clauses, chances(registry)) == pytest.approx(expected)

    def test_shared_variables_no_closed_form(self, registry):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        assert closed_form([((x, 1), (y, 1)), ((x, 1),)], chances(registry)) is None

    def test_combine_independent(self):
        assert combine_independent([0.5, 0.5]) == pytest.approx(0.75)
        assert combine_independent([]) == 0.0


class TestGroupLineages:
    def _urelation(self, registry, source=None):
        x = registry.fresh_boolean(0.5)
        y = registry.fresh_boolean(0.5)
        schema = Schema([Column("a", INTEGER)])
        rows = [(1,), (1,), (2,)]
        conditions = [((x, 1),), ((y, 1),), ((x, 1),)]
        urel = URelation.from_conditions(schema, rows, conditions, registry)
        urel.relation.source = source
        return urel

    def test_each_group_gets_its_rows_clauses_in_row_order(self, registry):
        urel = self._urelation(registry)
        x, y = urel.registry.variables()
        assert group_lineages(urel, [[1, 0], [2]]) == [[((y, 1),), ((x, 1),)], [((x, 1),)]]

    def test_contradictory_rows_contribute_no_clause(self, registry):
        x = registry.fresh_boolean(0.5)
        schema = Schema([Column("a", INTEGER)] + condition_columns(2))
        relation = Relation(schema, [(1, x, 1, x, 0), (1, x, 1, x, 1)])
        urel = URelation(relation, 1, 2, registry)
        assert group_lineages(urel, [[0, 1]]) == [[((x, 1),)]]

    def test_a_stored_relation_decodes_once(self, registry, monkeypatch):
        urel = self._urelation(registry, source=("t", 1))
        decoded = []
        row_clauses = lineage.row_clauses
        monkeypatch.setattr(
            lineage, "row_clauses", lambda u: decoded.append(1) or row_clauses(u)
        )
        first = group_lineages(urel, [[0, 1], [2]])
        assert group_lineages(urel, [[2], [0]]) == [first[1], first[0][:1]]
        assert len(decoded) == 1

    def test_agrees_with_enumeration(self, registry):
        urel = self._urelation(registry)
        groups = group_lineages(urel, [[0, 1], [2]])
        for clauses, key in zip(groups, [(1,), (2,)]):
            assert confidence_by_enumeration(clauses, registry) == pytest.approx(
                tuple_confidence_by_enumeration(urel, key)
            )


class TestRandomized:
    def test_components_partition_into_connected_independent_parts(self):
        rng = random.Random(11)
        for _ in range(20):
            raw, registry = random_dnf(8, 6, 3, rng, domain_size=3)
            clauses = simplify_clauses(raw, chances(registry))
            parts = components(clauses)
            assert sorted(c for part, _ in parts for c in part) == sorted(clauses)
            variables = [{var for c in part for var, _ in c} for part, _ in parts]
            assert [count for _, count in parts] == [len(vs) for vs in variables]
            for i, (part, _) in enumerate(parts):
                assert len(components(part)) == 1
                for other in variables[i + 1:]:
                    assert not variables[i] & other
