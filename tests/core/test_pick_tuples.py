"""Tests for the ``pick tuples`` construct (all-subsets semantics)."""

import pytest
from hypothesis import given, settings, strategies as st

from reference.confidence import clause_probability, row_conditions
from reference.worlds import relation_distribution, rows_with_conditions
from repro.core.pick_tuples import pick_tuples
from repro.core.variables import VariableRegistry
from repro.engine.expressions import ColumnRef
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, TEXT
from repro.errors import PickTuplesError


@pytest.fixture
def items():
    schema = Schema.of(("name", TEXT), ("p", FLOAT))
    return Relation(schema, [("a", 0.9), ("b", 0.5), ("c", 0.1)])


class TestAllSubsets:
    def test_default_uniform_over_subsets(self):
        schema = Schema.of(("v", INTEGER))
        relation = Relation(schema, [(1,), (2,)])
        registry = VariableRegistry()
        urel = pick_tuples(relation, registry)
        buckets = relation_distribution(urel)
        assert len(buckets) == 4  # {}, {1}, {2}, {1,2}
        for _, p in buckets:
            assert p == pytest.approx(0.25)

    def test_probability_column(self, items):
        registry = VariableRegistry()
        urel = pick_tuples(items, registry, probability="p")
        for payload, condition in rows_with_conditions(urel):
            assert clause_probability(condition, registry) == pytest.approx(payload[1])

    def test_probability_constant(self, items):
        registry = VariableRegistry()
        urel = pick_tuples(items, registry, probability=0.25)
        for _, condition in rows_with_conditions(urel):
            assert clause_probability(condition, registry) == pytest.approx(0.25)

    def test_probability_expression(self, items):
        registry = VariableRegistry()
        urel = pick_tuples(items, registry, probability=ColumnRef("p"))
        probs = [clause_probability(c, registry) for c in row_conditions(urel)]
        assert probs == pytest.approx([0.9, 0.5, 0.1])

    def test_empty_input(self):
        schema = Schema.of(("v", INTEGER))
        registry = VariableRegistry()
        urel = pick_tuples(Relation(schema, []), registry)
        assert len(urel) == 0

    def test_probability_out_of_range_rejected(self, items):
        registry = VariableRegistry()
        with pytest.raises(PickTuplesError):
            pick_tuples(items, registry, probability=1.5)

    def test_zero_and_one_probabilities_allowed(self):
        schema = Schema.of(("v", INTEGER), ("p", FLOAT))
        relation = Relation(schema, [(1, 0.0), (2, 1.0)])
        registry = VariableRegistry()
        urel = pick_tuples(relation, registry, probability="p")
        probs = [clause_probability(c, registry) for c in row_conditions(urel)]
        assert probs == pytest.approx([0.0, 1.0])


class TestDuplicateHandling:
    def test_default_duplicates_share_fate(self):
        schema = Schema.of(("v", INTEGER))
        relation = Relation(schema, [(1,), (1,)])
        registry = VariableRegistry()
        urel = pick_tuples(relation, registry, probability=0.5)
        assert len(registry) == 1  # one shared variable
        buckets = relation_distribution(urel, distinct=False)
        # Either both copies or neither: two outcomes.
        sizes = sorted(len(rel) for rel, _ in buckets)
        assert sizes == [0, 2]

    def test_independently_gives_fresh_variables(self):
        schema = Schema.of(("v", INTEGER))
        relation = Relation(schema, [(1,), (1,)])
        registry = VariableRegistry()
        urel = pick_tuples(relation, registry, probability=0.5, independently=True)
        assert len(registry) == 2
        buckets = relation_distribution(urel, distinct=False)
        # The two single-copy worlds yield equal instances and merge.
        masses = {len(rel): p for rel, p in buckets}
        assert sorted(masses) == [0, 1, 2]
        assert masses[1] == pytest.approx(0.5)

    def test_modes_coincide_without_duplicates(self, items):
        registry_a = VariableRegistry()
        shared = pick_tuples(items, registry_a, probability="p")
        registry_b = VariableRegistry()
        independent = pick_tuples(
            items, registry_b, probability="p", independently=True
        )
        dist_a = {
            tuple(sorted(rel.rows)): p for rel, p in relation_distribution(shared)
        }
        dist_b = {
            tuple(sorted(rel.rows)): p
            for rel, p in relation_distribution(independent)
        }
        assert set(dist_a) == set(dist_b)
        for key in dist_a:
            assert dist_a[key] == pytest.approx(dist_b[key])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_subset_masses_sum_to_one(self, probs):
        schema = Schema.of(("v", INTEGER), ("p", FLOAT))
        relation = Relation(schema, [(i, p) for i, p in enumerate(probs)])
        registry = VariableRegistry()
        urel = pick_tuples(relation, registry, probability="p", independently=True)
        total = sum(p for _, p in relation_distribution(urel))
        assert total == pytest.approx(1.0)
