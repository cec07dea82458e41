"""Tests for the ``repair key`` construct against possible-worlds semantics.

The defining property (Section 2.2): the worlds of ``repair key K in R``
are exactly the *maximal repairs* of key K in R -- one surviving tuple per
key group, all combinations, with probabilities proportional to weights
within each group.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from reference.confidence import clause_probability, row_conditions
from reference.worlds import (
    enumerate_worlds,
    in_world,
    relation_distribution,
    rows_with_conditions,
)
from repro.core.repair_key import repair_key
from repro.core.variables import VariableRegistry
from repro.engine.expressions import Arithmetic, ColumnRef, Literal
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, NULL, TEXT
from repro.errors import RepairKeyError


@pytest.fixture
def fitness():
    schema = Schema.of(("init", TEXT), ("final", TEXT), ("p", FLOAT))
    return Relation(
        schema,
        [
            ("F", "F", 0.8),
            ("F", "SE", 0.05),
            ("F", "SL", 0.15),
            ("SE", "F", 0.1),
            ("SE", "SE", 0.6),
            ("SE", "SL", 0.3),
        ],
    )


class TestBasicSemantics:
    def test_one_variable_per_group(self, fitness):
        registry = VariableRegistry()
        urel = repair_key(fitness, ["init"], registry, weight_by="p")
        assert len(registry) == 2  # two Init groups
        assert len(urel) == 6  # all candidate tuples kept

    def test_group_alternatives_are_exclusive(self, fitness):
        registry = VariableRegistry()
        urel = repair_key(fitness, ["init"], registry, weight_by="p")
        # In every world, exactly one Final per Init survives.
        for world, _ in enumerate_worlds(registry):
            instance = in_world(urel, world)
            by_init = {}
            for row in instance:
                by_init.setdefault(row[0], []).append(row)
            assert all(len(v) == 1 for v in by_init.values())
            assert set(by_init) == {"F", "SE"}

    def test_probabilities_are_normalized_weights(self, fitness):
        registry = VariableRegistry()
        urel = repair_key(fitness, ["init"], registry, weight_by="p")
        for payload, condition in rows_with_conditions(urel):
            assert clause_probability(condition, registry) == pytest.approx(payload[2])

    def test_uniform_when_no_weight(self):
        schema = Schema.of(("k", INTEGER), ("v", TEXT))
        relation = Relation(schema, [(1, "a"), (1, "b"), (1, "c"), (2, "z")])
        registry = VariableRegistry()
        urel = repair_key(relation, ["k"], registry)
        for payload, condition in rows_with_conditions(urel):
            expected = 1.0 / 3.0 if payload[0] == 1 else 1.0
            assert clause_probability(condition, registry) == pytest.approx(expected)

    def test_empty_key_single_global_choice(self):
        schema = Schema.of(("v", TEXT), ("w", FLOAT))
        relation = Relation(schema, [("a", 1.0), ("b", 3.0)])
        registry = VariableRegistry()
        urel = repair_key(relation, [], registry, weight_by="w")
        buckets = relation_distribution(urel)
        masses = {tuple(sorted(rel.rows)): p for rel, p in buckets}
        assert masses[(("a", 1.0),)] == pytest.approx(0.25)
        assert masses[(("b", 3.0),)] == pytest.approx(0.75)

    def test_single_candidate_group_is_certain(self):
        schema = Schema.of(("k", INTEGER), ("v", TEXT))
        relation = Relation(schema, [(1, "only")])
        registry = VariableRegistry()
        urel = repair_key(relation, ["k"], registry)
        assert len(registry) == 0  # no variable created
        condition = row_conditions(urel)[0]
        assert condition == ()

    def test_key_already_valid_means_one_world(self, fitness):
        registry = VariableRegistry()
        urel = repair_key(fitness, ["init", "final"], registry, weight_by="p")
        assert len(registry) == 0
        assert all(c == () for c in row_conditions(urel))

    def test_empty_relation(self):
        schema = Schema.of(("k", INTEGER))
        registry = VariableRegistry()
        urel = repair_key(Relation(schema, []), ["k"], registry)
        assert len(urel) == 0

    def test_null_keys_group_together(self):
        schema = Schema.of(("k", INTEGER), ("v", TEXT))
        relation = Relation(schema, [(NULL, "a"), (NULL, "b")])
        registry = VariableRegistry()
        urel = repair_key(relation, ["k"], registry)
        assert len(registry) == 1  # one group for the NULL key


class TestWeights:
    def test_weight_expression(self):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, 1.0), (1, 2.0)])
        registry = VariableRegistry()
        urel = repair_key(
            relation,
            ["k"],
            registry,
            weight_by=Arithmetic("*", ColumnRef("w"), Literal(10.0)),
        )
        probs = [clause_probability(c, registry) for c in row_conditions(urel)]
        assert probs == pytest.approx([1 / 3, 2 / 3])

    def test_weight_callable(self):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, 1.0), (1, 3.0)])
        registry = VariableRegistry()
        urel = repair_key(relation, ["k"], registry, weight_by=lambda row: row[1])
        probs = [clause_probability(c, registry) for c in row_conditions(urel)]
        assert probs == pytest.approx([0.25, 0.75])

    def test_zero_weight_tuple_dropped_from_hypothesis_space(self):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, 0.0), (1, 1.0)])
        registry = VariableRegistry()
        urel = repair_key(relation, ["k"], registry, weight_by="w")
        assert len(urel) == 1
        assert urel.payload_relation().rows == [(1, 1.0)]

    def test_all_zero_group_rejected(self):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, 0.0), (1, 0.0)])
        registry = VariableRegistry()
        with pytest.raises(RepairKeyError):
            repair_key(relation, ["k"], registry, weight_by="w")

    def test_negative_weight_rejected(self):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, -1.0)])
        registry = VariableRegistry()
        with pytest.raises(RepairKeyError):
            repair_key(relation, ["k"], registry, weight_by="w")

    def test_null_weight_rejected(self):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, NULL)])
        registry = VariableRegistry()
        with pytest.raises(RepairKeyError):
            repair_key(relation, ["k"], registry, weight_by="w")

    def test_nan_weight_rejected(self):
        """Regression: NaN passed the ``w < 0`` check (every comparison
        with NaN is False) and poisoned group normalization into NaN
        probabilities."""
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, float("nan")), (1, 1.0)])
        registry = VariableRegistry()
        with pytest.raises(RepairKeyError):
            repair_key(relation, ["k"], registry, weight_by="w")
        # No variable was created for the poisoned group.
        assert len(registry) == 0

    def test_infinite_weight_rejected(self):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, float("inf")), (1, 1.0)])
        registry = VariableRegistry()
        with pytest.raises(RepairKeyError):
            repair_key(relation, ["k"], registry, weight_by="w")

    def test_overflowing_total_weight_rejected(self):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, [(1, 1e308), (1, 1e308)])
        registry = VariableRegistry()
        with pytest.raises(RepairKeyError):
            repair_key(relation, ["k"], registry, weight_by="w")
        assert len(registry) == 0


class TestAgainstWorldsOracle:
    def test_distribution_equals_product_of_group_choices(self, fitness):
        registry = VariableRegistry()
        urel = repair_key(fitness, ["init"], registry, weight_by="p")
        buckets = relation_distribution(urel)
        assert sum(p for _, p in buckets) == pytest.approx(1.0)
        # Every world is a choice of one F-row and one SE-row; its
        # probability is the product of the two normalized weights.
        f_rows = [r for r in fitness if r[0] == "F"]
        se_rows = [r for r in fitness if r[0] == "SE"]
        assert len(buckets) == len(f_rows) * len(se_rows)
        masses = {tuple(sorted(rel.rows)): p for rel, p in buckets}
        for f_row, se_row in itertools.product(f_rows, se_rows):
            key = tuple(sorted([f_row, se_row]))
            assert masses[key] == pytest.approx(f_row[2] * se_row[2])

    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.floats(0.1, 5.0)),
            min_size=1,
            max_size=7,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_group_masses_sum_to_one(self, rows):
        schema = Schema.of(("k", INTEGER), ("w", FLOAT))
        relation = Relation(schema, rows)
        registry = VariableRegistry()
        urel = repair_key(relation, ["k"], registry, weight_by="w")
        # Per key group, the conditions' probabilities sum to 1.
        sums = {}
        for payload, condition in rows_with_conditions(urel):
            sums[payload[0]] = sums.get(payload[0], 0.0) + clause_probability(
                condition, registry
            )
        for total in sums.values():
            assert total == pytest.approx(1.0)
