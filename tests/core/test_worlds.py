"""Tests for possible-worlds enumeration (the testing oracle itself)."""

import pytest
from hypothesis import given, settings, strategies as st

from reference.worlds import (
    enumerate_worlds,
    expected_aggregate_by_enumeration,
    relation_distribution,
    tuple_confidence_by_enumeration,
    world_probability,
)
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.engine.schema import Schema
from repro.engine.types import INTEGER, TEXT


class TestEnumeration:
    def test_world_count_and_mass(self):
        registry = VariableRegistry()
        registry.fresh([0.5, 0.5])
        registry.fresh([0.2, 0.3, 0.5])
        worlds = list(enumerate_worlds(registry))
        assert len(worlds) == 6
        assert sum(p for _, p in worlds) == pytest.approx(1.0)

    def test_zero_probability_worlds_skipped(self):
        registry = VariableRegistry()
        registry.fresh([0.0, 1.0])
        worlds = list(enumerate_worlds(registry))
        assert len(worlds) == 1
        assert worlds[0][0] == {1: 1}

    def test_zero_probability_worlds_included_on_request(self):
        registry = VariableRegistry()
        registry.fresh([0.0, 1.0])
        worlds = list(enumerate_worlds(registry, include_zero_probability=True))
        assert len(worlds) == 2

    def test_restricted_variables(self):
        registry = VariableRegistry()
        a = registry.fresh([0.5, 0.5])
        registry.fresh([0.5, 0.5])
        worlds = list(enumerate_worlds(registry, [a]))
        assert len(worlds) == 2
        assert all(set(w) == {a} for w, _ in worlds)

    def test_world_probability(self):
        registry = VariableRegistry()
        a = registry.fresh([0.25, 0.75])
        b = registry.fresh([0.5, 0.5])
        assert world_probability(registry, {a: 1, b: 0}) == pytest.approx(0.375)

    @given(st.lists(st.integers(2, 3), min_size=1, max_size=4))
    @settings(max_examples=25)
    def test_probabilities_always_sum_to_one(self, sizes):
        registry = VariableRegistry()
        for size in sizes:
            registry.fresh([1.0 / size] * size)
        total = sum(p for _, p in enumerate_worlds(registry))
        assert total == pytest.approx(1.0)


class TestOracles:
    @pytest.fixture
    def urel(self):
        registry = VariableRegistry()
        x = registry.fresh([0.3, 0.7], name="x")
        y = registry.fresh([0.6, 0.4], name="y")
        schema = Schema.of(("k", TEXT), ("v", INTEGER))
        return URelation.from_conditions(
            schema,
            [("a", 1), ("a", 1), ("b", 2)],
            [((x, 1),), ((y, 1),), ((x, 0),)],
            registry,
        )

    def test_tuple_confidence(self, urel):
        # ("a",1) present iff x=1 or y=1: 1 - 0.3*0.6 = 0.82
        assert tuple_confidence_by_enumeration(urel, ("a", 1)) == pytest.approx(0.82)
        assert tuple_confidence_by_enumeration(urel, ("b", 2)) == pytest.approx(0.3)
        assert tuple_confidence_by_enumeration(urel, ("zzz", 0)) == 0.0

    def test_relation_distribution_masses(self, urel):
        buckets = relation_distribution(urel)
        assert sum(p for _, p in buckets) == pytest.approx(1.0)
        # Instances: x=1,y=1 -> {a}, x=1,y=0 -> {a}, x=0,y=1 -> {a, b},
        # x=0,y=0 -> {b}: three distinct instances.
        assert len(buckets) == 3

    def test_expected_count(self, urel):
        # E[count] with duplicates: P(x=1) + P(y=1) + P(x=0) = 0.7+0.4+0.3
        assert expected_aggregate_by_enumeration(urel) == pytest.approx(1.4)

    def test_expected_sum(self, urel):
        # E[sum of v]: 1*0.7 + 1*0.4 + 2*0.3
        assert expected_aggregate_by_enumeration(urel, 1) == pytest.approx(1.7)
