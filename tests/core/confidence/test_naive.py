"""Cross-checks between the two exponential oracles themselves."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.confidence.naive import (
    confidence_by_enumeration,
    confidence_by_inclusion_exclusion,
)
from repro.core.lineage import Lineage
from repro.core.variables import VariableRegistry
from repro.datagen.random_dnf import random_dnf


def lineage(registry, *clauses):
    return Lineage.from_clauses(clauses, registry)


class TestBaseCases:
    @pytest.fixture
    def registry(self):
        r = VariableRegistry()
        r.fresh([0.25, 0.75])
        r.fresh([0.5, 0.5])
        return r

    def test_false(self, registry):
        assert confidence_by_enumeration(lineage(registry), registry) == 0.0
        assert confidence_by_inclusion_exclusion(lineage(registry), registry) == 0.0

    def test_true(self, registry):
        certain = lineage(registry, TRUE_CONDITION)
        assert confidence_by_enumeration(certain, registry) == 1.0
        assert confidence_by_inclusion_exclusion(certain, registry) == 1.0

    def test_single_atom(self, registry):
        lin = lineage(registry, Condition.atom(1, 1))
        assert confidence_by_enumeration(lin, registry) == pytest.approx(0.75)
        assert confidence_by_inclusion_exclusion(lin, registry) == pytest.approx(0.75)

    def test_overlapping_clauses(self, registry):
        # P(x=1 or y=0) = 0.75 + 0.5 - 0.375
        lin = lineage(registry, Condition.atom(1, 1), Condition.atom(2, 0))
        expected = 0.75 + 0.5 - 0.375
        assert confidence_by_enumeration(lin, registry) == pytest.approx(expected)
        assert confidence_by_inclusion_exclusion(lin, registry) == pytest.approx(expected)

    def test_contradictory_subset_skipped(self, registry):
        # Clauses conflict on variable 1: P = p1 + p2 (exclusive events).
        lin = lineage(registry, Condition.atom(1, 0), Condition.atom(1, 1))
        assert confidence_by_inclusion_exclusion(lin, registry) == pytest.approx(1.0)


class TestOraclesAgree:
    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_equals_inclusion_exclusion(self, seed):
        rng = random.Random(seed)
        lin, registry = random_dnf(
            n_variables=rng.randint(1, 5),
            n_clauses=rng.randint(1, 6),
            clause_width=rng.randint(1, 3),
            rng=rng,
            domain_size=rng.randint(2, 3),
        )
        a = confidence_by_enumeration(lin, registry)
        b = confidence_by_inclusion_exclusion(lin, registry)
        assert a == pytest.approx(b, abs=1e-10)
