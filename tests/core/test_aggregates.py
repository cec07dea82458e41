"""Tests for conf / aconf / tconf / possible / esum / ecount against the
possible-worlds oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import aggregates as agg
from repro.core import urelation
from repro.core.conditions import Condition, TRUE_CONDITION
from repro.core.confidence import dispatch
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.repair_key import repair_key
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.core.worlds import (
    expected_aggregate_by_enumeration,
    tuple_confidence_by_enumeration,
)
from repro.db import MayBMS
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, NULL, TEXT
from repro.errors import UnsafeLineageError


@pytest.fixture
def registry():
    return VariableRegistry()


@pytest.fixture
def urel(registry):
    """Duplicates of ("a",1) on two independent variables, plus ("b",2)."""
    x = registry.fresh([0.3, 0.7], name="x")
    y = registry.fresh([0.6, 0.4], name="y")
    schema = Schema.of(("k", TEXT), ("v", INTEGER))
    return URelation.from_conditions(
        schema,
        [("a", 1), ("a", 1), ("b", 2)],
        [Condition.atom(x, 1), Condition.atom(y, 1), Condition.atom(x, 0)],
        registry,
    )


class TestConf:
    def test_group_confidence_matches_oracle(self, urel):
        result = agg.conf(urel, ["k", "v"], result_name="p")
        by_key = {(row[0], row[1]): row[2] for row in result}
        assert by_key[("a", 1)] == pytest.approx(
            tuple_confidence_by_enumeration(urel, ("a", 1))
        )
        assert by_key[("b", 2)] == pytest.approx(0.3)

    def test_duplicates_or_combine(self, urel):
        result = agg.conf(urel, ["k", "v"], result_name="p")
        by_key = {(row[0], row[1]): row[2] for row in result}
        # 1 - P(x=0)P(y=0) = 1 - 0.3*0.6
        assert by_key[("a", 1)] == pytest.approx(0.82)

    def test_scalar_conf_is_nonempty_probability(self, urel):
        result = agg.conf(urel, [], result_name="p")
        # P(at least one tuple): x=0 gives b, x=1 gives a -> always nonempty.
        assert result.single_value() == pytest.approx(1.0)

    def test_scalar_conf_empty_relation(self, registry):
        empty = URelation.t_certain(
            Relation(Schema.of(("a", INTEGER)), []), registry
        )
        assert agg.conf(empty, [], result_name="p").single_value() == 0.0

    def test_conf_on_certain_data_is_one(self, registry):
        certain = URelation.t_certain(
            Relation(Schema.of(("a", INTEGER)), [(1,), (2,)]), registry
        )
        result = agg.conf(certain, ["a"], result_name="p")
        assert all(row[1] == pytest.approx(1.0) for row in result)

    def test_group_by_subset_of_payload(self, urel):
        result = agg.conf(urel, ["k"], result_name="p")
        by_key = {row[0]: row[1] for row in result}
        assert by_key["a"] == pytest.approx(0.82)
        assert by_key["b"] == pytest.approx(0.3)


class TestAconf:
    def test_approximates_conf(self, urel):
        rng = random.Random(11)
        result = agg.aconf(urel, 0.05, 0.05, ["k"], result_name="p", rng=rng)
        by_key = {row[0]: row[1] for row in result}
        assert by_key["a"] == pytest.approx(0.82, rel=0.1)
        assert by_key["b"] == pytest.approx(0.3, rel=0.1)

    def test_trivial_cases_exact(self, registry):
        certain = URelation.t_certain(
            Relation(Schema.of(("a", INTEGER)), [(1,)]), registry
        )
        result = agg.aconf(certain, 0.1, 0.1, ["a"], result_name="p")
        assert result.rows[0][1] == 1.0


class TestTconf:
    def test_per_row_marginals(self, urel, registry):
        result = agg.tconf(urel, result_name="p")
        assert len(result) == 3  # one output row per input row
        probs = [row[2] for row in result]
        assert probs == pytest.approx([0.7, 0.4, 0.3])

    def test_isolation_from_duplicates(self, urel):
        """tconf does NOT or-combine duplicates (unlike conf)."""
        result = agg.tconf(urel, result_name="p")
        a_rows = [row for row in result if row[0] == "a"]
        assert len(a_rows) == 2
        assert sorted(row[2] for row in a_rows) == pytest.approx([0.4, 0.7])


class TestPossible:
    def test_filters_and_deduplicates(self, registry):
        x = registry.fresh([0.0, 1.0])
        schema = Schema.of(("a", INTEGER))
        urel = URelation.from_conditions(
            schema,
            [(1,), (1,), (2,)],
            [Condition.atom(x, 1), Condition.atom(x, 1), Condition.atom(x, 0)],
            registry,
        )
        result = agg.possible(urel)
        assert result.rows == [(1,)]  # 2 impossible, 1 deduplicated


class TestExpectations:
    def test_esum_matches_oracle(self, urel):
        result = agg.esum(urel, "v", [], result_name="e")
        oracle = expected_aggregate_by_enumeration(urel, 1)
        assert result.single_value() == pytest.approx(oracle)

    def test_ecount_matches_oracle(self, urel):
        result = agg.ecount(urel, [], result_name="e")
        oracle = expected_aggregate_by_enumeration(urel)
        assert result.single_value() == pytest.approx(oracle)

    def test_esum_grouped(self, urel):
        result = agg.esum(urel, "v", ["k"], result_name="e")
        by_key = {row[0]: row[1] for row in result}
        assert by_key["a"] == pytest.approx(1 * 0.7 + 1 * 0.4)
        assert by_key["b"] == pytest.approx(2 * 0.3)

    def test_esum_ignores_null_values(self, registry):
        x = registry.fresh([0.5, 0.5])
        schema = Schema.of(("v", INTEGER))
        urel = URelation.from_conditions(
            schema, [(NULL,), (4,)],
            [Condition.atom(x, 0), Condition.atom(x, 1)], registry,
        )
        assert agg.esum(urel, "v", [], result_name="e").single_value() == pytest.approx(2.0)

    def test_esum_on_certain_data_is_plain_sum(self, registry):
        certain = URelation.t_certain(
            Relation(Schema.of(("v", INTEGER)), [(1,), (2,), (3,)]), registry
        )
        assert agg.esum(certain, "v", [], result_name="e").single_value() == pytest.approx(6.0)

    def test_empty_group_result(self, registry):
        empty = URelation.t_certain(Relation(Schema.of(("v", INTEGER)), []), registry)
        assert agg.esum(empty, "v", [], result_name="e").single_value() == 0.0
        assert agg.ecount(empty, [], result_name="e").single_value() == 0.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(-5, 5), st.floats(0.05, 0.95)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_esum_linearity_property(self, rows):
        """esum == sum of value * marginal, and equals the worlds oracle."""
        registry = VariableRegistry()
        schema = Schema.of(("g", INTEGER), ("v", INTEGER))
        payload, conditions = [], []
        for g, v, p in rows:
            var = registry.fresh_boolean(p)
            payload.append((g, v))
            conditions.append(Condition.atom(var, 1))
        urel = URelation.from_conditions(schema, payload, conditions, registry)
        result = agg.esum(urel, "v", [], result_name="e").single_value()
        oracle = expected_aggregate_by_enumeration(urel, 1)
        assert result == pytest.approx(oracle)


class TestRandomWalkIntegration:
    def test_conf_after_repair_key_recovers_weights(self, registry):
        schema = Schema.of(("k", TEXT), ("w", FLOAT))
        relation = Relation(schema, [("a", 1.0), ("a", 3.0), ("b", 2.0)])
        urel = repair_key(relation, ["k"], registry, weight_by="w")
        result = agg.conf(urel, ["k", "w"], result_name="p")
        by_row = {(row[0], row[1]): row[2] for row in result}
        assert by_row[("a", 1.0)] == pytest.approx(0.25)
        assert by_row[("a", 3.0)] == pytest.approx(0.75)
        assert by_row[("b", 2.0)] == pytest.approx(1.0)


class TestArrayPass:
    """What ``conf``/``aconf`` hand to the array pass
    (``tests/core/confidence/test_confidence_columnar.py`` checks its answers)."""

    @staticmethod
    def mixed(registry, crossing=True):
        """Groups 0-5: a root and three children each (a tree).  Group 6:
        x1^y1, x1^y2, x2^y2 -- crossing, no safe plan."""
        rows, conditions = [], []
        for g in range(6):
            root = registry.fresh_boolean(0.6)
            for _ in range(3):
                rows.append((g,))
                conditions.append(
                    Condition.of([(root, 1), (registry.fresh_boolean(0.5), 1)])
                )
        if crossing:
            x1, y1, y2, x2 = (registry.fresh_boolean(0.5) for _ in range(4))
            for a, b in ((x1, y1), (x1, y2), (y2, x2)):
                rows.append((6,))
                conditions.append(Condition.of([(a, 1), (b, 1)]))
        return URelation.from_conditions(
            Schema.of(("g", INTEGER)), rows, conditions, registry
        )

    @pytest.fixture
    def lineages_built(self, monkeypatch):
        """Every group lineage the aggregates build (the engines derive
        components and cofactors from these, which are not counted)."""
        built = []
        group_lineages = agg.group_lineages

        def counting(*args, **kwargs):
            lineages = group_lineages(*args, **kwargs)
            built.extend(lineages)
            return lineages

        monkeypatch.setattr(agg, "group_lineages", counting)
        return built

    def test_no_lineage_is_built_for_an_answered_group(self, registry, lineages_built):
        result = agg.conf(self.mixed(registry, crossing=False), ["g"])
        assert [row[1] for row in result] == [pytest.approx(0.6 * 0.875)] * 6
        assert lineages_built == []

    def test_lineages_are_built_for_declined_groups_only(self, registry, lineages_built):
        urel = self.mixed(registry)
        with dispatch.trace_confidence() as events:
            result = agg.conf(urel, ["g"])
        assert events[0].render() == (
            "conf: 7 group(s) via sprout[vectorized] x6, exact"
        )
        assert result.rows[6][1] == pytest.approx(
            tuple_confidence_by_enumeration(urel, (6,))
        )
        assert len(lineages_built) == 1  # the crossing group's, nobody else's
        assert list(lineages_built[0]) == urel.conditions()[-3:]

    def test_aconf_takes_the_same_shortcut(self, registry, lineages_built):
        urel = self.mixed(registry, crossing=False)
        with dispatch.trace_confidence() as events:
            result = agg.aconf(urel, 0.1, 0.1, ["g"], base_seed=3)
        assert result.rows == agg.conf(urel, ["g"]).rows
        assert events[0].render() == (
            "aconf: 6 group(s) via sprout[vectorized] x6 (epsilon=0.1, delta=0.1)"
        )
        assert lineages_built == []

    def test_aconf_numbers_its_sample_streams_by_group(self, registry, monkeypatch):
        # The declined group's Monte-Carlo stream is seeded with its
        # ordinal among all groups, array pass or not.
        urel = self.mixed(registry)
        dispatcher = ConfidenceDispatcher(DispatchPolicy(exact_budget=1))
        with_pass = agg.aconf(urel, 0.2, 0.2, ["g"], dispatcher=dispatcher, base_seed=9)
        monkeypatch.setattr(urelation, "_NUMPY_MIN_ROWS", 2**62)
        without = agg.aconf(urel, 0.2, 0.2, ["g"], dispatcher=dispatcher, base_seed=9)
        assert with_pass.rows[6] == without.rows[6]

    def test_seeded_answers_are_a_function_of_the_seed(self):
        # Seeded aconf() and Monte-Carlo conf() answers repeat on a fresh
        # store and in a fresh session with the same seed, and move with it.
        queries = [
            "select k, aconf(0.3, 0.3) as p from u group by k order by k",
            "select k, conf() as p from u group by k order by k",
        ]

        def store(seed):
            db = MayBMS(seed=seed, confidence_strategy="monte-carlo")
            values = ", ".join(
                f"({g}, {k}, {1 + (g + k) % 3})" for g in range(4) for k in range(6)
            )
            db.execute_script(
                "create table t (g integer, k integer, w float);"
                f"insert into t values {values};"
                "create table u as repair key g in t weight by w"
            )
            return db

        def answers(session):
            return [session.query(sql).rows for sql in queries]

        with store(5) as first, store(5) as second, store(6) as other:
            expected = answers(first)
            assert answers(second) == expected
            with first.session() as session:
                assert answers(session) == expected
            assert answers(other)[0] != expected[0]

    def test_forced_strategies_never_enter_the_array_pass(self, registry, monkeypatch):
        urel = self.mixed(registry, crossing=False)

        def forbidden(*args):
            raise AssertionError("array pass entered under a forced engine")

        monkeypatch.setattr(agg, "hierarchical_confidences", forbidden)
        for strategy in ("exact", "monte-carlo"):
            dispatcher = ConfidenceDispatcher(
                DispatchPolicy(strategy=strategy, epsilon=0.3, delta=0.3)
            )
            agg.conf(urel, ["g"], dispatcher=dispatcher)
            agg.aconf(urel, 0.3, 0.3, ["g"], dispatcher=dispatcher, base_seed=1)
        agg.conf(urel, ["g"], engine=ExactConfidenceEngine(registry))
        with pytest.raises(AssertionError):
            agg.conf(urel, ["g"])

    def test_forced_sprout_answers_trees_and_still_refuses_the_rest(self, registry):
        sprout = ConfidenceDispatcher(DispatchPolicy(strategy="sprout"))
        safe = self.mixed(registry, crossing=False)
        with dispatch.trace_confidence() as events:
            agg.conf(safe, ["g"], dispatcher=sprout)
        assert events[0].render() == "conf: 6 group(s) via sprout[vectorized] x6"
        with pytest.raises(UnsafeLineageError):
            agg.conf(self.mixed(registry), ["g"], dispatcher=sprout)
        with pytest.raises(UnsafeLineageError):
            agg.aconf(self.mixed(registry), 0.1, 0.1, ["g"], dispatcher=sprout)
