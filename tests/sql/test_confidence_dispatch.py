"""SQL-level tests of the confidence dispatcher: EXPLAIN strategy
reporting, the facade tuning knobs, aconf argument validation, seeded
Monte-Carlo determinism, and the grouped-lineage cache."""

import random

import pytest

from repro.core import aggregates as agg
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.db import MayBMS
from repro.errors import AnalysisError, SqlError
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    session = MayBMS(seed=7)
    session.execute("create table ft (player text, init text, final text, p float)")
    session.execute(
        "insert into ft values "
        "('Bryant', 'F', 'F', 0.8), ('Bryant', 'F', 'M', 0.2), "
        "('Duncan', 'F', 'F', 0.7), ('Duncan', 'F', 'M', 0.3), "
        "('Nowitzki', 'M', 'M', 0.9), ('Nowitzki', 'M', 'F', 0.1)"
    )
    return session


CONF_QUERY = """
    select player, final, conf() as p
    from (repair key player, init in ft weight by p) r
    group by player, final
"""


def explain_text(db, sql):
    return "\n".join(row[0] for row in db.execute("explain " + sql).relation.rows)


class TestExplainStrategies:
    def test_grouped_conf_reports_strategy(self, db):
        text = explain_text(db, CONF_QUERY)
        assert "confidence fragment 1 [strategy=auto]:" in text
        assert "conf:" in text
        # Single-variable repair-key lineages are exact and cheap; they
        # must not fall back to Monte Carlo.
        assert "monte-carlo" not in text

    def test_aconf_reports_parameters(self, db):
        text = explain_text(
            db,
            CONF_QUERY.replace("conf()", "aconf(0.1, 0.05)"),
        )
        assert "aconf:" in text
        assert "epsilon=0.1" in text
        assert "delta=0.05" in text

    def test_tconf_reports_marginals(self, db):
        text = explain_text(db, "select player, tconf() as p from ft")
        assert "tconf:" in text
        assert "marginal" in text

    def test_forced_strategy_shows_in_explain(self, db):
        db.set_confidence_strategy("exact")
        text = explain_text(db, CONF_QUERY)
        assert "[strategy=exact]:" in text
        assert "exact" in text


class TestFacadeKnobs:
    def test_default_policy_is_auto(self, db):
        assert db.confidence_policy.strategy == "auto"

    def test_set_confidence_strategy(self, db):
        db.set_confidence_strategy("exact", exact_budget=123)
        assert db.confidence_policy.strategy == "exact"
        assert db.confidence_policy.exact_budget == 123
        # Results are unchanged: exact and auto agree on exact lineages.
        rows = dict(
            (row[0] + "/" + row[1], row[2]) for row in db.query(CONF_QUERY)
        )
        db.set_confidence_strategy("auto")
        rows_auto = dict(
            (row[0] + "/" + row[1], row[2]) for row in db.query(CONF_QUERY)
        )
        for key, value in rows.items():
            assert rows_auto[key] == pytest.approx(value)

    def test_budget_kept_unless_given_and_none_means_unbounded(self, db):
        db.set_confidence_strategy("auto", exact_budget=77)
        db.set_confidence_strategy("exact")  # budget untouched
        assert db.confidence_policy.exact_budget == 77
        db.set_confidence_strategy("auto", exact_budget=None)  # never degrade
        assert db.confidence_policy.exact_budget is None

    def test_env_strategy(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONF_STRATEGY", "exact")
        session = MayBMS()
        assert session.confidence_policy.strategy == "exact"

    def test_invalid_strategy_rejected(self, db):
        from repro.errors import ConfidenceError

        with pytest.raises(ConfidenceError):
            db.set_confidence_strategy("nope")


class TestAconfValidation:
    @pytest.mark.parametrize(
        "call",
        [
            "aconf(0.0, 0.05)",
            "aconf(1.0, 0.05)",
            "aconf(0.1, 0)",
            "aconf(0.1, 1.5)",
            "aconf(-0.1, 0.05)",
            "aconf(p, 0.05)",
            "aconf('a', 0.05)",
        ],
    )
    def test_bad_parameters_rejected_at_analysis(self, db, call):
        sql = CONF_QUERY.replace("conf()", call)
        with pytest.raises(AnalysisError):
            db.executor.analyzer.analyze_statement(parse_statement(sql))
        with pytest.raises(SqlError):
            db.execute(sql)

    def test_valid_parameters_accepted(self, db):
        sql = CONF_QUERY.replace("conf()", "aconf(0.25, 0.1)")
        result = db.query(sql)
        assert len(result) > 0

    def test_signed_literal_accepted(self, db):
        # A redundant unary plus is still a literal.
        sql = CONF_QUERY.replace("conf()", "aconf(+0.25, 0.1)")
        assert len(db.query(sql)) > 0


class TestSeededDeterminism:
    def _aconf_rows(self, seed):
        session = MayBMS(seed=seed, confidence_strategy="monte-carlo")
        session.execute("create table t (k integer, v integer, w float)")
        rows = ", ".join(
            f"({i % 4}, {i}, {0.1 + (i % 7) * 0.1:.1f})" for i in range(16)
        )
        session.execute(f"insert into t values {rows}")
        return session.query(
            """
            select k, aconf(0.2, 0.1) as p
            from (repair key v in t weight by w) r
            group by k
            """
        ).rows

    def test_same_seed_reproduces_aconf(self):
        assert self._aconf_rows(123) == self._aconf_rows(123)

    def test_repro_seed_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "55")
        assert MayBMS().seed == 55
        monkeypatch.delenv("REPRO_SEED")
        assert MayBMS().seed == 0
        assert MayBMS(seed=9).seed == 9


def _kept(relation, kind):
    """The entries of ``kind`` ("groups" / "lineages") kept in the
    relation's column cell."""
    return {
        key: value
        for key, value in relation._columns.derived.items()
        if key[0] == kind
    }


class TestLineageCache:
    """Grouping and group lineages are kept per table version on base-table
    snapshots only; a query result keeps nothing (it dies with its
    statement, and over SQL nobody ever asked twice)."""

    STORE = (
        "create table picks as "
        "select * from (repair key player, init in ft weight by p) r"
    )

    def test_query_result_keeps_nothing(self, db):
        urel = db.uncertain_query(
            "select * from (repair key player, init in ft weight by p) r"
        )
        first = agg.conf(urel, ["player"])
        second = agg.conf(urel, ["player"])
        assert urel.relation.source is None
        assert not urel.relation._columns.derived
        assert sorted(first.rows) == sorted(second.rows)

    def test_repeated_conf_on_a_snapshot_reuses_grouping_and_lineages(self, db):
        db.execute(self.STORE)
        urel = db.urelation("picks")
        first = agg.conf(urel, ["player"])
        # One grouping entry (shared with esum/ecount) plus one lineage
        # entry for this grouping.
        groups, lineages = _kept(urel.relation, "groups"), _kept(urel.relation, "lineages")
        assert len(groups) == 1 and len(lineages) == 1
        second = agg.conf(urel, ["player"])
        assert _kept(urel.relation, "groups") == groups
        after = _kept(urel.relation, "lineages")
        assert after.keys() == lineages.keys()
        assert all(after[key] is lineages[key] for key in after)
        assert sorted(first.rows) == sorted(second.rows)

    def test_distinct_groupings_get_distinct_entries(self, db):
        db.execute(self.STORE)
        urel = db.urelation("picks")
        agg.conf(urel, ["player"])
        agg.conf(urel, ["player", "final"])
        assert len(_kept(urel.relation, "lineages")) == 2

    def test_stored_urelation_snapshot_caches_across_reads(self, db):
        db.execute(self.STORE)
        first = db.urelation("picks")
        agg.conf(first, ["player"])
        again = db.urelation("picks")
        # Unchanged table -> same snapshot object -> cache carried over.
        assert again.relation is first.relation
        assert _kept(again.relation, "lineages")

    def test_mutation_invalidates_via_fresh_snapshot(self, db):
        db.execute(self.STORE)
        first = db.urelation("picks")
        agg.conf(first, ["player"])
        db.execute("delete from picks where player = 'Bryant'")
        fresh = db.urelation("picks")
        assert fresh.relation is not first.relation
        assert not _kept(fresh.relation, "lineages")


class TestDispatcherSharedAcrossQueries:
    def test_executor_dispatcher_reused(self, db):
        dispatcher = db.executor.dispatcher
        db.query(CONF_QUERY)
        assert db.executor.dispatcher is dispatcher
        assert isinstance(dispatcher, ConfidenceDispatcher)

    def test_conf_equals_forced_exact(self, db):
        auto = {(r[0], r[1]): r[2] for r in db.query(CONF_QUERY)}
        db.set_confidence_strategy("exact")
        exact = {(r[0], r[1]): r[2] for r in db.query(CONF_QUERY)}
        assert set(auto) == set(exact)
        for key in auto:
            assert auto[key] == pytest.approx(exact[key], abs=1e-12)
