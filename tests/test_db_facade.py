"""Tests for the MayBMS session facade: table management, recovery,
error paths, and cross-layer invariants through the public API."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import MayBMS, Relation, Schema, FLOAT, INTEGER, TEXT
from repro.core.urelation import URelation
from repro.errors import AnalysisError, MayBMSError, TransactionError


@pytest.fixture
def db():
    session = MayBMS()
    session.execute("create table t (k integer, v text, w float)")
    session.execute(
        "insert into t values (1, 'a', 1.0), (1, 'b', 3.0), (2, 'c', 2.0)"
    )
    return session


class TestTableManagement:
    def test_create_from_relation(self, db):
        relation = Relation(Schema.of(("x", INTEGER)), [(1,), (2,)])
        db.create_table_from_relation("ext", relation)
        assert len(db.table("ext")) == 2

    def test_create_from_urelation_roundtrip(self, db):
        urel = db.uncertain_query(
            "select * from (repair key k in t weight by w) r"
        )
        db.create_table_from_urelation("stored", urel)
        back = db.urelation("stored")
        assert back.payload_arity == urel.payload_arity
        assert back.cond_arity == urel.cond_arity
        assert len(back) == len(urel)

    def test_urelation_accessor_rejects_standard(self, db):
        with pytest.raises(AnalysisError):
            db.urelation("t")

    def test_tables_listing(self, db):
        assert db.tables() == ["t"]

    def test_sys_columns_through_facade(self, db):
        db.execute("create table u as select * from (pick tuples from t) s")
        rows = [r for r in db.sys_columns() if r[0] == "u"]
        condition_flags = [r[4] for r in rows]
        assert condition_flags[-3:] == [False, True, True]  # payload, then (_v0, _d0)


class TestQueryInterfaces:
    def test_query_vs_uncertain_query(self, db):
        certain = db.query("select k from t")
        assert len(certain) == 3
        uncertain = db.uncertain_query(
            "select k from (pick tuples from t) s"
        )
        assert isinstance(uncertain, URelation)

    def test_uncertain_query_rejects_certain(self, db):
        with pytest.raises(AnalysisError):
            db.uncertain_query("select k from t")

    def test_all_errors_share_base(self, db):
        with pytest.raises(MayBMSError):
            db.query("select nope from t")
        with pytest.raises(MayBMSError):
            db.query("select sum( from t")
        with pytest.raises(MayBMSError):
            db.query("select k from ghost")


class TestRecoveryThroughFacade:
    def test_wal_replay_restores_committed_state(self, db):
        db.begin()
        db.transaction.create_table("journal", Schema.of(("x", INTEGER)))
        db.transaction.insert("journal", (10,))
        db.transaction.insert("journal", (20,))
        db.commit()

        db.begin()
        db.transaction.insert("journal", (99,))
        db.rollback()  # never committed, must not survive recovery

        recovered = db.wal.replay()
        assert recovered.has_table("journal")
        assert sorted(recovered.table("journal").rows()) == [(10,), (20,)]

    def test_transaction_state_errors(self, db):
        with pytest.raises(TransactionError):
            db.commit()
        with pytest.raises(TransactionError):
            db.rollback()
        with pytest.raises(TransactionError):
            _ = db.transaction


class TestCrossLayerProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.floats(0.5, 4.0)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_repair_key_conf_equals_normalized_weights(self, rows):
        """Through the full SQL stack: conf of each repair-key alternative
        equals its weight divided by the group total."""
        session = MayBMS()
        session.execute("create table r (k integer, w float)")
        for k, w in rows:
            session.execute(f"insert into r values ({k}, {w})")
        result = session.query(
            "select k, w, conf() as p from "
            "(repair key k in r weight by w) x group by k, w"
        )
        totals = {}
        for k, w in rows:
            totals[k] = totals.get(k, 0.0) + w
        # Duplicate (k, w) pairs or-combine; compute expected per distinct row.
        weight_sums = {}
        for k, w in rows:
            weight_sums[(k, w)] = weight_sums.get((k, w), 0.0) + w
        for k, w, p in result:
            assert p == pytest.approx(weight_sums[(k, w)] / totals[k], rel=1e-9)

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_pick_tuples_esum_linearity(self, rows):
        """esum over pick-tuples equals sum(v * p) regardless of structure."""
        session = MayBMS()
        session.execute("create table r (v integer, p float)")
        for v, p in rows:
            session.execute(f"insert into r values ({v}, {p})")
        result = session.query(
            "select esum(v) as e from "
            "(pick tuples from r independently with probability p) s"
        )
        expected = sum(v * p for v, p in rows)
        assert result.single_value() == pytest.approx(expected, abs=1e-9)

    @given(st.integers(1, 4), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_conf_distribution_sums_to_one_per_group(self, n_groups, group_size):
        session = MayBMS()
        session.execute("create table r (k integer, v integer)")
        for k in range(n_groups):
            for v in range(group_size):
                session.execute(f"insert into r values ({k}, {v})")
        result = session.query(
            "select k, v, conf() as p from (repair key k in r) x group by k, v"
        )
        sums = {}
        for k, v, p in result:
            sums[k] = sums.get(k, 0.0) + p
        for total in sums.values():
            assert total == pytest.approx(1.0)
