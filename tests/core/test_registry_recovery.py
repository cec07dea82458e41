"""Tests for restoring the variable registry from the write-ahead log's
``register_variable`` records, the only place a stored probability lives,
and for end-to-end crash recovery through the WAL."""

import pytest

from repro import MayBMS
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, TEXT


@pytest.fixture
def db():
    session = MayBMS()
    session.execute("create table r (k integer, v text, w float)")
    session.execute(
        "insert into r values (1, 'a', 1.0), (1, 'b', 3.0), (2, 'c', 2.0)"
    )
    return session


class TestRegistryFromLog:
    def test_roundtrip_from_repair_key(self, db):
        db.execute(
            "create table maybe as select * from (repair key k in r weight by w) x"
        )
        variables = sorted(db.registry.variables())
        assert variables
        recovered = db.recover()
        assert sorted(recovered.registry.variables()) == variables
        for var in variables:
            assert recovered.registry.distribution(var) == pytest.approx(
                db.registry.distribution(var)
            )

    def test_multiple_urelations_merge(self, db):
        db.execute(
            "create table chosen as select * from (repair key k in r weight by w) x"
        )
        db.execute(
            "create table picked as select * from "
            "(pick tuples from r independently with probability 0.5) y"
        )
        query = (
            "select c.v, conf() as p from chosen c, picked p "
            "where c.k = p.k group by c.v"
        )
        before = db.query(query)
        recovered = db.recover()
        assert sorted(recovered.registry.variables()) == sorted(
            db.registry.variables()
        )
        assert sorted(recovered.query(query).rows) == pytest.approx(sorted(before.rows))

    def test_rolled_back_variables_stay_out(self, db):
        db.execute(
            "create table chosen as select * from (repair key k in r weight by w) x"
        )
        kept = sorted(db.registry.variables())
        db.begin()
        db.execute(
            "create table picked as select * from (pick tuples from r) y"
        )
        db.rollback()
        recovered = db.recover()
        assert sorted(recovered.registry.variables()) == kept


class TestEndToEndRecovery:
    def test_recovered_session_answers_conf_queries(self):
        db = MayBMS()
        db.begin()
        db.transaction.create_table(
            "r", Schema.of(("k", INTEGER), ("v", TEXT), ("w", FLOAT))
        )
        db.commit()
        db.begin()
        for row in [(1, "a", 1.0), (1, "b", 3.0), (2, "c", 2.0)]:
            db.transaction.insert("r", row)
        db.commit()

        # Create the uncertain table through a WAL-logged transaction:
        # materialize the repair into a stored U-relation.
        urel = db.uncertain_query(
            "select k, v from (repair key k in r weight by w) x"
        )
        db.begin()
        db.transaction.create_table(
            "maybe",
            urel.relation.schema.unqualified(),
            kind="urelation",
            properties={
                "payload_arity": urel.payload_arity,
                "cond_arity": urel.cond_arity,
            },
        )
        for row in urel.relation:
            db.transaction.insert("maybe", row)
        db.commit()

        before = db.query("select k, v, conf() as p from maybe group by k, v")

        recovered = db.recover()
        after = recovered.query(
            "select k, v, conf() as p from maybe group by k, v"
        )
        assert sorted(after.rows) == sorted(before.rows)
