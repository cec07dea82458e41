"""Regressions for aliased self-joins.

``SELECT x.a, y.a FROM t AS x, t AS y WHERE x.a = y.a`` used to raise
``DuplicateColumnError: duplicate column 'a' in schema`` even with fully
qualified columns -- the output schema dropped the table aliases.  The
paper's example queries are self-joins over U-relations, so every select
shape (plain projection, star expansion, standard aggregation,
conf/tconf aggregation, ordering) must handle colliding output names by
qualifying the output columns with their table alias -- on the executor
and on the reference row evaluator (the ``engine`` fixture).
"""

import pytest

from reference import ENGINES, running_on
from repro.db import MayBMS
from repro.errors import DuplicateColumnError


@pytest.fixture
def db(engine):
    db = MayBMS(seed=7)
    db.execute("create table t (a integer, b integer)")
    db.execute("insert into t values (1, 10), (2, 20), (1, 30)")
    db.execute("create table w (k integer, v integer, p float)")
    db.execute(
        "insert into w values (1, 1, 0.4), (1, 2, 0.6), (2, 1, 0.5), (2, 2, 0.5)"
    )
    db.execute("create table u as repair key k in w weight by p")
    return db


class TestCertainSelfJoin:
    def test_qualified_projection(self, db):
        result = db.query(
            "select x.a, y.a from t as x, t as y where x.a = y.a"
        )
        assert sorted(result.rows) == [(1, 1), (1, 1), (1, 1), (1, 1), (2, 2)]
        assert [c.qualified_name for c in result.schema] == ["x.a", "y.a"]
        # Bare names survive for display/consumers that use .names.
        assert result.schema.names == ["a", "a"]

    def test_star_expansion(self, db):
        result = db.query(
            "select * from t as x, t as y where x.a = y.a and x.b < y.b"
        )
        assert [c.qualified_name for c in result.schema] == [
            "x.a",
            "x.b",
            "y.a",
            "y.b",
        ]
        assert sorted(result.rows) == [(1, 10, 1, 30)]

    def test_qualified_star(self, db):
        result = db.query(
            "select x.*, y.b from t as x, t as y where x.a = y.a and x.b < y.b"
        )
        assert result.schema.names == ["a", "b", "b"]
        assert sorted(result.rows) == [(1, 10, 30)]

    def test_aliases_keep_unqualified_outputs(self, db):
        result = db.query(
            "select x.a as left_a, y.a as right_a from t x, t y "
            "where x.a = y.a and x.b < y.b"
        )
        assert [c.qualified_name for c in result.schema] == ["left_a", "right_a"]

    def test_order_by_qualified(self, db):
        result = db.query(
            "select x.a, y.a from t x, t y where x.b < y.b "
            "order by x.a desc, y.a"
        )
        assert result.rows == [(2, 1), (1, 1), (1, 2)]

    def test_standard_aggregation(self, db):
        result = db.query(
            "select x.a, y.a, count(*) as n from t x, t y "
            "where x.a = y.a group by x.a, y.a"
        )
        assert sorted(result.rows) == [(1, 1, 4), (2, 2, 1)]
        assert [c.qualified_name for c in result.schema] == ["x.a", "y.a", "n"]

    def test_distinct(self, db):
        result = db.query(
            "select distinct x.a, y.a from t x, t y where x.a = y.a"
        )
        assert sorted(result.rows) == [(1, 1), (2, 2)]

    def test_same_side_duplicate_still_rejected(self, db):
        # select x.a, x.a collides even with qualifiers -- the schema
        # cannot hold two x.a columns; the historical error stands.
        with pytest.raises(DuplicateColumnError):
            db.query("select x.a, x.a from t x")


class TestUncertainSelfJoin:
    def test_conf_over_self_join(self, db):
        result = db.query(
            "select x.v, y.v, conf() as c from u x, u y "
            "where x.k = 1 and y.k = 2 group by x.v, y.v"
        )
        rows = sorted((a, b, round(c, 9)) for a, b, c in result.rows)
        assert rows == [
            (1, 1, 0.2),
            (1, 2, 0.2),
            (2, 1, 0.3),
            (2, 2, 0.3),
        ]
        assert [c.qualified_name for c in result.schema] == ["x.v", "y.v", "c"]

    def test_tconf_over_self_join(self, db):
        result = db.query(
            "select x.v, y.v, tconf() as c from u x, u y "
            "where x.k = 1 and y.k = 2"
        )
        rows = sorted((a, b, round(c, 9)) for a, b, c in result.rows)
        assert rows == [(1, 1, 0.2), (1, 2, 0.2), (2, 1, 0.3), (2, 2, 0.3)]

    def test_projection_without_aggregate(self, db):
        urel = db.uncertain_query(
            "select x.v, y.v from u x, u y where x.k = 1 and y.k = 2"
        )
        assert urel.payload_arity == 2
        assert [c.qualified_name for c in urel.payload_schema] == ["x.v", "y.v"]
        # Consistent condition combinations: 2 x 2 alternatives.
        assert len(urel.relation) == 4

    def test_possible_over_self_join(self, db):
        result = db.query(
            "select possible x.v, y.v from u x, u y where x.k = 1 and y.k = 2"
        )
        assert sorted(result.rows) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_inconsistent_worlds_filtered(self, db):
        # Joining u with itself on the same key: only consistent variable
        # assignments survive (x.v = y.v within one world).
        result = db.query(
            "select x.v, y.v, conf() as c from u x, u y "
            "where x.k = 1 and y.k = 1 group by x.v, y.v"
        )
        rows = sorted((a, b, round(c, 9)) for a, b, c in result.rows)
        assert rows == [(1, 1, 0.4), (2, 2, 0.6)]


class TestRowBatchAgreement:
    """The fix must behave identically on the executor and the reference."""

    QUERIES = [
        "select x.a, y.a from t x, t y where x.a = y.a",
        "select * from t x, t y where x.a = y.a and x.b < y.b",
        "select x.a, y.a, count(*) as n from t x, t y where x.a = y.a "
        "group by x.a, y.a",
        "select x.v, y.v, conf() as c from u x, u y where x.k = 1 and y.k = 2 "
        "group by x.v, y.v",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_agreement(self, sql):
        outputs = []
        for engine_name in ENGINES:
            with running_on(engine_name):
                db = MayBMS(seed=3)
                db.execute("create table t (a integer, b integer)")
                db.execute("insert into t values (1, 10), (2, 20), (1, 30)")
                db.execute("create table w (k integer, v integer, p float)")
                db.execute(
                    "insert into w values (1, 1, 0.4), (1, 2, 0.6), "
                    "(2, 1, 0.5), (2, 2, 0.5)"
                )
                db.execute("create table u as repair key k in w weight by p")
                result = db.query(sql)
                outputs.append(
                    (sorted(result.rows), [c.qualified_name for c in result.schema])
                )
        assert outputs[0] == outputs[1]
