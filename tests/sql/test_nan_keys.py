"""One NaN rule for keys, through SQL.

Equality says NaN <> NaN (``compare_values``), so a NaN join key matches
nothing, like NULL.  Grouping puts all NaNs in one group, as DISTINCT
and ORDER BY do.  The answers must not depend on whether two NaNs are
the same Python object: the table below holds one NaN from each of two
inserts, and a durable store decodes its own NaNs on reopen.  Every
query runs on the executor and on the reference row evaluator (the
``engine`` fixture).
"""

import math

import pytest

from repro.db import MayBMS

NAN_ROWS = [
    "insert into t values (1, cast('nan' as float))",
    "insert into t values (2, cast('nan' as float)), (3, 1.5)",
]
COALESCE = "coalesce(cast(null as integer), f)"


def _key(row):
    """Rows with NaNs made comparable (``nan == nan`` is False)."""
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in row)


def answers(db):
    def rows(sql):
        return sorted(map(_key, db.query(sql).rows), key=repr)

    return {
        "hash join": rows("select x.k, y.k from t x, t y where x.f = y.f"),
        "nested loop": rows("select x.k, y.k from t x, t y where x.f = y.f + 0.0"),
        "where": rows("select k from t where f = f"),
        "distinct": rows("select distinct f from t"),
        "group by": rows("select f, count(*) as n from t group by f"),
        "count distinct": rows("select count(distinct f) as n from t"),
        # INTEGER first, FLOAT second: typed FLOAT, so its NaNs group too.
        "coalesce": rows(
            f"select {COALESCE} as g, count(*) as n from t group by {COALESCE}"
        ),
        "distinct coalesce": rows(f"select distinct {COALESCE} as g from t"),
        "conf": rows(
            "select f, conf() as p from "
            "(pick tuples from t independently with probability 0.5) r group by f"
        ),
    }


EXPECTED = {
    "hash join": [(3, 3)],
    "nested loop": [(3, 3)],
    "where": [(3,)],
    "distinct": [("nan",), (1.5,)],
    "group by": [("nan", 2), (1.5, 1)],
    "count distinct": [(2,)],
    "coalesce": [("nan", 2), (1.5, 1)],
    "distinct coalesce": [("nan",), (1.5,)],
    "conf": [("nan", 0.75), (1.5, 0.5)],
}


def test_nan_keys_follow_sql_equality(engine):
    db = MayBMS(seed=1)
    db.execute("create table t (k integer, f float)")
    for sql in NAN_ROWS:
        db.execute(sql)
    assert answers(db) == EXPECTED


def test_nan_keys_after_a_durable_reopen(engine, tmp_path):
    path = str(tmp_path / "store")
    with MayBMS(path=path, seed=1) as db:
        db.execute("create table t (k integer, f float)")
        for sql in NAN_ROWS:
            db.execute(sql)
        assert answers(db) == EXPECTED
        db.checkpoint()
    with MayBMS(path=path, seed=1) as db:
        assert answers(db) == EXPECTED


@pytest.mark.parametrize("keys", ["f", "k, f"])
def test_nan_join_keys_never_match_on_a_large_build(engine, keys):
    """Past the executor's NumPy threshold, with one and two join keys."""
    db = MayBMS(seed=1)
    db.execute("create table t (k integer, f float)")
    db.execute(
        "insert into t values "
        + ", ".join(f"({i % 3}, cast('nan' as float))" for i in range(40))
        + ", (0, 2.5)"
    )
    on = " and ".join(f"x.{c} = y.{c}" for c in keys.split(", "))
    assert db.query(f"select x.k from t x, t y where {on}").rows == [(0,)]


def test_repair_key_groups_nan_keys_as_one_group():
    """Two NaN keys from separate inserts are one key group: one variable,
    each alternative at 0.5."""
    db = MayBMS(seed=1)
    db.execute("create table t (k float, v integer)")
    db.execute("insert into t values (cast('nan' as float), 1)")
    db.execute("insert into t values (cast('nan' as float), 2)")
    repair = "(repair key k in t) r"
    urel = db.uncertain_query(f"select * from {repair}")
    assert len({row[2] for row in urel.relation.rows}) == 1
    assert db.query(
        f"select v, conf() as p from {repair} group by v order by v"
    ).rows == [(1, 0.5), (2, 0.5)]


def test_pick_tuples_shares_one_variable_among_nan_duplicates():
    db = MayBMS(seed=1)
    db.execute("create table d (f float)")
    db.execute("insert into d values (cast('nan' as float))")
    db.execute("insert into d values (cast('nan' as float))")
    urel = db.uncertain_query("select * from pick tuples from d r")
    assert len({row[1] for row in urel.relation.rows}) == 1
    # Shared fate: the NaN group exists with 0.5, not 1 - 0.5 * 0.5.
    assert db.query(
        "select conf() as p from (pick tuples from d) r"
    ).rows == [(0.5,)]
