"""A rollback reclaims the variable ids its statements minted, and later
statements mint them again with other distributions.  Exact confidence
must see the new distributions: its ws-tree memo lives for one confidence
call, never across statements."""

import pytest

from repro.db import MayBMS

QUERY = (
    "select {aggregate} as p from "
    "(pick tuples from r independently with probability {p}) x, "
    "(pick tuples from s independently with probability {p}) y, "
    "(pick tuples from t independently with probability {p}) z "
    "where x.a = y.a and y.b = z.b"
)
AT_HALF = 0.602996826171875
AT_POINT_THREE = 0.19585532242649695  # a fresh store's answer


def store(strategy):
    db = MayBMS(confidence_strategy=strategy)
    db.execute("create table r (a integer)")
    db.execute("create table t (b integer)")
    db.execute("create table s (a integer, b integer)")
    db.execute("insert into r values (0), (1), (2)")
    db.execute("insert into t values (0), (1), (2)")
    db.execute(
        "insert into s values "
        + ", ".join(f"({a}, {b})" for a in range(3) for b in range(3))
    )
    return db


@pytest.mark.parametrize(
    "strategy, aggregate",
    [("auto", "conf()"), ("exact", "conf()"), ("exact", "aconf(0.1, 0.1)")],
)
def test_confidence_after_a_rollback_uses_the_new_distributions(strategy, aggregate):
    db = store(strategy)
    explain = db.execute("explain " + QUERY.format(aggregate=aggregate, p=0.5))
    assert any("1 group(s) via exact" in row[0] for row in explain.relation.rows)
    db.execute("begin")
    before = db.query(QUERY.format(aggregate=aggregate, p=0.5)).rows
    assert before == [(pytest.approx(AT_HALF, abs=1e-12),)]
    db.execute("rollback")
    after = db.query(QUERY.format(aggregate=aggregate, p=0.3)).rows
    fresh = store(strategy).query(QUERY.format(aggregate=aggregate, p=0.3)).rows
    assert after == fresh == [(pytest.approx(AT_POINT_THREE, abs=1e-12),)]
