"""Exact ``conf()`` keeps no state past its statement: a session that
answers many fresh non-hierarchical ``conf()`` statements holds no more
memory after the 200th than after the 50th."""

import gc
import tracemalloc

from repro.db import MayBMS

HARD = (
    "select c.nation, conf() as p from u_orders o, u_customers c, u_years y "
    "where o.ckey = c.ckey and o.yr = y.yr and o.okey >= {low} and o.okey < {high} "
    "group by c.nation"
)


def hard_store():
    """Every customer orders in several years: the three-way join crosses
    (customer x year), so each group takes the exact ws-tree."""
    session = MayBMS(seed=5)
    session.execute("create table orders (okey integer, ckey integer, yr integer)")
    session.execute("create table customers (ckey integer, nation integer)")
    session.execute("create table years (yr integer)")
    session.execute(
        "insert into customers values "
        + ", ".join(f"({c}, {c % 3})" for c in range(12))
    )
    session.execute(
        "insert into orders values "
        + ", ".join(f"({o}, {o % 12}, {2000 + o // 12 % 4})" for o in range(72))
    )
    session.execute("insert into years values (2000), (2001), (2002), (2003)")
    for table in ("orders", "customers", "years"):
        session.execute(
            f"create table u_{table} as select * from "
            f"(pick tuples from {table} independently with probability 0.8) x"
        )
    return session


def test_fresh_conf_statements_leave_no_state_behind():
    session = hard_store()
    dispatcher = session.executor.dispatcher
    bands = [(low, low + width) for width in range(16, 36, 4) for low in range(40)]
    assert len(set(bands)) == 200
    explain = session.execute("explain " + HARD.format(low=0, high=60)).relation.rows
    assert any("via exact" in row[0] for row in explain)

    tracemalloc.start()
    try:
        for low, high in bands[:50]:
            session.query(HARD.format(low=low, high=high))
        gc.collect()  # count live state only, not uncollected cycles
        after_50, _ = tracemalloc.get_traced_memory()
        for low, high in bands[50:]:
            session.query(HARD.format(low=low, high=high))
        gc.collect()
        after_200, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    # Flat: a session-lived memo adds kilobytes per statement here.
    assert after_200 - after_50 < 100_000, after_200 - after_50
    assert set(vars(dispatcher)) == {"policy", "rng"}
