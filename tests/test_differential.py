"""Differential testing: the executor must agree with the reference.

Every query here runs twice through the full SQL stack -- parser,
analyzer, translation, confidence computation -- once with every plan
answered by the reference row evaluator (``tests/reference``) and once by
the executor, over two identically-seeded MayBMS sessions.  Results must match exactly:
order-sensitively for ordered queries, as multisets otherwise (including
the wide U-relation encoding of uncertain results).

The table data is randomized per seed so the suite explores different
join fan-outs, NULL placements, and group sizes on every parametrization.
"""

import random

import pytest

from reference import running_on
from repro.core.urelation import URelation
from repro.db import MayBMS
from repro.engine.relation import Relation


def _build_session(seed):
    """A MayBMS session with randomized certain base tables."""
    rng = random.Random(seed)
    db = MayBMS(seed=seed)
    db.execute("create table orders (okey integer, ckey integer, total float, yr integer)")
    db.execute("create table customers (ckey integer, name text, tier integer)")
    db.execute("create table votes (cand text, src text, w float)")

    customers = []
    for ckey in range(rng.randint(8, 14)):
        customers.append(
            f"({ckey}, '{rng.choice(['ann', 'bob', 'cy', 'dee'])}{ckey}', "
            f"{rng.randint(1, 3)})"
        )
    db.execute("insert into customers values " + ", ".join(customers))

    orders = []
    for okey in range(rng.randint(30, 60)):
        total = round(rng.uniform(10.0, 500.0), 2)
        orders.append(
            f"({okey}, {rng.randrange(16)}, {total}, {rng.choice([2007, 2008, 2009])})"
        )
    db.execute("insert into orders values " + ", ".join(orders))

    votes = []
    for _ in range(rng.randint(9, 15)):
        votes.append(
            f"('{rng.choice(['x', 'y', 'z'])}', '{rng.choice(['s1', 's2', 's3'])}', "
            f"{round(rng.uniform(0.1, 1.0), 3)})"
        )
    db.execute("insert into votes values " + ", ".join(votes))
    return db


#: The randomized query suite: joins, aggregation, ordering, uncertainty
#: constructs (repair key / pick tuples), confidence computation, and
#: expectation aggregates.
QUERIES = [
    "select okey, total from orders where total > 120.0 order by total desc, okey limit 9",
    "select distinct ckey from orders where yr = 2008 order by ckey",
    "select c.name, o.total from orders o, customers c "
    "where o.ckey = c.ckey and o.total > 200.0 order by o.total, c.name",
    "select yr, count(*) as n, sum(total) as s, avg(total) as m from orders "
    "group by yr having count(*) > 2 order by yr",
    "select tier, min(name) as lo, max(name) as hi from customers group by tier order by tier",
    "select okey from orders where ckey in (select ckey from customers where tier = 2) order by okey",
    "select okey from orders where total between 50.0 and 300.0 "
    "union all select ckey from customers",
    "select cand, conf() as p from (repair key src in votes weight by w) r group by cand",
    "select possible cand from (repair key src in votes weight by w) r",
    "select cand, ecount() as n, esum(w) as ws "
    "from (pick tuples from votes with probability w) p group by cand",
    "select cand, src, tconf() as p from (pick tuples from votes with probability 0.7) p",
    "select o.yr, c.tier, count(*) as n from orders o, customers c "
    "where o.ckey = c.ckey group by o.yr, c.tier order by o.yr, c.tier",
    "select case when total > 250.0 then 'big' else 'small' end as bucket, "
    "count(*) as n from orders group by "
    "case when total > 250.0 then 'big' else 'small' end order by bucket",
]

ORDERED = [q for q in QUERIES if "order by" in q]


def _canonical(output):
    """A comparable form: (schema names, rows) with rows sorted unless the
    query fixed an order (the caller decides which to use)."""
    if isinstance(output, URelation):
        return (
            [c.name.lower() for c in output.relation.schema],
            sorted(map(repr, output.relation.rows)),
        )
    assert isinstance(output, Relation)
    return (
        [c.name.lower() for c in output.schema],
        sorted(map(repr, output.rows)),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_row_and_batch_engines_agree(seed):
    with running_on("row"):
        row_db = _build_session(seed)
        row_results = [row_db.execute(q).output for q in QUERIES]
    with running_on("batch"):
        batch_db = _build_session(seed)
        batch_results = [batch_db.execute(q).output for q in QUERIES]

    for query, row_output, batch_output in zip(QUERIES, row_results, batch_results):
        assert _canonical(row_output) == _canonical(batch_output), query
        if "order by" in query and isinstance(row_output, Relation):
            # Ordered results must agree row for row, not just as multisets.
            assert row_output.rows == batch_output.rows, query


@pytest.mark.parametrize("seed", [0, 5])
def test_uncertain_worlds_agree(seed):
    """Beyond the encoding: the *possible worlds* semantics of an
    uncertain result must coincide (same payloads at the same marginal
    probabilities), guarding against condition-column mixups that a pure
    row comparison could miss."""
    sql = (
        "select cand, src from (repair key src in votes weight by w) r "
        "where w > 0.2"
    )
    with running_on("row"):
        row_urel = _build_session(seed).execute(sql).urelation
        row_probs = row_urel.condition_probabilities()
    with running_on("batch"):
        batch_urel = _build_session(seed).execute(sql).urelation
        batch_probs = batch_urel.condition_probabilities()
    row_summary = sorted(
        (row[: row_urel.payload_arity], round(p, 12))
        for row, p in zip(row_urel.relation, row_probs)
    )
    batch_summary = sorted(
        (row[: batch_urel.payload_arity], round(p, 12))
        for row, p in zip(batch_urel.relation, batch_probs)
    )
    assert row_summary == batch_summary
