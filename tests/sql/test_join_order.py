"""Join order cannot change an answer (metamorphic, seeded).

The executor folds three or more FROM inputs smallest-connected-first
(``Executor._join_order``).  For every permutation of the FROM items of
a query that mixes a ``repair key`` source, a t-certain table with
non-unique join keys, a self-join alias pair and a selective
single-input filter, the reordered fold must give what the FROM-order
fold of the same text gives: the same payload and condition columns in
the same order and the same multiset of rows, bit for bit.  And
``conf()`` must agree across all permutations to 1e-12.
"""

import itertools
import random

import pytest

from repro.db import MayBMS
from repro.sql.executor import Executor

ITEMS = {
    "r": "(repair key k in t weight by w) r",
    "c": "c",
    "a1": "d a1",
    "a2": "d a2",
}
WHERE = "r.k = c.k and r.v = a1.k and a1.j = a2.k and a2.j < 2"
GROUP = "c.name, a2.k"


def _store(seed):
    rng = random.Random(seed)
    db = MayBMS()
    db.execute("create table t (k integer, v integer, w float)")
    db.execute("create table c (k integer, name text)")
    db.execute("create table d (k integer, j integer)")
    t = [(rng.randrange(6), rng.randrange(5), rng.choice([0.0, 0.5, 1.0, 2.0]))
         for _ in range(30)]
    # Every repair-key group needs a positive total weight.
    t += [(k, rng.randrange(5), 1.0) for k in range(6)]
    c = [(rng.randrange(6), rng.choice(["x", "y", "z"])) for _ in range(9)]
    d = [(rng.randrange(5), rng.randrange(5)) for _ in range(12)]
    for table, rows in (("t", t), ("c", c), ("d", d)):
        db.execute(f"insert into {table} values " + ", ".join(map(str, rows)))
    return db


def _queries(names):
    from_clause = ", ".join(ITEMS[name] for name in names)
    return (
        f"select * from {from_clause} where {WHERE}",
        f"select {GROUP}, conf() as p from {from_clause} where {WHERE} group by {GROUP}",
    )


def _run(seed, names):
    """The wide result of ``select *`` and the conf() answer, on a store
    of its own (so variable ids agree between two runs)."""
    db = _store(seed)
    rows_sql, conf_sql = _queries(names)
    wide = db.uncertain_query(rows_sql)
    conf = {row[:-1]: row[-1] for row in db.query(conf_sql).rows}
    return wide, conf


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_permutation_answers_alike(seed, monkeypatch):
    chosen = []
    choose = Executor._join_order

    def spy(self, items, sources, conjuncts):
        order = choose(self, items, sources, conjuncts)
        chosen.append(order)
        return order

    def from_order(self, items, sources, conjuncts):
        return list(range(len(sources)))

    confs = []
    for names in itertools.permutations(ITEMS):
        monkeypatch.setattr(Executor, "_join_order", spy)
        wide, conf = _run(seed, names)
        monkeypatch.setattr(Executor, "_join_order", from_order)
        reference, reference_conf = _run(seed, names)

        assert [(c.name, c.qualifier) for c in wide.schema] == [
            (c.name, c.qualifier) for c in reference.schema
        ]
        assert (wide.payload_arity, wide.cond_arity) == (
            reference.payload_arity,
            reference.cond_arity,
        )
        assert sorted(map(repr, wide.relation.rows)) == sorted(
            map(repr, reference.relation.rows)
        )
        assert conf.keys() == reference_conf.keys()
        confs.append(conf)

    first = confs[0]
    for conf in confs[1:]:
        assert conf.keys() == first.keys()
        for key, p in conf.items():
            assert p == pytest.approx(first[key], abs=1e-12)
    # The test means something only if some permutation was reordered.
    assert any(order != sorted(order) for order in chosen)
