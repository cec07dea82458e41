"""SPROUT's safe plans against exact confidence and world enumeration,
on generated instances, through SQL.

Seeded random tables are made tuple-independent with ``pick tuples ...
with probability p``.  A hierarchical two-table join and a
non-hierarchical three-table join, both grouped, get ``conf()`` three
ways: under the ``auto`` strategy (the array pass and SPROUT wherever
they apply), under a forced ``exact``, and by enumerating the worlds of
each group's lineage.  All three must agree to 1e-9.  ``auto`` runs once
more with the array pass off, so that every group goes through the
per-lineage evaluator as well.
"""

import random

import pytest

from repro.core.confidence.naive import confidence_by_enumeration
from repro.core.lineage import group_lineages
from repro.db import MayBMS
from repro.engine import columnar

#: r(a, g) ⋈ s(a, b): per group g, the clauses r_a ∧ s_ab -- every r
#: variable is the root of its clauses.
HIERARCHICAL = "from ur r, us s where r.a = s.a"

#: ... ⋈ t(b): s_ab now sits under both r_a and t_b, the H0 shape.
THREE_WAY = "from ur r, us s, ut t where r.a = s.a and s.b = t.b"

SEEDS = range(16)


def load(seed):
    """Groups of 2-3 ``r`` rows, each joined to 1-3 ``s`` rows over three
    ``t`` rows: at most a dozen variables per group, few enough to
    enumerate, and (with NumPy) enough rows for the array pass."""
    rng = random.Random(seed)
    db = MayBMS(seed=seed)
    db.execute("create table r (a integer, g integer, p float)")
    db.execute("create table s (a integer, b integer, p float)")
    db.execute("create table t (b integer, p float)")
    r_rows, s_rows = [], []
    for a in range(rng.randint(8, 10)):
        r_rows.append((a, a % 4, rng.uniform(0.1, 0.9)))
        for b in rng.sample(range(3), rng.randint(1, 3)):
            s_rows.append((a, b, rng.uniform(0.1, 0.9)))
    t_rows = [(b, rng.uniform(0.1, 0.9)) for b in range(3)]
    for table, rows in (("r", r_rows), ("s", s_rows), ("t", t_rows)):
        values = ", ".join(repr(row) for row in rows)
        db.execute(f"insert into {table} values {values}")
        db.execute(
            f"create table u{table} as select * from "
            f"(pick tuples from {table} independently with probability p) x"
        )
    return db


def by_enumeration(db, body):
    """Per group, P(lineage) by enumerating its variables' worlds."""
    urel = db.execute("select r.g " + body).urelation
    groups = {}
    for index, row in enumerate(urel.relation.rows):
        groups.setdefault(row[0], []).append(index)
    lineages = group_lineages(urel, list(groups.values()))
    return {
        g: confidence_by_enumeration(lineage, urel.registry)
        for g, lineage in zip(groups, lineages)
    }


def conf_sql(body):
    return f"select r.g, conf() as p {body} group by r.g"


def conf(db, body):
    return dict(db.query(conf_sql(body)).rows)


def strategies(db, body):
    """The strategy line of the query's EXPLAIN."""
    plan = db.query("explain " + conf_sql(body))
    return next(row[0].strip() for row in plan if row[0].strip().startswith("conf:"))


@pytest.mark.parametrize("body", [HIERARCHICAL, THREE_WAY], ids=["hierarchical", "three-way"])
@pytest.mark.parametrize("seed", SEEDS)
def test_auto_exact_and_enumeration_agree(seed, body, monkeypatch):
    db = load(seed)
    truth = by_enumeration(db, body)
    auto = conf(db, body)
    with monkeypatch.context() as patch:
        patch.setattr(columnar, "HAVE_NUMPY", False)
        per_lineage = conf(db, body)
    db.set_confidence_strategy("exact", exact_budget=None)
    exact = conf(db, body)
    assert auto.keys() == per_lineage.keys() == exact.keys() == truth.keys()
    for g, p in truth.items():
        assert auto[g] == pytest.approx(p, abs=1e-9)
        assert per_lineage[g] == pytest.approx(p, abs=1e-9)
        assert exact[g] == pytest.approx(p, abs=1e-9)


def test_safe_plans_answer_the_hierarchical_join_only():
    """Under ``auto`` the hierarchical join never reaches the exact engine;
    over the seeds, the three-way join does."""
    hard = []
    for seed in SEEDS:
        db = load(seed)
        line = strategies(db, HIERARCHICAL)
        assert "sprout" in line and "exact" not in line and "monte-carlo" not in line
        hard.append(strategies(db, THREE_WAY))
    assert any("exact" in line for line in hard)
    assert not any("monte-carlo" in line for line in hard)
