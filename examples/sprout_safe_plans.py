"""SPROUT: scalable confidence computation for tractable queries.

Section 2.3: "For tractable queries on probabilistic databases, MayBMS
uses the SPROUT codebase for scalable query processing by reduction of
confidence computation to a sequence of SQL-like aggregations."

This example loads a TPC-H-like database and makes every customer, order
and (year, status) row uncertain with ``pick tuples ... independently
with probability p`` -- the tuple-independent tables SPROUT is about.
Then, through SQL only:

1. the hierarchical query "which nations have a customer with an
   expensive order" -- EXPLAIN shows every ``conf()`` group answered by
   the array pass over the condition columns, ``sprout[vectorized]``;
2. the three-way join that also requires the order's (year, status) row
   -- not hierarchical, so EXPLAIN shows groups going to the ``exact``
   ws-tree engine;
3. both answered again under a forced ``exact`` strategy: the safe plans
   and the general exact algorithm must agree.

Run:  python examples/sprout_safe_plans.py
"""

import time

from repro import INTEGER, TEXT, MayBMS, Relation, Schema
from repro.datagen.tpch import TpchGenerator

EXPENSIVE = "o.totalprice > 250000"

HIERARCHICAL = (
    "select c.nation, conf() as p from u_orders o, u_customer c "
    f"where o.custkey = c.custkey and {EXPENSIVE} group by c.nation"
)

THREE_WAY = (
    "select c.nation, conf() as p from u_orders o, u_customer c, u_yr y "
    "where o.custkey = c.custkey and o.orderyear = y.orderyear "
    f"and o.status = y.status and {EXPENSIVE} group by c.nation"
)


def load(db: MayBMS) -> None:
    gen = TpchGenerator(scale=0.3, seed=11)
    db.create_table_from_relation("customer", gen.customers())
    db.create_table_from_relation("orders", gen.orders())
    years = sorted({row[4] for row in gen.orders().rows})
    db.create_table_from_relation(
        "yr",
        Relation(
            Schema.of(("orderyear", INTEGER), ("status", TEXT)),
            [(year, status) for year in years for status in ("O", "F", "P")],
        ),
    )
    for target, source, p in (
        ("u_customer", "customer", 0.8),
        ("u_orders", "orders", 0.8),
        ("u_yr", "yr", 0.6),
    ):
        db.execute(
            f"create table {target} as select * from "
            f"(pick tuples from {source} independently with probability {p}) x"
        )
    print(
        f"Tuple-independent tables: {len(gen.customers())} customers, "
        f"{len(gen.orders())} orders, {3 * len(years)} (year, status) rows\n"
    )


def confidence_line(db: MayBMS, sql: str) -> str:
    """The strategy line EXPLAIN prints for the query's conf() call."""
    plan = [row[0].strip() for row in db.query("explain " + sql)]
    return next(line for line in plan if line.startswith("conf:"))


def answers(db: MayBMS, sql: str):
    started = time.perf_counter()
    rows = dict(db.query(sql).rows)
    return rows, (time.perf_counter() - started) * 1e3


def main() -> None:
    db = MayBMS(seed=7)
    load(db)

    results = {}
    for name, sql, strategy in (
        ("hierarchical", HIERARCHICAL, "sprout[vectorized]"),
        ("three-way", THREE_WAY, "exact"),
    ):
        line = confidence_line(db, sql)
        print(f"{name} query, EXPLAIN says:  {line}")
        assert strategy in line, line
        results[name] = answers(db, sql)

    db.set_confidence_strategy("exact", exact_budget=None)
    print()
    for name, sql in (("hierarchical", HIERARCHICAL), ("three-way", THREE_WAY)):
        (auto, auto_ms), (exact, exact_ms) = results[name], answers(db, sql)
        assert auto.keys() == exact.keys()
        worst = max(abs(auto[key] - exact[key]) for key in auto)
        assert worst < 1e-9, (name, worst)
        print(
            f"{name:12}: {len(auto)} nations, auto {auto_ms:6.1f} ms, "
            f"forced exact {exact_ms:6.1f} ms, max difference {worst:.1e}"
        )

    print("\nMost probable nations for the hierarchical query:")
    ranked = sorted(results["hierarchical"][0].items(), key=lambda kv: -kv[1])
    for nation, p in ranked[:5]:
        print(f"  {nation:<12} P = {p:.4f}")


if __name__ == "__main__":
    main()
