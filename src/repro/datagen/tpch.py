"""A scaled-down TPC-H-like generator.

The U-relations paper [1] and SPROUT [5] evaluate on TPC-H data, made
uncertain tuple by tuple.  This generator produces the three-level
customer / orders / lineitem hierarchy at a configurable scale,
deterministic under a seed; SQL makes the tables tuple-independent with
``pick tuples from ... independently with probability p``.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, TEXT

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_STATUSES = ("O", "F", "P")
_NATIONS = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
)


class TpchGenerator:
    """Generates customer/orders/lineitem at ``scale`` (1.0 ~ 150 customers,
    1500 orders, ~6000 lineitems -- a thousandth of real TPC-H SF1, which
    is plenty for shape experiments on a pure-Python engine)."""

    def __init__(self, scale: float = 1.0, seed: int = 22):
        self.scale = scale
        self.rng = random.Random(seed)
        self.n_customers = max(1, int(150 * scale))
        self.n_orders = max(1, int(1500 * scale))
        self._customers: Optional[Relation] = None
        self._orders: Optional[Relation] = None
        self._lineitems: Optional[Relation] = None

    # -- certain tables -----------------------------------------------------
    def customers(self) -> Relation:
        """customer(custkey, name, nation, segment, acctbal)."""
        if self._customers is None:
            schema = Schema.of(
                ("custkey", INTEGER),
                ("name", TEXT),
                ("nation", TEXT),
                ("segment", TEXT),
                ("acctbal", FLOAT),
            )
            rows = []
            for key in range(1, self.n_customers + 1):
                rows.append(
                    (
                        key,
                        f"Customer#{key:09d}",
                        self.rng.choice(_NATIONS),
                        self.rng.choice(_SEGMENTS),
                        round(self.rng.uniform(-999.99, 9999.99), 2),
                    )
                )
            self._customers = Relation(schema, rows)
        return self._customers

    def orders(self) -> Relation:
        """orders(orderkey, custkey, status, totalprice, orderyear)."""
        if self._orders is None:
            schema = Schema.of(
                ("orderkey", INTEGER),
                ("custkey", INTEGER),
                ("status", TEXT),
                ("totalprice", FLOAT),
                ("orderyear", INTEGER),
            )
            rows = []
            for key in range(1, self.n_orders + 1):
                rows.append(
                    (
                        key,
                        self.rng.randint(1, self.n_customers),
                        self.rng.choice(_STATUSES),
                        round(self.rng.uniform(900.0, 300000.0), 2),
                        self.rng.randint(1992, 1998),
                    )
                )
            self._orders = Relation(schema, rows)
        return self._orders

    def lineitems(self) -> Relation:
        """lineitem(orderkey, linenumber, quantity, price, discount)."""
        if self._lineitems is None:
            schema = Schema.of(
                ("orderkey", INTEGER),
                ("linenumber", INTEGER),
                ("quantity", INTEGER),
                ("price", FLOAT),
                ("discount", FLOAT),
            )
            rows = []
            for orderkey in range(1, self.n_orders + 1):
                for line in range(1, self.rng.randint(1, 7) + 1):
                    rows.append(
                        (
                            orderkey,
                            line,
                            self.rng.randint(1, 50),
                            round(self.rng.uniform(900.0, 105000.0), 2),
                            round(self.rng.uniform(0.0, 0.1), 2),
                        )
                    )
            self._lineitems = Relation(schema, rows)
        return self._lineitems
