"""The three workloads over the ``tpch`` dataset: the translated join
(relational engine + wire), hierarchical confidence (lineage grouping +
closed form / SPROUT), and non-hierarchical confidence (exact ws-trees and
Monte Carlo)."""

from __future__ import annotations

import bisect
from collections import defaultdict
from statistics import median
from typing import Dict, Iterator, List, Optional, Tuple

from ..datasets import PICK_PROBABILITY, Tpch, price_band
from .base import Stmt, Workload, close, stratified

ROW_PROBABILITY = PICK_PROBABILITY * PICK_PROBABILITY  # order present and its customer


class TpchWorkload(Workload):
    def generate(self) -> None:
        self.data = Tpch(self.scale.tpch, self.seed)
        # Orders by price: the matches of a price band are a slice.
        self._by_price = sorted(self.data.orders.rows, key=lambda row: row[3])
        self._prices = [row[3] for row in self._by_price]
        self._customer = {row[0]: row for row in self.data.customers.rows}

    def load(self, db) -> None:
        self.data.load(db)

    def matching(self, band: Tuple[float, float]) -> List[tuple]:
        """The orders with ``low < totalprice <= high``."""
        low, high = band
        return self._by_price[
            bisect.bisect_right(self._prices, low) : bisect.bisect_right(self._prices, high)
        ]

    def band_for(self, rng, matches: float) -> Tuple[float, float]:
        """A price band holding about ``matches`` orders."""
        return price_band(rng, matches / len(self._by_price))


_BAND = "o.totalprice > {band[0]} and o.totalprice <= {band[1]}"


# -- ctrans_join ----------------------------------------------------------------


class CtransJoin(TpchWorkload):
    name = "ctrans_join"
    why = (
        "C-TRANS: the same select-join on certain tables and on their U-relation "
        "translation, full results fetched; engine + translate + result encode/wire, no confidence"
    )
    PAIRS = 12
    min_rounds = 5  # x 24 statements = 120
    SELECTIVITY = (0.05, 0.25)  # share of orders in a statement's price band
    _SELECT = "select o.orderkey, o.totalprice, c.name, c.nation from "
    _CERTAIN = _SELECT + "orders o, customer c where o.custkey = c.custkey and " + _BAND
    _TRANSLATED = _SELECT + "u_orders o, u_customer c where o.custkey = c.custkey and " + _BAND

    def rounds(self, conn: int) -> Iterator[List[Stmt]]:
        rng = self.rng(conn)
        while True:
            batch: List[Stmt] = []
            for selectivity in stratified(rng, *self.SELECTIVITY, self.PAIRS):
                band = price_band(rng, selectivity)
                expected = len(self.matching(band))
                seen: Dict[str, frozenset] = {}

                def certain(result, seen=seen, expected=expected) -> bool:
                    seen["rows"] = frozenset(result.rows)
                    return result.kind == "relation" and len(result.rows) == expected

                def translated(result, seen=seen) -> bool:
                    # Every tuple has probability 0.8 > 0, so the possible
                    # tuples of the translated join are the certain join.
                    arity = result.payload_arity
                    possible = frozenset(row[:arity] for row in result.rows)
                    return result.kind == "urelation" and possible == seen.get("rows")

                batch.append(Stmt("certain", self._CERTAIN.format(band=band), certain))
                batch.append(
                    Stmt("translated", self._TRANSLATED.format(band=band), translated)
                )
            yield batch

    def finish(self, run) -> Dict[str, float]:
        """``ctrans_overhead_ratio``: the paper's constant factor, as the
        median over measured pairs of translated ÷ certain latency."""
        ratios = []
        samples = run.measured
        for first, second in zip(samples, samples[1:]):
            if first.kind == "certain" and second.kind == "translated":
                ratios.append(second.latency_ns / first.latency_ns)
        return {"ctrans_overhead_ratio": median(ratios)} if ratios else {}


# -- conf_safe --------------------------------------------------------------------

_U_JOIN = "u_orders o, u_customer c where o.custkey = c.custkey and " + _BAND


def _customer_confidence(orders_of_customer: int) -> float:
    """P(customer present and at least one of its k matching orders)."""
    return PICK_PROBABILITY * (1.0 - (1.0 - PICK_PROBABILITY) ** orders_of_customer)


class ConfSafe(TpchWorkload):
    name = "conf_safe"
    why = (
        "hierarchical conf()/tconf()/esum/ecount over the translated join, half the "
        "statements repeated; lineage grouping + closed form/SPROUT, exact and Monte Carlo idle"
    )
    #: Fresh statements of one round.  Three in four are ``conf()``, so the
    #: median and the p90 both fall inside the conf classes instead of on
    #: the edge between them and the cheaper ``tconf``/expectation classes.
    CLASSES = ("conf_custkey", "conf_nation", "tconf") + (
        "conf_custkey",
        "conf_nation",
        "expectation",
        "conf_custkey",
        "conf_nation",
    )
    SELECTIVITY = (0.05, 0.08)
    min_rounds = 7  # x 16 statements = 112
    _SQL = {
        "conf_custkey": "select o.custkey, conf() as p from " + _U_JOIN + " group by o.custkey",
        "conf_nation": "select c.nation, conf() as p from " + _U_JOIN + " group by c.nation",
        "tconf": "select o.orderkey, tconf() as p from " + _U_JOIN,
        "expectation": (
            "select c.segment, esum(o.totalprice) as s, ecount() as n from "
            + _U_JOIN
            + " group by c.segment"
        ),
    }

    def _check(self, kind: str, band: Tuple[float, float]):
        matches = self.matching(band)
        customer = self._customer

        def orders_per_customer() -> Dict[int, int]:
            orders: Dict[int, int] = defaultdict(int)
            for row in matches:
                orders[row[1]] += 1
            return orders

        def conf_custkey(result) -> bool:
            orders = orders_per_customer()
            got = dict(result.rows)
            return got.keys() == orders.keys() and all(
                close(got[key], _customer_confidence(k)) for key, k in orders.items()
            )

        def conf_nation(result) -> bool:
            absent: Dict[str, float] = defaultdict(lambda: 1.0)
            for key, k in orders_per_customer().items():
                absent[customer[key][2]] *= 1.0 - _customer_confidence(k)
            got = dict(result.rows)
            return got.keys() == absent.keys() and all(
                close(got[nation], 1.0 - q) for nation, q in absent.items()
            )

        def tconf(result) -> bool:
            return len(result.rows) == len(matches) and all(
                close(row[1], ROW_PROBABILITY) for row in result.rows
            )

        def expectation(result) -> bool:
            total: Dict[str, float] = defaultdict(float)
            count: Dict[str, int] = defaultdict(int)
            for row in matches:
                segment = customer[row[1]][3]
                total[segment] += row[3]
                count[segment] += 1
            got = {row[0]: row[1:] for row in result.rows}
            return got.keys() == total.keys() and all(
                close(got[s][0], ROW_PROBABILITY * total[s])
                and close(got[s][1], ROW_PROBABILITY * count[s])
                for s in total
            )

        return {
            "conf_custkey": conf_custkey,
            "conf_nation": conf_nation,
            "tconf": tconf,
            "expectation": expectation,
        }[kind]

    def rounds(self, conn: int) -> Iterator[List[Stmt]]:
        rng = self.rng(conn)
        strata = len(self.CLASSES)
        previous: Dict[int, Tuple[float, float]] = {}
        round_number = 0
        while True:
            fresh = stratified(rng, *self.SELECTIVITY, strata)
            batch: List[Stmt] = []
            for position, kind in enumerate(self.CLASSES):
                # Each statement slot walks through the selectivity slices in turn.
                band = price_band(rng, fresh[(position + round_number) % strata])
                repeated = previous.get(position, band)
                previous[position] = band
                for value in (band, repeated):
                    batch.append(
                        Stmt(kind, self._SQL[kind].format(band=value), self._check(kind, value))
                    )
            round_number += 1
            yield batch


# -- conf_hard --------------------------------------------------------------------

_HARD_JOIN = (
    "u_orders o, u_customer c, u_yr y where o.custkey = c.custkey "
    "and o.orderyear = y.orderyear and o.status = y.status and " + _BAND
)


class ConfHard(TpchWorkload):
    name = "conf_hard"
    why = (
        "non-hierarchical three-way join grouped by nation: conf() by exact ws-trees over "
        "700-1200 clauses plus one aconf() over 100-135; lineage + confidence about two thirds "
        "of the time, the join the rest"
    )
    EPSILON, DELTA = 0.2, 0.1
    #: One aconf() in 21 statements: the p90 then lies among the conf()
    #: statements, not in the thin and wide tail the aconf() calls form.
    CONF_PER_ROUND = 19
    #: Matching orders (= clauses) of a conf() statement: enough that exact
    #: confidence costs more than the three-way join that feeds it.
    MATCHES = (700, 1200)
    ACONF_MATCHES = (100, 135)
    min_rounds = 6  # x 21 statements = 126
    _CONF = "select c.nation, conf() as p from " + _HARD_JOIN + " group by c.nation"
    _ACONF = (
        "select c.nation, aconf({epsilon}, {delta}) as p from "
        + _HARD_JOIN
        + " group by c.nation"
    )

    def _conf_check(self, band: Tuple[float, float], keep: Optional[Dict[str, float]] = None):
        def check(result) -> bool:
            got = dict(result.rows)
            if keep is not None:
                keep.update(got)
            nations = {self._customer[row[1]][2] for row in self.matching(band)}
            return got.keys() == nations and all(0.0 < p <= 1.0 for p in got.values())

        return check

    def rounds(self, conn: int) -> Iterator[List[Stmt]]:
        rng = self.rng(conn)
        orders = len(self._by_price)
        largest = min(self.MATCHES[1], orders // 2)
        smallest = min(self.MATCHES[0], orders // 4)
        while True:
            # The approximated lineage is capped: aconf's cost is super-linear
            # in the clause count (see README, sizing probes).
            low, high = self.ACONF_MATCHES
            small = self.band_for(
                rng, rng.uniform(min(low, smallest / 3), min(high, 0.45 * smallest))
            )
            exact: Dict[str, float] = {}

            def aconf(result, exact=exact) -> bool:
                got = dict(result.rows)
                return got.keys() == exact.keys() and all(
                    abs(got[n] - exact[n]) <= self.EPSILON * exact[n] for n in exact
                )

            batch = [Stmt("conf", self._CONF.format(band=small), self._conf_check(small, exact))]
            for matches in stratified(rng, smallest, largest, self.CONF_PER_ROUND):
                band = self.band_for(rng, matches)
                batch.append(Stmt("conf", self._CONF.format(band=band), self._conf_check(band)))
            batch.append(
                Stmt(
                    "aconf",
                    self._ACONF.format(band=small, epsilon=self.EPSILON, delta=self.DELTA),
                    aconf,
                )
            )
            yield batch
