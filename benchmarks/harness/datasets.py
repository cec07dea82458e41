"""The two generated datasets and the two sizes they come in.

``tpch`` is ``TpchGenerator(scale)`` -- customers, orders, their
tuple-independent U-relation versions materialised by ``pick tuples ...
with probability 0.8``, and a 21-row tuple-independent ``u_yr`` that makes
the three-way join non-hierarchical.  ``league`` composes several
``NBADataGenerator`` teams under team-prefixed player names (the generator
draws names from a pool of 400 and never terminates above that).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.datagen.nba import NBADataGenerator
from repro.datagen.tpch import TpchGenerator
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, TEXT


class Scale(NamedTuple):
    """Data sizes of one preset.  ``bench`` is what ``BENCHMARK.json`` runs
    (sized so that the driver's 136 runs, each with its set-up, fit its time
    cap); ``smoke`` is for the self-tests."""

    tpch: float  # TpchGenerator scale: 150 customers, 1500 orders per unit
    teams: int
    players: int  # per team, at most NAME_POOL
    sensors: int  # rows of serving_mixed's U-relation
    keys: int  # rows of point_ops' lookup table
    floors: bool  # hold the window open for ``Workload.min_rounds``


SCALES: Dict[str, Scale] = {
    "smoke": Scale(tpch=0.4, teams=2, players=4, sensors=40, keys=40, floors=False),
    "bench": Scale(tpch=20, teams=8, players=100, sensors=2000, keys=2000, floors=True),
}

#: ``NBADataGenerator`` draws "<first> <last>" from 20 x 20 names until it
#: has ``n_players`` distinct ones.
NAME_POOL = 400

PICK_PROBABILITY = 0.8
YEAR_PROBABILITY = 0.6
PRICE_LOW, PRICE_HIGH = 900.0, 300000.0  # TpchGenerator's totalprice range


def materialise(db, target: str, source: str, probability) -> None:
    """Store ``pick tuples from source`` as the U-relation ``target``;
    ``probability`` is a number or the name of a column of ``source``."""
    db.execute(
        f"create table {target} as select * from "
        f"(pick tuples from {source} independently with probability {probability}) x"
    )


def price_band(rng, selectivity: float) -> Tuple[float, float]:
    """A ``low < totalprice <= high`` band that keeps ``selectivity`` of the
    orders (prices are uniform on [PRICE_LOW, PRICE_HIGH]), at a random
    place in the price range: every statement touches other orders, so a
    run averages over the data instead of re-reading the dearest orders."""
    width = selectivity * (PRICE_HIGH - PRICE_LOW)
    low = round(rng.uniform(PRICE_LOW, PRICE_HIGH - width), 2)
    return low, round(low + width, 2)


class Tpch:
    def __init__(self, scale: float, seed: int):
        generator = TpchGenerator(scale=scale, seed=seed)
        self.customers = generator.customers()
        self.orders = generator.orders()
        years = sorted({row[4] for row in self.orders.rows})
        self.years = Relation(
            Schema.of(("orderyear", INTEGER), ("status", TEXT)),
            [(year, status) for year in years for status in ("O", "F", "P")],
        )

    def load(self, db) -> None:
        db.create_table_from_relation("customer", self.customers)
        db.create_table_from_relation("orders", self.orders)
        db.create_table_from_relation("yr", self.years)
        materialise(db, "u_orders", "orders", PICK_PROBABILITY)
        materialise(db, "u_customer", "customer", PICK_PROBABILITY)
        materialise(db, "u_yr", "yr", YEAR_PROBABILITY)


class League:
    """``teams`` generated teams side by side in one set of tables."""

    def __init__(self, teams: int, players: int, seed: int):
        if players > NAME_POOL:
            raise ValueError(
                f"{players} players per team: NBADataGenerator has only "
                f"{NAME_POOL} distinct names and would never return"
            )
        self.teams: List[NBADataGenerator] = [
            NBADataGenerator(seed=seed * 64 + team, n_players=players)
            for team in range(teams)
        ]

    @staticmethod
    def team_name(team: int) -> str:
        return f"T{team:02d}"

    def player_name(self, team: int, name: str) -> str:
        return f"{self.team_name(team)} {name}"

    def _stack(self, relation_of, schema: Schema, with_team: bool = False) -> Relation:
        rows = []
        for team, generator in enumerate(self.teams):
            prefix = (self.team_name(team),) if with_team else ()
            for row in relation_of(generator).rows:
                rows.append(prefix + (self.player_name(team, row[0]),) + tuple(row[1:]))
        return Relation(schema, rows)

    def load(self, db) -> None:
        text, real = TEXT, FLOAT
        tables = {
            "ft": self._stack(
                NBADataGenerator.fitness_transitions_relation,
                Schema.of(("player", text), ("init", text), ("final", text), ("p", real)),
            ),
            "states": self._stack(
                NBADataGenerator.initial_states_relation,
                Schema.of(("player", text), ("state", text)),
            ),
            "availability": self._stack(
                NBADataGenerator.availability_relation,
                Schema.of(("player", text), ("p", real)),
            ),
            "skills": self._stack(
                NBADataGenerator.skills_relation,
                Schema.of(("team", text), ("player", text), ("skill", text)),
                with_team=True,
            ),
            "points": self._stack(
                NBADataGenerator.recent_points_relation,
                Schema.of(("player", text), ("game", INTEGER), ("points", INTEGER)),
            ),
            "weights": self.teams[0].recency_weights_relation(),
        }
        for name, relation in tables.items():
            db.create_table_from_relation(name, relation)
