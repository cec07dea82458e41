"""The two workloads where SQL and confidence are small and the serving
path is everything: ``serving_mixed`` (two connections, a modelled slow
disk, crash recovery at the end) and ``point_ops`` (one connection, tiny
statements, the sandbox's real fsync)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, TEXT

from ..datasets import materialise
from .base import Stmt, Workload, close

_EVENTS = Schema.of(("id", INTEGER), ("sensor", INTEGER), ("reading", FLOAT))


def _acknowledged(ok: bool, acked: Set[int], item: int) -> bool:
    """Remember a write the server acknowledged (checks only run on
    statements that came back without an error)."""
    if ok:
        acked.add(item)
    return ok


class ServingMixed(Workload):
    name = "serving_mixed"
    why = (
        "2 connections of inserts, 3-statement transactions, short conf() reads and point selects "
        "under wal.fsync=delay:10, then kill -9 and recover; sessions, locks, MVCC, WAL, group commit"
    )
    connections = 2
    warmup_rounds = 2
    reports = ("latency_p99_ms", "commit_p99_ms")
    #: The failpoint sleeps in 10 ms slices, so 10 is the smallest honest delay.
    server_env = {"REPRO_FAULTS": "wal.fsync=delay:10"}
    SEEDED_EVENTS = 50
    RECENT = 50
    #: One round: 50 % inserts, 10 % transactions, 35 % conf reads, 5 % point
    #: selects.  ISSUE 11's 65/10/20/5 put the median on the edge between
    #: the statements that wait for one fsync and those that wait for two.
    SLOTS = ("insert",) * 10 + ("transaction",) * 2 + ("conf",) * 7 + ("point",)
    #: x 2 connections x 12 commits = 1104 commits for ``commit_p99_ms``; at
    #: one 10 ms fsync per commit that is about 14 s, the longest window.
    min_rounds = 46

    def generate(self) -> None:
        rng = self.rng("data")
        self.sensor_p = {
            sensor: round(rng.uniform(0.2, 0.95), 6)
            for sensor in range(1, self.scale.sensors + 1)
        }
        self.events: List[List[Tuple[int, int, float]]] = []
        for conn in range(self.connections):
            self.events.append(
                [self._event(rng, event_id) for event_id in range(1, self.SEEDED_EVENTS + 1)]
            )
        #: What the server acknowledged, per connection: the crash check.
        self.acked_events: List[Set[int]] = [set() for _ in range(self.connections)]
        self.acked_ledger: Set[int] = set()

    def _event(self, rng, event_id: int) -> Tuple[int, int, float]:
        return (event_id, rng.randint(1, self.scale.sensors), round(rng.uniform(0, 100), 3))

    def load(self, db) -> None:
        db.create_table_from_relation(
            "sensors",
            Relation(
                Schema.of(("sensor", INTEGER), ("p", FLOAT)), list(self.sensor_p.items())
            ),
        )
        materialise(db, "u_sensors", "sensors", "p")
        for conn, rows in enumerate(self.events):
            db.create_table_from_relation(f"events_{conn}", Relation(_EVENTS, rows))
        db.execute("create table ledger (id integer, conn integer, amount float)")

    def _conf_sql(self, conn: int, after_id: int) -> str:
        return (
            f"select e.sensor, conf() as p from events_{conn} e, u_sensors b "
            f"where e.sensor = b.sensor and e.id > {after_id} group by e.sensor"
        )

    def _conf_check(self, events: List[Tuple[int, int, float]]):
        expected = {sensor: self.sensor_p[sensor] for _, sensor, _ in events}

        def check(result) -> bool:
            got = dict(result.rows)
            return got.keys() == expected.keys() and all(
                close(got[s], p) for s, p in expected.items()
            )

        return check

    def rounds(self, conn: int) -> Iterator[List[Stmt]]:
        rng = self.rng(conn)
        events = self.events[conn]
        acked = self.acked_events[conn]
        table = f"events_{conn}"
        ledger_id = conn * 10_000_000
        while True:
            slots = list(self.SLOTS)
            rng.shuffle(slots)
            batch: List[Stmt] = []
            for slot in slots:
                if slot == "insert":
                    event = self._event(rng, events[-1][0] + 1)
                    events.append(event)
                    batch.append(
                        Stmt(
                            "insert",
                            f"insert into {table} values ({event[0]}, {event[1]}, {event[2]})",
                            lambda r, i=event[0]: _acknowledged(r.row_count == 1, acked, i),
                            commit=True,
                        )
                    )
                elif slot == "transaction":
                    ledger_id += 1
                    amount = round(rng.uniform(1, 500), 2)
                    batch.append(Stmt("begin", "begin"))
                    batch.append(
                        Stmt(
                            "txn_insert",
                            f"insert into ledger values ({ledger_id}, {conn}, {amount})",
                            lambda r: r.row_count == 1,
                        )
                    )
                    batch.append(
                        Stmt(
                            "commit",
                            "commit",
                            lambda r, i=ledger_id: _acknowledged(True, self.acked_ledger, i),
                            commit=True,
                        )
                    )
                elif slot == "conf":
                    recent = events[-self.RECENT :]
                    batch.append(
                        Stmt(
                            "conf",
                            self._conf_sql(conn, recent[0][0] - 1),
                            self._conf_check(recent),
                        )
                    )
                else:
                    event = rng.choice(events)
                    batch.append(
                        Stmt(
                            "point",
                            f"select id, sensor, reading from {table} where id = {event[0]}",
                            lambda r, e=event: r.rows == [e],
                        )
                    )
            yield batch

    def finish(self, run) -> Dict[str, float]:
        """``kill -9`` after the last ack, restart on the same store: every
        acknowledged write must be there and ``conf()`` must answer as
        before.  ``recovery_s`` is the restart's time to first ``ping``."""
        probe = self._conf_sql(0, 0)
        before = run.control.execute(probe).rows
        client, recovery_s = run.crash_and_restart()
        lost = 0
        for conn, acked in enumerate(self.acked_events):
            present = {row[0] for row in client.execute(f"select id from events_{conn}").rows}
            lost += len(acked - present)
        present = {row[0] for row in client.execute("select id from ledger").rows}
        lost += len(self.acked_ledger - present)
        run.attempted += 2
        run.failed += (lost > 0) + (sorted(client.execute(probe).rows) != sorted(before))
        return {"recovery_s": recovery_s}


class PointOps(Workload):
    name = "point_ops"
    why = (
        "1 connection of tiny inserts, point selects, tconf() and pings on real fsync; fixed "
        "per-statement overhead of client, protocol, SQL front end, dispatch and WAL append"
    )
    warmup_rounds = 10
    reports = ("latency_p99_ms",)
    SMALL = 50
    #: One round.  Not the 50/30/10/10 of ISSUE 11: with exactly half the
    #: statements in the slowest class the median would sit on a class edge.
    SLOTS = ("insert",) * 9 + ("select",) * 7 + ("tconf",) * 2 + ("ping",) * 2
    min_rounds = 600  # x 20 statements = ISSUE 11's 12 000 tiny ops (about 7 s)

    def generate(self) -> None:
        rng = self.rng("data")
        self.small_p = {k: round(rng.uniform(0.1, 0.9), 6) for k in range(1, self.SMALL + 1)}

    def load(self, db) -> None:
        db.create_table_from_relation(
            "kv",
            Relation(
                Schema.of(("k", INTEGER), ("v", TEXT)),
                [(k, f"value-{k}") for k in range(1, self.scale.keys + 1)],
            ),
        )
        db.create_table_from_relation(
            "small",
            Relation(Schema.of(("k", INTEGER), ("p", FLOAT)), list(self.small_p.items())),
        )
        materialise(db, "u_small", "small", "p")
        db.execute("create table log (id integer, k integer, v float)")

    def rounds(self, conn: int) -> Iterator[List[Stmt]]:
        rng = self.rng(conn)
        next_id = 0

        def tconf(result) -> bool:
            got = dict(result.rows)
            return got.keys() == self.small_p.keys() and all(
                close(got[k], p) for k, p in self.small_p.items()
            )

        while True:
            slots = list(self.SLOTS)
            rng.shuffle(slots)
            batch: List[Stmt] = []
            for slot in slots:
                if slot == "insert":
                    next_id += 1
                    key = rng.randint(1, self.scale.keys)
                    value = round(rng.uniform(0, 1), 6)
                    batch.append(
                        Stmt(
                            "insert",
                            f"insert into log values ({next_id}, {key}, {value})",
                            lambda r: r.row_count == 1,
                            commit=True,
                        )
                    )
                elif slot == "select":
                    key = rng.randint(1, self.scale.keys)
                    batch.append(
                        Stmt(
                            "select",
                            f"select k, v from kv where k = {key}",
                            lambda r, k=key: r.rows == [(k, f"value-{k}")],
                        )
                    )
                elif slot == "tconf":
                    batch.append(Stmt("tconf", "select k, tconf() as p from u_small", tconf))
                else:
                    batch.append(Stmt("ping", None))
            yield batch
