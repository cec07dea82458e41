"""C-WIRE: JSON rows versus typed column blocks, by result size.

One reply's round trip over a socket pair -- ``send_message``,
``recv_message``, ``ClientResult.from_wire`` -- with the result forced
into each frame form, for a 4-column certain result (int, float, two
texts) and its 7-column U-relation.  Where the two forms break even is
what ``protocol._COLUMNAR_MIN_ROWS`` is set from; a DML reply and a
ping are timed alongside, since they never carry rows.

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_wire_frames.py -q -s
"""

import socket
import time

import pytest

from repro.client import ClientResult
from repro.db import MayBMS
from repro.server import protocol

ROW_COUNTS = [1, 8, 16, 24, 32, 48, 64, 256, 2048]
#: Wall time spent per measured cell, split into this many repetitions
#: (the best repetition counts).
SECONDS = 0.05
REPEATS = 5


def round_trip_us(message) -> float:
    left, right = socket.socketpair()
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 << 20)
    try:
        best = float("inf")
        iterations = 1
        for _ in range(REPEATS):
            started = time.perf_counter()
            for _ in range(iterations):
                protocol.send_message(left, message)
                reply = protocol.recv_message(right)
                if "result" in reply:
                    ClientResult.from_wire(reply["result"])
            elapsed = time.perf_counter() - started
            best = min(best, elapsed / iterations)
            iterations = max(1, int(SECONDS / REPEATS / best))
        return best * 1e6
    finally:
        left.close()
        right.close()


@pytest.fixture(scope="module")
def store():
    db = MayBMS(seed=1)
    db.execute("create table t (k integer, p float, s text, n text)")
    db.execute(
        "insert into t values "
        + ", ".join(
            f"({i}, {0.5 + i / 1e5}, 'Customer#{i:09d}', 'NATION{i % 25}')"
            for i in range(max(ROW_COUNTS))
        )
    )
    db.execute("create table u as pick tuples from t independently with probability 0.8")
    yield db
    db.close()


def test_frame_forms_by_row_count(store, report, monkeypatch):
    rows = [
        ("dml reply", "-", round_trip_us({"ok": True, "result": {"kind": "none", "row_count": 1}}), "-"),
        ("ping", "-", round_trip_us({"ok": True}), "-"),
    ]
    wins = {}
    for table in ("t", "u"):
        for count in ROW_COUNTS:
            result = store.execute(f"select * from {table} where k < {count}")
            times = []
            for threshold in (count + 1, 0):  # JSON rows, then column blocks
                monkeypatch.setattr(protocol, "_COLUMNAR_MIN_ROWS", threshold)
                times.append(round_trip_us({"ok": True, "result": protocol.encode_result(result)}))
            rows.append((f"select * from {table}", count, times[0], times[1]))
            wins[table, count] = times[1] < times[0]
    report(
        "C-WIRE: reply round trip (us), JSON rows vs column blocks",
        ["reply", "rows", "json", "columnar"],
        rows,
    )
    # Shape: at thousands of rows the blocks win by a wide margin.
    assert wins["t", max(ROW_COUNTS)] and wins["u", max(ROW_COUNTS)]
