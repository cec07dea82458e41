"""The wire contract: what a client reads is what the engine answered.

Results of ``_COLUMNAR_MIN_ROWS`` rows or more travel as typed column
blocks, smaller ones as JSON rows (see :mod:`repro.server.protocol`).
Either way the rows a :class:`~repro.client.Client` decodes must equal
the in-process rows by ``repr``, so Python types are compared too: an
``int`` in a FLOAT column, ``True`` versus ``1``, ``-0.0`` versus
``0.0``.  Hostile and fuzzed frames may raise :class:`ProtocolError`
and nothing else.
"""

import json
import math
import random
import socket
import struct
import tracemalloc

import pytest

from repro.client import Client
from repro.core.urelation import URelation
from repro.db import MayBMS
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, TEXT
from repro.errors import ProtocolError
from repro.server import MayBMSServer, protocol
from repro.sql.executor import StatementResult
from serving import serve

#: A tiny result (JSON rows) and one large enough for column blocks.
SIZES = {"json": 3, "columnar": protocol._COLUMNAR_MIN_ROWS + 5}

#: Per column: its declared type and the values its rows cycle through.
VALUES = {
    "i": (INTEGER, [0, 1, -5, 2**63 - 1, -(2**63)]),
    "i_null": (INTEGER, [1, None, 3]),
    "i_big": (INTEGER, [2**70, 1, -(2**64)]),
    "f": (FLOAT, [0.5, 1e300, -2.25, 5e-324]),
    "f_null": (FLOAT, [0.5, None]),
    "f_special": (FLOAT, [math.nan, math.inf, -math.inf, -0.0, 0.0]),
    "b": (BOOLEAN, [True, False, None]),
    "s": (TEXT, ["", "plain", "\U0001f600 non-BMP", "\ud800", "é"]),
}


def _cycle(values, count):
    return [values[i % len(values)] for i in range(count)]


@pytest.fixture
def served():
    """An in-memory store with one ``cases_<size>`` table per size (a key
    column ``k`` plus every column of ``VALUES``) and a U-relation over
    it, served to one client."""
    db = MayBMS(seed=1)
    schema = Schema(
        [Column("k", INTEGER)] + [Column(name, kind) for name, (kind, _) in VALUES.items()]
    )
    for label, count in SIZES.items():
        columns = [list(range(count))] + [_cycle(v, count) for _, v in VALUES.values()]
        db.create_table_from_relation(f"cases_{label}", Relation(schema, zip(*columns)))
        db.execute(
            f"create table u_{label} as "
            f"pick tuples from cases_{label} independently with probability 0.5"
        )
    server = MayBMSServer(db).start()
    client = Client(server.host, server.port)
    yield db, client
    client.close()
    server.close()
    db.close()


def _in_process(result: StatementResult):
    output = result.output
    if output is None:
        return ("none", (), [], result.row_count, None, None)
    relation = output.relation if isinstance(output, URelation) else output
    arities = (
        (output.payload_arity, output.cond_arity) if isinstance(output, URelation) else (None, None)
    )
    return (
        "urelation" if isinstance(output, URelation) else "relation",
        tuple(column.name for column in relation.schema),
        relation.rows,
        result.row_count,
    ) + arities


def _over_the_wire(result):
    return (
        result.kind,
        tuple(result.columns),
        result.rows,
        result.row_count,
        result.payload_arity,
        result.cond_arity,
    )


def assert_same_answer(db, client, sql):
    expected = _in_process(db.execute(sql))
    got = _over_the_wire(client.execute(sql))
    assert repr(got) == repr(expected)
    return got


def _frame(result: StatementResult) -> bytes:
    return protocol._frame({"ok": True, "result": protocol.encode_result(result)})


@pytest.mark.parametrize("size", list(SIZES))
class TestAnswers:
    @pytest.mark.parametrize("column", list(VALUES))
    def test_one_column(self, served, size, column):
        db, client = served
        assert_same_answer(db, client, f"select {column} from cases_{size}")

    def test_every_column(self, served, size):
        db, client = served
        _, _, rows, *_ = assert_same_answer(db, client, f"select * from cases_{size}")
        assert len(rows) == SIZES[size]

    def test_float_column_holding_ints(self, served, size):
        db, client = served
        sql = f"select case when k >= 0 then 1 else 0.5 end as f from cases_{size}"
        assert db.query(sql).schema.columns[0].type == FLOAT
        _, _, rows, *_ = assert_same_answer(db, client, sql)
        assert {type(value) for (value,) in rows} == {int}

    def test_mixed_int_and_float_column(self, served, size):
        db, client = served
        sql = f"select case when k > 1 then 1 else 0.5 end as f from cases_{size}"
        assert_same_answer(db, client, sql)

    def test_zero_rows(self, served, size):
        db, client = served
        _, columns, rows, *_ = assert_same_answer(db, client, f"select * from cases_{size} where k < 0")
        assert rows == [] and len(columns) == 1 + len(VALUES)

    def test_urelation(self, served, size):
        db, client = served
        got = assert_same_answer(db, client, f"select k, s, f_special from u_{size}")
        assert got[0] == "urelation" and got[4:] == (3, 1)

    def test_translated_join(self, served, size):
        db, client = served
        got = assert_same_answer(
            db, client, f"select a.k, b.s from u_{size} a, u_{size} b where a.k = b.k"
        )
        assert got[4:] == (2, 2)

    def test_frame_form_follows_the_row_count(self, served, size):
        db, _ = served
        frame = _frame(db.execute(f"select * from cases_{size}"))
        assert (frame[4:5] == b"\x00") == (size == "columnar")


def test_script_reply_with_three_results(served):
    db, client = served
    script = (
        "select * from cases_columnar; "
        "select k, b from cases_json; "
        "select k, i_big from u_columnar"
    )
    expected = [_in_process(result) for result in db.execute_script(script)]
    got = [_over_the_wire(result) for result in client.execute_script(script)]
    assert len(got) == 3
    assert repr(got) == repr(expected)


def test_dml_reply_is_plain_json():
    result = StatementResult(row_count=3)
    frame = _frame(result)
    assert json.loads(frame[4:]) == {"ok": True, "result": {"kind": "none", "row_count": 3}}


@pytest.mark.parametrize(
    "values, tag",
    [
        ([1, 2**63 - 1, -(2**63)], "q"),
        ([0.5, -0.0, math.nan], "d"),
        ([1, 0.5], "j"),
        ([1.0, 2], "j"),
        ([True, False], "j"),
        ([1, None], "j"),
        ([2**63, 1], "j"),
        (["a", "b"], "j"),
    ],
)
def test_block_tag_is_chosen_from_the_values(values, tag):
    assert protocol._block(values, 0)[0] == tag


def _schema(width):
    return Schema([Column(f"c{i}", FLOAT) for i in range(width)])


def test_rows_without_columns_stay_json():
    relation = Relation(_schema(0), [()] * (protocol._COLUMNAR_MIN_ROWS + 1))
    frame = _frame(StatementResult(output=relation))
    reply = protocol.recv_message(_Wire(frame))
    assert frame[4:5] == b"{" and reply["result"]["rows"] == [[]] * len(relation)


def test_oversized_result_is_refused_before_it_is_built(monkeypatch):
    """The block encoder stops at the first block that crosses the limit:
    the refused reply never holds more than the limit plus one block."""
    count, width = 20_000, 6
    block = 8 * count
    relation = Relation(_schema(width), [(float(i),) * width for i in range(count)])
    encoded = protocol.encode_result(StatementResult(output=relation))
    limit = 2 * block + block // 2
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", limit)
    left, right = socket.socketpair()
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            protocol.send_message(left, {"ok": True, "result": encoded})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        left.close()
        right.close()
    assert peak < limit + block


# -- hostile and fuzzed frames -------------------------------------------------


class _Wire:
    """A socket stand-in that yields ``data`` and then EOF."""

    def __init__(self, data: bytes):
        self._data = data

    def recv(self, count: int) -> bytes:
        chunk, self._data = self._data[:count], self._data[count:]
        return chunk


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _columnar(header, tail: bytes, header_length=None) -> bytes:
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    length = len(text) if header_length is None else header_length
    return _framed(b"\x00" + struct.pack(">I", length) + text + tail)


def _reply(n, blocks):
    return {"ok": True, "result": {"kind": "relation", "rows": {"n": n, "blocks": blocks}}}


ONE = struct.pack("<q", 7)

HOSTILE = {
    "header length beyond the payload": _columnar(_reply(1, [["q", 8]]), ONE, 10_000),
    "payload ends inside the header length": _framed(b"\x00\x00\x01"),
    "blocks longer than the tail": _columnar(_reply(1, [["q", 16]]), ONE),
    "blocks shorter than the tail": _columnar(_reply(1, [["q", 8]]), ONE + ONE),
    "q block not whole values": _columnar(_reply(1, [["q", 7]]), ONE[:7]),
    "d block not whole values": _columnar(_reply(1, [["d", 12]]), ONE + ONE[:4]),
    "n disagrees with a q block": _columnar(_reply(2, [["q", 8]]), ONE),
    "n disagrees with a j block": _columnar(_reply(2, [["j", 3]]), b"[1]"),
    "j block not a list": _columnar(_reply(1, [["j", 3]]), b'"a"'),
    "j block not JSON": _columnar(_reply(1, [["j", 3]]), b"[1,"),
    "unknown tag": _columnar(_reply(1, [["z", 8]]), ONE),
    "unhashable tag": _columnar(_reply(1, [[["q"], 8]]), ONE),
    "header not JSON": _columnar(b"{not json", b""),
    "header not UTF-8": _columnar(b"\xff\xfe", b""),
    "header not an object": _columnar(b"[1, 2]", b""),
    "header nested too deep": _columnar(b"[" * 100_000, b""),
    "results not a list": _columnar({"ok": True, "results": {"rows": {}}}, b""),
    "n not an int": _columnar(_reply("1", [["q", 8]]), ONE),
    "n negative": _columnar(_reply(-1, []), b""),
    "blocks not a list": _columnar(_reply(1, "q8"), ONE),
    "block not a pair": _columnar(_reply(1, [["q", 8, 0]]), ONE),
    "block length negative": _columnar(_reply(1, [["q", -8]]), ONE),
    "block length not an int": _columnar(_reply(1, [["q", 8.0]]), ONE),
    "rows without columns": _columnar(_reply(10**9, []), b""),
    "JSON payload not an object": _framed(b"[]"),
    "JSON payload truncated": _framed(b'{"ok": tr'),
}


@pytest.mark.parametrize("frame", list(HOSTILE.values()), ids=list(HOSTILE))
def test_hostile_frame_raises_protocol_error(frame):
    with pytest.raises(ProtocolError):
        protocol.recv_message(_Wire(frame))


def test_hostile_frames_drop_only_their_connection():
    with serve() as server:
        with Client(server.host, server.port) as bystander:
            bystander.execute("create table t (a integer)")
            before = bystander.server_stats()["serving"]["recv_errors"]
            for frame in HOSTILE.values():
                with socket.create_connection((server.host, server.port), timeout=5) as hostile:
                    hostile.sendall(frame)
                    assert hostile.recv(1) == b""  # the server hung up
                assert bystander.ping()
            after = bystander.server_stats()["serving"]["recv_errors"]
            assert after - before == len(HOSTILE)
            assert bystander.query("select count(*) as n from t").scalar() == 0


def _join_frames():
    """Replies shaped like the C-TRANS benchmark's: the same select-join
    on certain tables and on their U-relation translation."""
    rng = random.Random(5)
    db = MayBMS(seed=5)
    db.execute("create table customer (custkey integer, name text, nation text)")
    db.execute("create table orders (orderkey integer, custkey integer, totalprice float)")
    db.execute(
        "insert into customer values "
        + ", ".join(f"({c}, 'Customer#{c:09d}', 'NATION{c % 5}')" for c in range(20))
    )
    db.execute(
        "insert into orders values "
        + ", ".join(f"({o}, {rng.randrange(20)}, {rng.uniform(1e3, 5e5)})" for o in range(60))
    )
    for table in ("customer", "orders"):
        db.execute(
            f"create table u_{table} as pick tuples from {table} independently with probability 0.8"
        )
    select = "select o.orderkey, o.totalprice, c.name, c.nation from {0}orders o, {0}customer c "
    join = select + "where o.custkey = c.custkey and o.totalprice > 1e4"
    frames = [_frame(db.execute(join.format(prefix))) for prefix in ("", "u_")]
    frames.append(
        protocol._frame(
            {"ok": True, "results": [protocol.encode_result(r) for r in db.execute_script(
                join.format("") + "; " + join.format("u_"))]}
        )
    )
    return frames


def _mutations(rng, frame):
    """Byte flips and truncations of ``frame``; truncations keep the length
    prefix consistent half of the time so the decoder sees a short payload."""
    for _ in range(1000):
        data = bytearray(frame)
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        else:
            data = data[: rng.randrange(len(data))]
            if rng.random() < 0.5 and len(data) >= 4:
                data[:4] = struct.pack(">I", len(data) - 4)
        yield bytes(data)


def test_fuzzed_frames_raise_only_protocol_errors():
    rng = random.Random(29)
    decoded = 0
    for frame in _join_frames():
        assert frame[4:5] == b"\x00"
        assert protocol.recv_message(_Wire(frame))["ok"] is True
        for mutated in _mutations(rng, frame):
            try:
                message = protocol.recv_message(_Wire(mutated))
            except ProtocolError:
                continue
            assert message is None or isinstance(message, dict)
            decoded += 1
    # Flips inside float blocks decode to other floats: some survive.
    assert decoded > 0
