"""The MayBMS wire protocol: length-prefixed messages, JSON for control
and typed column blocks for results.

Framing mirrors the write-ahead log's (:mod:`repro.engine.durability`):
each message is ``[length:4][payload]`` with a big-endian 32-bit length.
There is no checksum -- TCP already provides integrity -- but the length
is bounded so a corrupt or hostile peer cannot make the server allocate
unbounded memory.

A payload takes one of two forms, and :func:`recv_message` reads both:

- **JSON**: a UTF-8 JSON object.  Every request and every control reply
  (hello, ping, errors, DML ``row_count``, stats) is one, and so is a
  reply whose results are all tiny (see below); their rows are JSON
  arrays.
- **Columnar**: a reply carrying a result of ``_COLUMNAR_MIN_ROWS`` rows
  or more (``execute`` and ``script`` alike)::

      [0x00][header length:4][header][block][block]...

  The marker byte ``0x00`` cannot start JSON text.  The header is the
  JSON reply object in which each such result carries
  ``{"n": rows, "blocks": [[tag, byte_length], ...]}`` where ``rows``
  would be: one block per column in schema order.  The blocks follow the
  header, concatenated in the order the results and their columns name
  them, and the rows are rebuilt as ``zip(*columns)``.

Block tags.  The encoding of a column is chosen from its values, never
from its declared type:

- ``q``: a little-endian int64 array; every value is exactly ``int``
  (not ``bool``) and fits in 64 bits;
- ``d``: a little-endian float64 array; every value is exactly
  ``float``, bit-exact, NaN, +-inf and -0.0 included;
- ``j``: a UTF-8 JSON list, for anything else: TEXT, BOOLEAN, columns
  holding NULL, ints beyond int64, and mixed columns.

So every value comes back with its own Python type -- a FLOAT column
holding an ``int`` comes back an ``int`` -- and decoding needs only the
standard library (``array``, ``json``, ``struct``).

Tiny results stay JSON rows: below ``_COLUMNAR_MIN_ROWS`` rows the
layout header and the per-block work cost more than the rows' JSON
text, so tiny replies frame exactly as before.  A result without
columns has nothing to put in blocks and stays JSON rows too.  Messages
without a result go through one cached encoder.

Size limit: ``MAX_MESSAGE_BYTES`` bounds the whole payload of either
form.  The block encoder keeps a running size and refuses a result with
:class:`~repro.errors.ProtocolError` as soon as it crosses the limit,
before the blocks are joined, so an oversized result is never built in
full; a receiver refuses an announced length above it before reading.
A malformed frame -- a header or block overrunning the payload, blocks
that do not sum to it, a block length that disagrees with ``n``, an
unknown tag, bad JSON -- raises ``ProtocolError`` and nothing else.

Requests and responses are JSON objects:

    -> {"op": "hello", "read_only": false}
    <- {"ok": true, "server": "maybms", "session": 1, "read_only": false}

    -> {"op": "execute", "sql": "select conf() as p from u"}
    <- {"ok": true, "result": {"kind": "relation", "columns": [...],
                               "rows": [...], "row_count": null}}

    -> {"op": "execute", "sql": "insert into missing values (1)"}
    <- {"ok": false, "error": {"type": "TableNotFoundError",
                               "message": "table 'missing' does not exist"}}

Operations: ``hello`` (optional; selects a read-only session),
``execute`` (one statement), ``script`` (semicolon-separated batch,
returns ``results``), ``tables``, ``stats`` (the store's durability
counters: checkpoint_ms, checkpoint_bytes, tables_snapshotted,
segments_reused, recovery_ms, fsync/commit totals), ``ping``, and
``close``.  Transactions
are plain statements (``execute`` with BEGIN/COMMIT/ROLLBACK) -- each
connection owns one server-side session, so transaction state is
per-connection exactly like one PostgreSQL backend.

Result encoding: t-certain relations carry ``columns`` (name, type,
qualifier triples) and ``rows``; U-relations additionally carry
``payload_arity``/``cond_arity`` so a client can reconstruct the wide
encoding.  DML carries ``row_count`` only.
"""

from __future__ import annotations

import errno
import json
import socket
import struct
import sys
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults as _faults
from repro.core.urelation import URelation
from repro.engine.relation import Relation
from repro.errors import ProtocolError
from repro.sql.executor import StatementResult

#: Refuse messages above this size (64 MiB) -- large enough for bulk
#: inserts and result sets, small enough to bound a hostile allocation.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Results with fewer rows than this go out as JSON rows.  Measured as a
#: SELECT round trip over a socket pair (``send_message``,
#: ``recv_message``, ``ClientResult.from_wire``; see
#: ``benchmarks/bench_wire_frames.py``): with 4 and 7 columns of ints,
#: floats and text the two forms break even between 24 and 32 rows, and
#: a 1-row result costs about twice as much in blocks as in JSON.
_COLUMNAR_MIN_ROWS = 32

_LENGTH = struct.Struct(">I")
#: First payload byte of a columnar frame; JSON text never starts with it.
_MARKER = b"\x00"
_ENCODER = json.JSONEncoder(separators=(",", ":"))
#: Blocks are little-endian; ``array`` packs in the host's byte order.
_SWAP = sys.byteorder == "big"


class ColumnBlocks:
    """A result's values column by column, as :func:`encode_result` hands
    them to :func:`send_message` in place of the rows."""

    __slots__ = ("n", "columns")

    def __init__(self, n: int, columns: Sequence[Sequence[Any]]):
        self.n = n
        self.columns = columns


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialize and send one framed message."""
    framed = _frame(message)
    directive = _faults.failpoint("wire.send")
    if directive is not None:
        _drop_connection(sock, framed, directive, "wire.send")
    sock.sendall(framed)


def _frame(message: Dict[str, Any]) -> bytes:
    """``[length:4][payload]``: columnar when a result carries
    :class:`ColumnBlocks`, JSON otherwise."""
    results = _results(message)
    if not any(type(result.get("rows")) is ColumnBlocks for result in results):
        payload = _ENCODER.encode(message).encode("utf-8")
        _check_size(len(payload))
        return _LENGTH.pack(len(payload)) + payload
    blocks: List[Any] = []
    size = 0
    described = []
    for result in results:
        rows = result.get("rows")
        if type(rows) is ColumnBlocks:
            layout = []
            for column in rows.columns:
                tag, block, nbytes = _block(column, size)
                blocks.append(block)
                layout.append([tag, nbytes])
                size += nbytes
            result = dict(result, rows={"n": rows.n, "blocks": layout})
        described.append(result)
    if "result" in message:
        header = dict(message, result=described[0])
    else:
        header = dict(message, results=described)
    text = _ENCODER.encode(header).encode("utf-8")
    total = len(_MARKER) + _LENGTH.size + len(text) + size
    _check_size(total)
    return b"".join(
        [_LENGTH.pack(total), _MARKER, _LENGTH.pack(len(text)), text] + blocks
    )


def _results(message: Dict[str, Any]) -> Sequence[Dict[str, Any]]:
    """The result objects of a reply (``result`` or ``results``)."""
    if "result" in message:
        return (message["result"],)
    return message.get("results", ())


def _block(column: Sequence[Any], used: int) -> Tuple[str, Any, int]:
    """One column as ``(tag, bytes-like block, byte length)``, refused
    as soon as its size is known to take the payload past the limit
    (``used`` bytes are already taken)."""
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is int or kind is float:
        tag = "q" if kind is int else "d"
        nbytes = 8 * len(column)
        _check_size(used + nbytes)
        try:
            values = array(tag, column)
        except OverflowError:  # an int beyond int64: a JSON list
            pass
        else:
            if _SWAP:
                values.byteswap()
            return tag, values, nbytes
    # ensure_ascii: one byte per character, so the text's length is the
    # block's before it is encoded.
    text = _ENCODER.encode(column)
    _check_size(used + len(text))
    return "j", text.encode("ascii"), len(text)


def _check_size(size: int) -> None:
    if size > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of at least {size} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )


def _drop_connection(
    sock: socket.socket, framed: bytes, directive: str, site: str
) -> None:
    """Cooperative connection-drop injection: ``torn``/``short`` push half
    the frame before dying so the peer sees a mid-message cut, ``drop``
    dies before any byte.  Either way the socket is hard-closed (RST via
    zero linger is not portable enough; close suffices for loopback
    tests) and the caller's send/recv raises like a real dead peer."""
    if directive in ("torn", "short") and len(framed) > 1:
        try:
            sock.sendall(framed[: len(framed) // 2])
        except OSError:
            pass
    try:
        sock.close()
    except OSError:
        pass
    raise OSError(
        errno.ECONNRESET, f"injected connection drop at failpoint {site!r}"
    )


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one framed message; None on a clean EOF between messages.
    Either payload form decodes to plain JSON values, rows as tuples in
    the columnar form."""
    directive = _faults.failpoint("wire.recv")
    if directive is not None:
        _drop_connection(sock, b"", directive, "wire.recv")
    header = _recv_exact(sock, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte message; limit is "
            f"{MAX_MESSAGE_BYTES}"
        )
    payload = _recv_exact(sock, length, allow_eof=False)
    assert payload is not None
    if payload[:1] == _MARKER:
        return _unframe(memoryview(payload))
    return _object(payload)


def _object(data: Any) -> Dict[str, Any]:
    """A JSON object from UTF-8 bytes (or a view of them)."""
    message = _json(data)
    if not isinstance(message, dict):
        raise ProtocolError("message payload must be a JSON object")
    return message


def _json(data: Any) -> Any:
    try:
        return json.loads(str(data, "utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed message payload: {exc}") from None


def _unframe(payload: memoryview) -> Dict[str, Any]:
    """A columnar payload as the message it encodes, rows rebuilt."""
    start = len(_MARKER) + _LENGTH.size
    if len(payload) < start:
        raise ProtocolError("columnar payload ends inside its header length")
    (length,) = _LENGTH.unpack_from(payload, len(_MARKER))
    if start + length > len(payload):
        raise ProtocolError(
            f"columnar header of {length} bytes overruns the "
            f"{len(payload)}-byte payload"
        )
    message = _object(payload[start : start + length])
    offset = start + length
    results = message["results"] if "results" in message else [message.get("result")]
    if not isinstance(results, list):
        raise ProtocolError("columnar reply carries no result list")
    for result in results:
        rows = result.get("rows") if isinstance(result, dict) else None
        if isinstance(rows, dict):
            result["rows"], offset = _rows(rows, payload, offset)
    if offset != len(payload):
        raise ProtocolError(
            f"column blocks end at byte {offset} of a "
            f"{len(payload)}-byte payload"
        )
    return message


def _rows(
    layout: Dict[str, Any], payload: memoryview, offset: int
) -> Tuple[List[Tuple[Any, ...]], int]:
    """One result's rows from its blocks at ``offset``, and the offset
    after them."""
    n = layout.get("n")
    blocks = layout.get("blocks")
    if type(n) is not int or n < 0 or not isinstance(blocks, list):
        raise ProtocolError(f"malformed column layout {layout!r}")
    columns = []
    for block in blocks:
        if not (isinstance(block, list) and len(block) == 2):
            raise ProtocolError(f"malformed column block {block!r}")
        tag, nbytes = block
        if type(nbytes) is not int or not 0 <= nbytes <= len(payload) - offset:
            raise ProtocolError(
                f"column block of {nbytes!r} bytes overruns the payload"
            )
        data = payload[offset : offset + nbytes]
        offset += nbytes
        if tag == "q" or tag == "d":
            if nbytes % 8:
                raise ProtocolError(
                    f"{tag!r} block of {nbytes} bytes is not whole 8-byte values"
                )
            if nbytes != 8 * n:
                raise ProtocolError(
                    f"{tag!r} block of {nbytes // 8} values for {n} rows"
                )
            values = array(tag)
            values.frombytes(data)
            if _SWAP:
                values.byteswap()
            column = values.tolist()
        elif tag == "j":
            column = _json(data)
            if not isinstance(column, list) or len(column) != n:
                raise ProtocolError(f"'j' block is not a list of {n} values")
        else:
            raise ProtocolError(f"unknown column block tag {tag!r}")
        columns.append(column)
    if not columns and n:
        raise ProtocolError(f"{n} rows without columns (those travel as JSON)")
    return list(zip(*columns)), offset


def _recv_exact(
    sock: socket.socket, count: int, allow_eof: bool
) -> Optional[bytes]:
    chunks: List[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(count - received)
        if not chunk:
            if allow_eof and not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-message ({received} of {count} bytes)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


# -- result (de)serialization ---------------------------------------------------


def encode_result(result: StatementResult) -> Dict[str, Any]:
    """One statement's result for :func:`send_message`: rows as the
    relation's own tuples when the result is tiny, otherwise its columns
    (:class:`ColumnBlocks`), which the framer packs into typed blocks."""
    output = result.output
    if output is None:
        return {"kind": "none", "row_count": result.row_count}
    relation = output.relation if isinstance(output, URelation) else output
    assert isinstance(relation, Relation)
    encoded: Dict[str, Any] = {
        "kind": "urelation" if isinstance(output, URelation) else "relation",
        "columns": _encode_columns(relation),
        "rows": _rows_or_columns(relation),
        "row_count": result.row_count,
    }
    if isinstance(output, URelation):
        encoded["payload_arity"] = output.payload_arity
        encoded["cond_arity"] = output.cond_arity
    return encoded


def _rows_or_columns(relation: Relation) -> Any:
    if len(relation) < _COLUMNAR_MIN_ROWS or not relation.schema.columns:
        return relation.rows
    return ColumnBlocks(len(relation), relation.columns())


def _encode_columns(relation: Relation) -> List[List[Any]]:
    return [
        [column.name, column.type.name, column.qualifier]
        for column in relation.schema
    ]


def encode_error(exc: BaseException) -> Dict[str, Any]:
    return {"type": type(exc).__name__, "message": str(exc)}
