"""The MayBMS wire protocol: length-prefixed JSON messages.

Framing mirrors the write-ahead log's (:mod:`repro.engine.durability`):
each message is ``[length:4][payload]`` with a big-endian 32-bit length
and a UTF-8 JSON payload.  There is no checksum -- TCP already provides
integrity -- but the length is bounded so a corrupt or hostile peer
cannot make the server allocate unbounded memory.

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
from typing import Any, Dict, List, Optional

from repro import faults as _faults
from repro.core.urelation import URelation
from repro.engine.relation import Relation
from repro.errors import ProtocolError
from repro.sql.executor import StatementResult

#: Refuse messages above this size (64 MiB) -- large enough for bulk
#: inserts and result sets, small enough to bound a hostile allocation.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialize and send one framed message."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    framed = _LENGTH.pack(len(payload)) + payload
    directive = _faults.failpoint("wire.send")
    if directive is not None:
        _drop_connection(sock, framed, directive, "wire.send")
    sock.sendall(framed)


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
    """Receive one framed message; None on a clean EOF between messages."""
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
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed message payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message payload must be a JSON object")
    return message


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
    """A JSON-safe rendering of one statement's result.  Rows go out as
    the relation's own tuples: ``json.dumps`` writes a tuple as an array,
    so copying each row into a list would change nothing on the wire."""
    output = result.output
    if output is None:
        return {"kind": "none", "row_count": result.row_count}
    if isinstance(output, URelation):
        relation = output.relation
        return {
            "kind": "urelation",
            "columns": _encode_columns(relation),
            "rows": relation.rows,
            "row_count": result.row_count,
            "payload_arity": output.payload_arity,
            "cond_arity": output.cond_arity,
        }
    assert isinstance(output, Relation)
    return {
        "kind": "relation",
        "columns": _encode_columns(output),
        "rows": output.rows,
        "row_count": result.row_count,
    }


def _encode_columns(relation: Relation) -> List[List[Any]]:
    return [
        [column.name, column.type.name, column.qualifier]
        for column in relation.schema
    ]


def encode_error(exc: BaseException) -> Dict[str, Any]:
    return {"type": type(exc).__name__, "message": str(exc)}
