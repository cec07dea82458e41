"""A thin blocking client for the MayBMS server.

Speaks the length-prefixed JSON protocol of :mod:`repro.server.protocol`
over one TCP connection; the server binds the connection to one
server-side session, so transaction state (BEGIN/COMMIT/ROLLBACK) is
per-client, exactly like a PostgreSQL backend::

    from repro.client import Client

    with Client("127.0.0.1", 8642) as db:
        db.execute("create table t (a integer, p float)")
        db.execute("insert into t values (1, 0.6), (2, 0.4)")
        result = db.query("select a, conf() as p from (repair key a in t "
                          "weight by p) r group by a")
        for row in result.rows:
            print(row)

Statement failures raise :class:`~repro.errors.ServerError` carrying the
server-side exception class name; the connection stays usable.  Results
come back as plain :class:`ClientResult` values (column names + row
tuples), not live relations -- the client deliberately has no dependency
on the engine beyond the error hierarchy.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError, ServerError
from repro.server import protocol


@dataclass
class ClientResult:
    """One statement's outcome, decoded from the wire.

    ``kind`` is ``"relation"`` (t-certain), ``"urelation"`` (wide
    encoding, with ``payload_arity``/``cond_arity`` set), or ``"none"``
    (DDL/DML/transaction control, with ``row_count`` for DML).
    """

    kind: str
    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    row_count: Optional[int] = None
    payload_arity: Optional[int] = None
    cond_arity: Optional[int] = None
    #: Transparent retries the client spent obtaining this result
    #: (reconnects after a dropped connection and/or ServerBusyError
    #: backoffs); 0 on the happy path.
    retries: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ServerError(
                "ClientResult",
                f"scalar() needs exactly one row and column, got "
                f"{len(self.rows)}x{len(self.columns)}",
            )
        return self.rows[0][0]

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "ClientResult":
        return cls(
            kind=str(payload.get("kind", "none")),
            columns=[name for name, _, _ in payload.get("columns", [])],
            rows=[tuple(row) for row in payload.get("rows", [])],
            row_count=payload.get("row_count"),
            payload_arity=payload.get("payload_arity"),
            cond_arity=payload.get("cond_arity"),
        )


class Client:
    """A blocking MayBMS connection (one server-side session).

    ``read_only=True`` asks the server for a read-only session: DML, DDL,
    CHECKPOINT, and transactions are rejected server-side, and such a
    session can never block a checkpoint or another writer.

    ``retries``/``backoff`` make the client robust against transient
    serving failures: a statement refused with
    :class:`~repro.errors.ServerBusyError` is retried in place (the wire
    contract keeps the connection and its transaction intact), and a
    *dropped connection* triggers an automatic reconnect-and-retry --
    but only for idempotent work: read-only sessions, SELECT/EXPLAIN
    statements, and the metadata operations.  A dropped connection loses
    the server-side session, so an open transaction does not survive a
    reconnect; non-idempotent statements therefore surface the error
    instead of risking a double apply.  The number of retries actually
    spent is on :attr:`ClientResult.retries` (and :attr:`last_retries`).
    """

    #: Statement kinds safe to replay on a fresh connection.
    _IDEMPOTENT_KEYWORDS = frozenset({"select", "explain"})

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        read_only: bool = False,
        timeout: Optional[float] = None,
        connect_retries: int = 0,
        retry_delay: float = 0.1,
        retries: int = 0,
        backoff: float = 0.05,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._read_only_requested = read_only
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        #: Retries the most recent request consumed (0 = first try won).
        self.last_retries = 0
        self._user_closed = False
        last_error: Optional[OSError] = None
        for attempt in range(connect_retries + 1):
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError as exc:
                last_error = exc
                if attempt < connect_retries:
                    time.sleep(retry_delay)
        else:
            assert last_error is not None
            raise last_error
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False
        self.server_info = self._exchange({"op": "hello", "read_only": read_only})
        self.read_only = bool(self.server_info.get("read_only", read_only))

    # -- plumbing -----------------------------------------------------------
    def _exchange(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip on the current socket."""
        if self._closed:
            raise ProtocolError("client connection is closed")
        protocol.send_message(self._sock, message)
        response = protocol.recv_message(self._sock)
        if response is None:
            self._closed = True
            raise ProtocolError("server closed the connection")
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise ServerError(
                str(error.get("type", "MayBMSError")),
                str(error.get("message", "unknown server error")),
            )
        return response

    def _reconnect(self) -> None:
        """Replace a dead socket with a fresh connection + handshake.
        The new server-side session starts clean (no open transaction)."""
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False
        self.server_info = self._exchange(
            {"op": "hello", "read_only": self._read_only_requested}
        )

    def _request(
        self, message: Dict[str, Any], idempotent: bool = False
    ) -> Dict[str, Any]:
        if self._user_closed:
            raise ProtocolError("client connection is closed")
        attempt = 0
        self.last_retries = 0
        while True:
            reconnect = False
            try:
                return self._exchange(message)
            except ServerError as exc:
                # Backpressure refusal: the statement never ran and the
                # connection (with its transaction) is intact -- safe to
                # retry anything after a short backoff.
                if exc.error_type != "ServerBusyError" or attempt >= self.retries:
                    raise
            except (OSError, ProtocolError):
                # Dropped/garbled connection: the statement's fate is
                # unknown, so only idempotent work is replayed -- on a
                # fresh connection.
                if not idempotent or attempt >= self.retries:
                    raise
                reconnect = True
            attempt += 1
            self.last_retries = attempt
            time.sleep(self.backoff * attempt)
            if reconnect:
                try:
                    self._reconnect()
                except OSError:
                    if attempt >= self.retries:
                        raise
                    # Server not back yet; the next loop iteration finds
                    # the socket closed and retries the reconnect.
                    self._closed = True

    @classmethod
    def _idempotent_sql(cls, sql: str) -> bool:
        head = sql.lstrip().split(None, 1)
        return bool(head) and head[0].lower() in cls._IDEMPOTENT_KEYWORDS

    # -- statements ----------------------------------------------------------
    def execute(self, sql: str) -> ClientResult:
        """Execute one SQL statement of any kind."""
        idempotent = self.read_only or self._idempotent_sql(sql)
        response = self._request({"op": "execute", "sql": sql}, idempotent)
        result = ClientResult.from_wire(response.get("result", {}))
        result.retries = self.last_retries
        return result

    def execute_script(self, sql: str) -> List[ClientResult]:
        """Execute a semicolon-separated batch, atomically per statement."""
        response = self._request({"op": "script", "sql": sql}, self.read_only)
        results = [ClientResult.from_wire(r) for r in response.get("results", [])]
        for result in results:
            result.retries = self.last_retries
        return results

    def query(self, sql: str) -> ClientResult:
        """Execute a statement that must produce a t-certain relation."""
        result = self.execute(sql)
        if result.kind != "relation":
            raise ServerError(
                "AnalysisError",
                f"query produced {result.kind!r}, expected a t-certain relation",
            )
        return result

    def uncertain_query(self, sql: str) -> ClientResult:
        """Execute a statement that must produce a U-relation."""
        result = self.execute(sql)
        if result.kind != "urelation":
            raise ServerError(
                "AnalysisError",
                f"query produced {result.kind!r}, expected an uncertain relation",
            )
        return result

    # -- transactions ---------------------------------------------------------
    def begin(self) -> None:
        self.execute("begin")

    def commit(self) -> None:
        self.execute("commit")

    def rollback(self) -> None:
        self.execute("rollback")

    # -- misc -----------------------------------------------------------------
    def tables(self) -> List[str]:
        response = self._request({"op": "tables"}, idempotent=True)
        return list(response.get("tables", []))

    def stats(self) -> Dict[str, Any]:
        """The server store's durability counters (``checkpoint_ms``,
        ``checkpoint_bytes``, ``tables_snapshotted``, ``segments_reused``,
        ``recovery_ms``, fsync/commit totals); empty for in-memory stores."""
        response = self._request({"op": "stats"}, idempotent=True)
        return dict(response.get("stats", {}))

    def server_stats(self) -> Dict[str, Any]:
        """All server-side counter groups: ``durability`` (see
        :meth:`stats`), ``serving`` (active connections plus backpressure
        rejections), ``snapshots`` (the MVCC snapshot manager's
        capture, capture-wait, pin and reclaim counters), and ``sanitizer``
        (the runtime concurrency sanitizer's violation counters and live
        gauges; empty unless the server runs with ``REPRO_SANITIZE=1``)."""
        response = self._request({"op": "stats"}, idempotent=True)
        return {
            "durability": dict(response.get("stats", {})),
            "serving": dict(response.get("serving", {})),
            "snapshots": dict(response.get("snapshots", {})),
            "sanitizer": dict(response.get("sanitizer", {})),
            "faults": dict(response.get("faults", {})),
        }

    def arm_faults(
        self, spec: str, seed: Optional[int] = None
    ) -> Dict[str, Any]:
        """Arm fault injection in the *server* process (``faults`` wire
        op; see :mod:`repro.faults` for the spec syntax).  Returns the
        server registry's stats.  Test/torture tooling only."""
        message: Dict[str, Any] = {"op": "faults", "action": "arm", "spec": spec}
        if seed is not None:
            message["seed"] = int(seed)
        return dict(self._request(message).get("faults") or {})

    def disarm_faults(self) -> None:
        """Disarm all fault injection in the server process."""
        self._request({"op": "faults", "action": "disarm"})

    def fault_stats(self) -> Dict[str, Any]:
        """The server-side fault registry's counters ({} when disarmed)."""
        response = self._request(
            {"op": "faults", "action": "stats"}, idempotent=True
        )
        return dict(response.get("faults") or {})

    def ping(self) -> bool:
        return bool(
            self._request({"op": "ping"}, idempotent=True).get("ok", False)
        )

    def close(self) -> None:
        """Close the connection (the server rolls back any open transaction
        and releases the session).  Idempotent."""
        self._user_closed = True
        if self._closed:
            return
        try:
            protocol.send_message(self._sock, {"op": "close"})
            protocol.recv_message(self._sock)
        except (OSError, ProtocolError):
            pass
        finally:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
