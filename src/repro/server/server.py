"""The MayBMS server: one durable store, many concurrent client sessions.

The paper's architectural bet is that a probabilistic DBMS built inside a
conventional one inherits serving for free -- storage, concurrency
control, and recovery all come from the host.  This module supplies the
equivalent for the pure-Python engine: a socket server that hosts a
single :class:`~repro.db.MayBMS` store and speaks the length-prefixed
JSON protocol of :mod:`repro.server.protocol`.

Each accepted connection gets its own thread and its own
:meth:`MayBMS.session` (read-only on request), so per-connection
transaction state behaves like one PostgreSQL backend: statements from
different clients interleave under the shared
:class:`~repro.engine.transactions.LockManager` (readers run concurrently
with a writer; writers serialize per table), and concurrent commits
coalesce in the durable store's group committer -- one fsync per *batch*
of commits under load.

Statement errors are reported to the offending client and the connection
keeps serving; protocol errors and disconnects tear the connection down,
rolling back its open transaction.  ``kill -9`` of the whole process is
exactly the crash the WAL is for: restarting the server on the same
``--path`` recovers every committed statement bit-identically.

Backpressure: ``max_connections`` caps concurrent client sessions and
``max_active_statements`` caps statements in flight across all of them.
Over-capacity work is refused with a clean
:class:`~repro.errors.ServerBusyError` on the wire -- a refused
connection is closed after the error, a refused statement keeps its
connection and transaction -- so overload degrades to explicit client
retries instead of unbounded thread/queue growth.
"""

from __future__ import annotations

import ctypes
import math
import socket
import threading
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro import faults
from repro.db import MayBMS, Session
from repro.errors import (
    MayBMSError,
    ProtocolError,
    ServerBusyError,
    ServingError,
    StatementTimeout,
)
from repro.server import protocol

DEFAULT_HOST = "127.0.0.1"


def _limit(value: Any, setting: str, parse: type) -> Any:
    """One server limit: None (unlimited) when ``value`` is None, else
    ``value`` parsed as a positive finite number.  A value that does not
    ``parse`` to one raises :class:`ServingError` naming ``setting``."""
    if value is None:
        return None
    try:
        number = parse(str(value).strip())
    except ValueError:
        number = None
    if number is None or not 0 < number < math.inf:
        raise ServingError(
            f"{setting} must be a positive {parse.__name__}, got {value!r}"
        )
    return number


class _StatementDeadline:
    """Aborts a runaway statement by raising :class:`StatementTimeout`
    *inside* the statement's thread (``PyThreadState_SetAsyncExc``) once
    the deadline passes.  The injection lands between bytecodes, so pure-
    Python evaluation loops are interruptible; the executor's statement-
    level rollback then undoes the statement's effects and the session
    (including an open explicit transaction) survives.

    The enter/exit protocol guards the race where the statement finishes
    just as the timer fires: a pending-but-unlanded async exception is
    cleared on exit so it cannot detonate in unrelated code."""

    def __init__(self, seconds: float):
        self._thread_id = threading.get_ident()
        self._mutex = threading.Lock()
        self._active = True
        self._fired = False
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True

    def _fire(self) -> None:
        with self._mutex:
            if not self._active:
                return
            self._fired = True
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(self._thread_id),
                ctypes.py_object(StatementTimeout),
            )

    def __enter__(self) -> "_StatementDeadline":
        self._timer.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._timer.cancel()
        with self._mutex:
            self._active = False
            leaked = self._fired and exc_type is not StatementTimeout
        if leaked:
            # The timer won the race but the statement completed first:
            # clear the pending async exception before it lands later.
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(self._thread_id), None
            )
        return False


class MayBMSServer:
    """A threaded socket server over one (optionally durable) store.

    ``db`` is the store to serve; whoever opened it closes it, after
    :meth:`close`.  ``port=0`` binds an ephemeral port (see :attr:`port`
    after construction).

    ``max_connections`` / ``max_active_statements`` (None = unlimited)
    are the backpressure caps; refusals are counted in
    :attr:`connections_rejected` / :attr:`statements_rejected` and
    surfaced by the ``stats`` wire op.  ``statement_timeout`` is in
    seconds (None = unlimited).  A limit that is not a positive number
    raises :class:`~repro.errors.ServingError`.
    """

    def __init__(
        self,
        db: MayBMS,
        host: str = DEFAULT_HOST,
        port: int = 0,
        backlog: int = 64,
        max_connections: Optional[int] = None,
        max_active_statements: Optional[int] = None,
        statement_timeout: Optional[float] = None,
    ):
        # Validated before anything is bound.
        self.max_connections: Optional[int] = _limit(
            max_connections, "max_connections (--max-connections)", int
        )
        self.max_active_statements: Optional[int] = _limit(
            max_active_statements, "max_active_statements (--max-statements)", int
        )
        #: Seconds a statement may run before it is aborted with a
        #: :class:`StatementTimeout` wire error (None = unlimited).
        self.statement_timeout: Optional[float] = _limit(
            statement_timeout, "statement_timeout (--statement-timeout)", float
        )
        self._statement_gate: Optional[threading.BoundedSemaphore] = (
            threading.BoundedSemaphore(self.max_active_statements)
            if self.max_active_statements is not None
            else None
        )
        self.db = db
        self.connections_rejected = 0
        self.statements_rejected = 0
        #: Named failure counters (guarded by ``_threads_mutex``) for the
        #: paths that used to swallow OSError silently; surfaced by the
        #: ``stats`` wire op so dropped connections and failed replies
        #: are observable instead of invisible.
        self._error_counters: Dict[str, int] = {
            "accept_errors": 0,
            "reject_errors": 0,
            "recv_errors": 0,
            "reply_errors": 0,
            "statements_timed_out": 0,
        }
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.host, self.port = self._listener.getsockname()[:2]
        self._threads: List[threading.Thread] = []
        self._connections: List[socket.socket] = []
        self._threads_mutex = threading.Lock()
        self._stopping = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._session_counter = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _count_error(self, name: str) -> None:
        with self._threads_mutex:
            self._error_counters[name] += 1

    # -- serving -----------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept connections until :meth:`close` (blocking)."""
        # A finite accept timeout lets the loop observe close() promptly --
        # closing a socket does not reliably wake a thread blocked in
        # accept().
        try:
            self._listener.settimeout(0.2)
        except OSError:
            # close() won the race and already closed the listener.
            return
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                if not self._stopping.is_set():
                    # A live listener failed to accept (EMFILE, ECONNABORTED
                    # burst, ...): count it so the outage is observable.
                    self._count_error("accept_errors")
                break  # listener closed
            connection.settimeout(None)
            with self._threads_mutex:
                self._threads = [t for t in self._threads if t.is_alive()]
                at_capacity = (
                    self.max_connections is not None
                    and len(self._connections) >= self.max_connections
                )
                if at_capacity:
                    self.connections_rejected += 1
                else:
                    self._connections.append(connection)
            if at_capacity:
                # Refuse on a short-lived thread: the handshake reads the
                # client's hello before answering, and a stalled client
                # must not block the accept loop.
                target, name = self._reject_connection, "maybms-reject"
            else:
                target = self._handle_connection
                name = f"maybms-client-{connection.fileno()}"
            thread = threading.Thread(
                target=target, args=(connection,), daemon=True, name=name
            )
            with self._threads_mutex:
                self._threads.append(thread)
            thread.start()

    def start(self) -> "MayBMSServer":
        """Serve on a background thread (for embedding in tests/benchmarks)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, daemon=True, name="maybms-accept"
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting and disconnect clients; the store stays open.

        Idle handler threads block in ``recv``; shutting their sockets
        down wakes them immediately, so they run their own session
        cleanup (rollback + close) before this returns."""
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        with self._threads_mutex:
            threads = list(self._threads)
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5)

    def __enter__(self) -> "MayBMSServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- per-connection handling ----------------------------------------------
    def _reject_connection(self, connection: socket.socket) -> None:
        """Refuse an over-capacity connection with a clean wire error.

        The client's first message (its hello) is consumed so the error
        lands as the response the client is already waiting for, then the
        socket is closed; the client surfaces it as a
        :class:`~repro.errors.ServerError` with ``error_type``
        ``"ServerBusyError"``."""
        try:
            with connection:
                connection.settimeout(5.0)
                try:
                    protocol.recv_message(connection)
                except ProtocolError:
                    pass
                busy = ServerBusyError(
                    f"server at capacity "
                    f"({self.max_connections} concurrent connections)"
                )
                protocol.send_message(
                    connection,
                    {"ok": False, "error": protocol.encode_error(busy)},
                )
        except (OSError, ProtocolError, socket.timeout):
            # The refused client vanished before reading its refusal;
            # nothing to serve, but make the failure countable.
            self._count_error("reject_errors")

    def _handle_connection(self, connection: socket.socket) -> None:
        session: Optional[Session] = None
        try:
            with connection:
                connection.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                while not self._stopping.is_set():
                    try:
                        request = protocol.recv_message(connection)
                    except ProtocolError:
                        # Malformed framing: drop the connection, visibly.
                        self._count_error("recv_errors")
                        break
                    except OSError:
                        self._count_error("recv_errors")
                        break
                    if request is None:
                        break
                    if session is None:
                        session = self._open_session(request)
                    response, done = self._respond(session, request)
                    faults.failpoint("server.reply.delay")
                    try:
                        protocol.send_message(connection, response)
                    except ProtocolError as exc:
                        # The *response* was oversized (a huge result set).
                        # The statement itself succeeded or failed normally;
                        # report the encoding failure as a statement error
                        # and keep the connection (and its transaction).
                        try:
                            protocol.send_message(
                                connection,
                                {"ok": False, "error": protocol.encode_error(exc)},
                            )
                        except (OSError, ProtocolError):
                            self._count_error("reply_errors")
                            break
                    except OSError:
                        self._count_error("reply_errors")
                        break
                    if done:
                        break
        finally:
            if session is not None:
                session.close()
            with self._threads_mutex:
                try:
                    self._connections.remove(connection)
                except ValueError:
                    pass

    @contextmanager
    def _statement_slot(self):
        """Hold one of the ``max_active_statements`` slots for the
        duration of a statement; over capacity, refuse immediately with
        :class:`~repro.errors.ServerBusyError` (the connection and its
        transaction survive -- the client can simply retry)."""
        if self._statement_gate is None:
            yield
            return
        if not self._statement_gate.acquire(blocking=False):
            with self._threads_mutex:
                self.statements_rejected += 1
            raise ServerBusyError(
                f"server at capacity "
                f"({self.max_active_statements} statements in flight)"
            )
        try:
            yield
        finally:
            self._statement_gate.release()

    @contextmanager
    def _deadline(self):
        """Arm the per-statement timeout watchdog (no-op when unset)."""
        if self.statement_timeout is None:
            yield
            return
        with _StatementDeadline(self.statement_timeout):
            yield

    def _open_session(self, request: Dict[str, Any]) -> Session:
        read_only = bool(request.get("read_only", False))
        with self._threads_mutex:
            self._session_counter += 1
        return self.db.session(read_only=read_only)

    def _respond(
        self, session: Session, request: Dict[str, Any]
    ) -> "tuple[Dict[str, Any], bool]":
        op = request.get("op")
        try:
            if op == "hello":
                return (
                    {
                        "ok": True,
                        "server": "maybms",
                        "session": self._session_counter,
                        "read_only": session.read_only,
                        "durable": session.is_durable,
                    },
                    False,
                )
            if op == "ping":
                return {"ok": True}, False
            if op == "close":
                return {"ok": True}, True
            if op == "execute":
                with self._statement_slot(), self._deadline():
                    result = session.execute(str(request.get("sql", "")))
                return {"ok": True, "result": protocol.encode_result(result)}, False
            if op == "script":
                with self._statement_slot(), self._deadline():
                    results = session.execute_script(str(request.get("sql", "")))
                return (
                    {
                        "ok": True,
                        "results": [protocol.encode_result(r) for r in results],
                    },
                    False,
                )
            if op == "tables":
                return {"ok": True, "tables": session.tables()}, False
            if op == "faults":
                # Over-the-wire fault-injection control, so subprocess
                # tests and the torture harness can arm a live server
                # without restarting it.  "arm" takes a spec string (and
                # an optional seed), "disarm" clears everything, "stats"
                # just reports; every action returns the registry state.
                action = str(request.get("action", "stats"))
                if action == "arm":
                    seed = request.get("seed")
                    faults.arm(
                        str(request.get("spec", "")),
                        seed=None if seed is None else int(seed),
                    )
                elif action == "disarm":
                    faults.disarm()
                elif action != "stats":
                    raise ProtocolError(f"unknown faults action {action!r}")
                return {"ok": True, "faults": faults.stats()}, False
            if op == "stats":
                # Durability counters (checkpoint_ms, checkpoint_bytes,
                # tables_snapshotted, segments_reused, recovery_ms, fsync
                # and commit totals); empty object for in-memory stores.
                # "serving" adds the backpressure counters, "snapshots" the
                # MVCC snapshot manager's capture, capture-wait, pin and
                # reclaim counters (always present -- reads are lock-free
                # for in-memory stores too), "sanitizer" the runtime
                # concurrency sanitizer's violation counters (empty unless
                # REPRO_SANITIZE=1).
                with self._threads_mutex:
                    active = len(self._connections)
                    errors = dict(self._error_counters)
                serving = {
                    "connections_active": active,
                    "connections_rejected": self.connections_rejected,
                    "statements_rejected": self.statements_rejected,
                    "statement_timeout": self.statement_timeout,
                }
                serving.update(errors)
                return (
                    {
                        "ok": True,
                        "durable": session.is_durable,
                        "stats": session.durability_stats() or {},
                        "serving": serving,
                        "snapshots": session.snapshot_stats(),
                        "sanitizer": session.sanitizer_stats() or {},
                        "faults": faults.stats() or {},
                    },
                    False,
                )
            raise ProtocolError(f"unknown operation {op!r}")
        except StatementTimeout as exc:
            # The watchdog aborted the statement; its effects are rolled
            # back and the session survives.  Counted, then reported as
            # an ordinary wire error.
            self._count_error("statements_timed_out")
            return {"ok": False, "error": protocol.encode_error(exc)}, False
        except MayBMSError as exc:
            # Statement-level failure: report and keep serving.  The
            # executor already rolled back the statement's effects.
            return {"ok": False, "error": protocol.encode_error(exc)}, False
        except Exception as exc:  # pragma: no cover - defensive
            return {"ok": False, "error": protocol.encode_error(exc)}, False
