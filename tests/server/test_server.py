"""The serving layer: wire protocol, concurrent clients, crash recovery.

Covers the acceptance criteria of the serving PR: ``maybms-server``
serves >= 8 concurrent client sessions over one durable store; with
group commit enabled the fsync count stays strictly below the commit
count under concurrent load; and ``kill -9`` of the server followed by a
restart recovers bit-identical SELECT / conf() answers.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.client import Client, ClientResult
from repro.db import MayBMS
from repro.errors import ProtocolError, ServerError, ServingError
from repro.server import MayBMSServer, protocol
from repro.server.__main__ import main as server_main
from serving import serve

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


@pytest.fixture
def server(tmp_path):
    with serve(str(tmp_path / "store")) as server:
        yield server


@pytest.fixture
def memory_server():
    with serve() as server:
        yield server


class TestRoundTrips:
    def test_hello_and_ping(self, server):
        with Client(server.host, server.port) as client:
            assert client.server_info["server"] == "maybms"
            assert client.server_info["durable"] is True
            assert client.ping()

    def test_ddl_dml_query(self, server):
        with Client(server.host, server.port) as client:
            client.execute("create table t (a integer, p float)")
            result = client.execute("insert into t values (1, 0.4), (2, 0.6)")
            assert result.kind == "none" and result.row_count == 2
            rows = client.query("select a from t order by a").rows
            assert rows == [(1,), (2,)]
            assert client.tables() == ["t"]

    def test_conf_over_the_wire(self, server):
        with Client(server.host, server.port) as client:
            client.execute_script(
                "create table t (k integer, v integer, p float);"
                "insert into t values (1, 1, 0.4), (1, 2, 0.6);"
                "create table u as repair key k in t weight by p"
            )
            result = client.query("select v, conf() as c from u group by v")
            assert sorted((v, round(c, 9)) for v, c in result.rows) == [
                (1, 0.4),
                (2, 0.6),
            ]

    def test_urelation_result_carries_arities(self, server):
        with Client(server.host, server.port) as client:
            client.execute_script(
                "create table t (k integer, v integer, p float);"
                "insert into t values (1, 1, 0.4), (1, 2, 0.6);"
                "create table u as repair key k in t weight by p"
            )
            result = client.uncertain_query("select * from u")
            assert result.kind == "urelation"
            assert result.payload_arity == 3
            assert result.cond_arity == 1
            assert len(result.rows) == 2

    def test_statement_error_keeps_connection(self, server):
        with Client(server.host, server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.execute("select * from missing")
            assert excinfo.value.error_type == "AnalysisError"
            assert client.ping()

    def test_transactions_per_connection(self, server):
        with Client(server.host, server.port) as writer:
            writer.execute("create table t (a integer)")
            writer.begin()
            writer.execute("insert into t values (1)")
            writer.rollback()
            assert writer.query("select count(*) as n from t").scalar() == 0
            writer.begin()
            writer.execute("insert into t values (2)")
            writer.commit()
            assert writer.query("select count(*) as n from t").scalar() == 1

    def test_disconnect_rolls_back_open_transaction(self, server):
        client = Client(server.host, server.port)
        client.execute("create table t (a integer)")
        client.begin()
        client.execute("insert into t values (1)")
        client.close()  # server rolls the transaction back
        with Client(server.host, server.port) as fresh:
            deadline = time.time() + 5
            while time.time() < deadline:
                if fresh.query("select count(*) as n from t").scalar() == 0:
                    break
                time.sleep(0.05)
            assert fresh.query("select count(*) as n from t").scalar() == 0

    def test_read_only_client(self, server):
        with Client(server.host, server.port) as writer:
            writer.execute("create table t (a integer)")
        with Client(server.host, server.port, read_only=True) as reader:
            assert reader.read_only
            assert reader.query("select count(*) as n from t").scalar() == 0
            with pytest.raises(ServerError) as excinfo:
                reader.execute("insert into t values (1)")
            assert excinfo.value.error_type == "TransactionError"

    def test_unknown_op_reports_protocol_error(self, memory_server):
        with Client(memory_server.host, memory_server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client._request({"op": "frobnicate"})
            assert excinfo.value.error_type == "ProtocolError"

    def test_oversized_message_rejected_client_side(self, memory_server):
        with Client(memory_server.host, memory_server.port) as client:
            with pytest.raises(ProtocolError):
                protocol.send_message(
                    client._sock,
                    {"op": "execute", "sql": "x" * (protocol.MAX_MESSAGE_BYTES + 1)},
                )

    def test_oversized_response_reports_error_and_keeps_connection(
        self, memory_server, monkeypatch
    ):
        with Client(memory_server.host, memory_server.port) as client:
            client.execute("create table t (a text)")
            filler = "y" * 200
            client.execute(f"insert into t values ('{filler}')")
            # Shrink the limit so the result (not the request) exceeds it.
            monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 128)
            with pytest.raises(ServerError) as excinfo:
                client.query("select * from t")
            assert excinfo.value.error_type == "ProtocolError"
            monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 64 * 1024 * 1024)
            # The connection (and session) survived.
            assert client.ping()
            assert client.query("select count(*) as n from t").scalar() == 1


class TestShutdown:
    def test_close_with_idle_clients_is_prompt(self, tmp_path):
        """Idle handler threads block in recv; close() must wake them by
        shutting their sockets down instead of waiting out join timeouts."""
        with serve(str(tmp_path / "store")) as server:
            clients = [Client(server.host, server.port) for _ in range(3)]
            clients[0].execute("create table t (a integer)")
            started = time.time()
            server.close()
            assert time.time() - started < 3.0, "close() hung on idle clients"
            for client in clients:
                client._closed = True  # sockets are dead; skip the close handshake

    def test_close_leaves_the_store_to_its_opener(self):
        with MayBMS() as db:
            server = MayBMSServer(db).start()
            with Client(server.host, server.port) as client:
                client.execute("create table t (a integer)")
                client.begin()
                client.execute("insert into t values (1)")
            server.close()
            # The disconnected session rolled back; the store still serves.
            db.execute("insert into t values (2)")
            assert db.query("select a from t").rows == [(2,)]

    def test_main_closes_the_store_it_opened(self, tmp_path, monkeypatch):
        """``python -m repro.server`` opens the store, serves it, and
        closes it once serving ends: the final checkpoint is written and
        the directory lock released."""
        path = str(tmp_path / "store")
        serve_forever = MayBMSServer.serve_forever

        def serve_one_statement(server):
            threading.Thread(target=serve_forever, args=(server,), daemon=True).start()
            with Client(server.host, server.port) as client:
                client.execute("create table t (a integer)")

        monkeypatch.setattr(MayBMSServer, "serve_forever", serve_one_statement)
        assert server_main(["--port", "0", "--path", path]) == 0
        with MayBMS(path=path) as db:
            assert db.recovery_stats["replayed_records"] == 0
            assert db.tables() == ["t"]


class TestConcurrentClients:
    CLIENTS = 8

    def test_eight_concurrent_sessions(self, server):
        """>= 8 concurrent client sessions: each writes its own table and
        runs confidence queries; a shared reader watches throughout."""
        with Client(server.host, server.port) as setup:
            setup.execute_script(
                "create table base (k integer, v integer, p float);"
                "insert into base values (1, 1, 0.5), (1, 2, 0.5);"
                "create table u as repair key k in base weight by p"
            )
        errors = []

        def worker(index):
            try:
                with Client(server.host, server.port) as client:
                    client.execute(f"create table c{index} (a integer, p float)")
                    for j in range(8):
                        client.execute(f"insert into c{index} values ({j}, 0.5)")
                    conf = client.query(
                        f"select a, conf() as c from (pick tuples from c{index} "
                        "with probability p) r group by a"
                    )
                    assert len(conf.rows) == 8
                    shared = client.query(
                        "select v, conf() as c from u group by v"
                    )
                    assert sorted(
                        (v, round(c, 9)) for v, c in shared.rows
                    ) == [(1, 0.5), (2, 0.5)]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((index, exc))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        # All tables committed and visible.
        with Client(server.host, server.port) as check:
            names = check.tables()
            for i in range(self.CLIENTS):
                assert f"c{i}" in names

    def test_group_commit_amortizes_fsyncs(self, tmp_path):
        with serve(str(tmp_path / "store")) as server:
            with Client(server.host, server.port) as setup:
                for i in range(self.CLIENTS):
                    setup.execute(f"create table t{i} (a integer)")
            baseline_fsyncs = server.db.storage.fsync_count
            baseline_commits = server.db.storage.commit_count

            def writer(index, errors):
                try:
                    with Client(server.host, server.port) as client:
                        for j in range(10):
                            client.execute(f"insert into t{index} values ({j})")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            errors = []
            threads = [
                threading.Thread(target=writer, args=(i, errors))
                for i in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            commits = server.db.storage.commit_count - baseline_commits
            fsyncs = server.db.storage.fsync_count - baseline_fsyncs
            assert commits == self.CLIENTS * 10
            assert fsyncs < commits, (
                f"group commit never batched: {fsyncs} fsyncs for {commits} commits"
            )


class TestKillMinusNine:
    """kill -9 the server process; restart must recover bit-identically."""

    def _start(self, path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--path", path, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        line = process.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert match, f"unexpected server banner: {line!r}"
        return process, match.group(1), int(match.group(2))

    def test_kill_dash_nine_recovers_bit_identical(self, tmp_path):
        path = str(tmp_path / "store")
        process, host, port = self._start(path)
        try:
            with Client(host, port, connect_retries=20) as client:
                client.execute_script(
                    "create table t (k integer, v integer, p float);"
                    "insert into t values (1, 1, 0.3), (1, 2, 0.7), "
                    "(2, 1, 0.5), (2, 2, 0.5);"
                    "create table u as repair key k in t weight by p"
                )
                select_before = client.query("select * from t order by k, v").rows
                conf_before = sorted(
                    client.query("select k, v, conf() as c from u group by k, v").rows
                )
        finally:
            process.kill()  # SIGKILL: no checkpoint, no orderly close
            process.wait(timeout=30)

        process, host, port = self._start(path)
        try:
            with Client(host, port, connect_retries=20) as client:
                select_after = client.query("select * from t order by k, v").rows
                conf_after = sorted(
                    client.query("select k, v, conf() as c from u group by k, v").rows
                )
            assert select_after == select_before
            assert conf_after == conf_before
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

    def test_uncommitted_transaction_lost_on_kill(self, tmp_path):
        path = str(tmp_path / "store")
        process, host, port = self._start(path)
        try:
            client = Client(host, port, connect_retries=20)
            client.execute("create table t (a integer)")
            client.execute("insert into t values (1)")
            client.begin()
            client.execute("insert into t values (2)")
            # No commit: the WAL never saw the unit.
        finally:
            process.kill()
            process.wait(timeout=30)
        process, host, port = self._start(path)
        try:
            with Client(host, port, connect_retries=20) as fresh:
                assert fresh.query("select * from t").rows == [(1,)]
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)


class TestBackpressure:
    def test_connections_beyond_cap_refused_cleanly(self):
        with serve(max_connections=2) as server:
            a = Client(server.host, server.port)
            b = Client(server.host, server.port)
            with pytest.raises(ServerError) as excinfo:
                Client(server.host, server.port)
            assert excinfo.value.error_type == "ServerBusyError"
            # Admitted clients are unaffected by the refusal.
            a.execute("create table t (a integer)")
            assert b.ping()
            serving = a.server_stats()["serving"]
            assert serving["connections_active"] == 2
            assert serving["connections_rejected"] == 1
            a.close()
            # The freed slot admits a new client (the slot is released
            # just after the close ack, so retry briefly).
            deadline = time.time() + 5
            while True:
                try:
                    c = Client(server.host, server.port)
                    break
                except ServerError:
                    assert time.time() < deadline, "slot never freed"
                    time.sleep(0.05)
            c.close()
            b.close()

    def test_statements_beyond_cap_refused_and_retryable(self):
        with serve(max_active_statements=1) as server:
            with Client(server.host, server.port) as client:
                # Hold the only slot so the next statement finds the server
                # saturated -- deterministic, no timing games.
                assert server._statement_gate.acquire(blocking=False)
                with pytest.raises(ServerError) as excinfo:
                    client.execute("create table t (a integer)")
                assert excinfo.value.error_type == "ServerBusyError"
                server._statement_gate.release()
                # The connection (and a retry) survive the refusal.
                client.execute("create table t (a integer)")
                assert (
                    client.server_stats()["serving"]["statements_rejected"] == 1
                )

    def test_statement_refusal_keeps_open_transaction(self):
        with serve(max_active_statements=1) as server:
            with Client(server.host, server.port) as client:
                client.execute("create table t (a integer)")
                client.begin()
                client.execute("insert into t values (1)")
                assert server._statement_gate.acquire(blocking=False)
                with pytest.raises(ServerError):
                    client.execute("insert into t values (2)")
                server._statement_gate.release()
                client.execute("insert into t values (3)")
                client.commit()
                rows = client.query("select a from t order by a").rows
                assert rows == [(1,), (3,)]

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    @pytest.mark.parametrize("source", ["keyword", "cli"])
    @pytest.mark.parametrize(
        "keyword, flag",
        [
            ("max_connections", "--max-connections"),
            ("max_active_statements", "--max-statements"),
            ("statement_timeout", "--statement-timeout"),
        ],
    )
    def test_invalid_limit_is_refused_from_every_source(
        self, keyword, flag, source, value, tmp_path, capsys
    ):
        # Each limit means the same from every source: a non-positive or
        # malformed value is refused before the server binds, by name.
        if source == "cli":
            path = str(tmp_path / "store")
            with pytest.raises(SystemExit) as exit_info:
                server_main(["--port", "0", "--path", path, flag, value])
            assert exit_info.value.code == 2
            assert flag in capsys.readouterr().err
            # The refusal left no store open: its directory lock is free.
            MayBMS(path=path).close()
            return
        with MayBMS() as db:
            with pytest.raises(ServingError, match=keyword):
                MayBMSServer(db, **{keyword: value})


class TestParallelConfidenceOverTheWire:
    """Clients on parallel connections each get, bit for bit, the answer
    one client gets alone: every server session starts its Monte-Carlo
    draws and aconf() streams from the store seed.  The stats op reports
    the MVCC snapshots such reads pin."""

    CLIENTS = 4

    @pytest.mark.parametrize(
        "query",
        [
            "select k, conf() as p from u where k < 3 group by k order by k",
            "select k, aconf(0.1, 0.1) as p from u where k < 3 group by k order by k",
            "select k, esum(w) as s from u group by k order by k",
            "select k, ecount() as c from u group by k order by k",
        ],
        ids=["conf", "aconf", "esum", "ecount"],
    )
    def test_parallel_clients_get_the_lone_answer(self, query):
        with serve(seed=3) as server:
            # Forced Monte Carlo: conf() and aconf() really sample.
            server.db.set_confidence_strategy("monte-carlo")
            values = ", ".join(
                f"({g}, {k}, {1 + (g + 2 * k) % 3})" for g in range(6) for k in range(8)
            )
            with Client(server.host, server.port) as setup:
                setup.execute_script(
                    "create table t (g integer, k integer, w float);"
                    f"insert into t values {values};"
                    "create table u as repair key g in t weight by w"
                )
            with Client(server.host, server.port) as alone:
                expected = alone.query(query).rows
            barrier = threading.Barrier(self.CLIENTS)
            answers = [None] * self.CLIENTS
            errors = []

            def ask(index):
                try:
                    with Client(server.host, server.port) as client:
                        barrier.wait(timeout=30)
                        answers[index] = client.query(query).rows
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append((index, exc))

            threads = [
                threading.Thread(target=ask, args=(i,)) for i in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            assert answers == [expected] * self.CLIENTS

    def test_snapshot_counters_over_the_wire(self, memory_server):
        with Client(memory_server.host, memory_server.port) as client:
            client.execute("create table t (k integer, w float)")
            client.execute("insert into t values (1, 0.5), (2, 1.5)")
            client.query("select k from t")
            snapshots = client.server_stats()["snapshots"]
        assert snapshots["snapshot_captures"] >= 1
        assert snapshots["snapshot_pins_held"] == 0
        # One connection: no capture ever found a writer on its table.
        assert snapshots["snapshot_capture_waits"] == 0
        assert snapshots["snapshot_capture_wait_ms"] == 0


class TestStatsGroupsOverTheWire:
    def test_stats_op_serves_the_counter_groups(self, memory_server):
        with Client(memory_server.host, memory_server.port) as client:
            groups = client.server_stats()
        assert set(groups) == {
            "durability", "serving", "snapshots", "sanitizer", "faults",
        }


class TestDurabilityStatsOp:
    def test_stats_over_the_wire(self, server):
        with Client(server.host, server.port) as client:
            client.execute("create table t (k integer, w float)")
            client.execute("insert into t values (1, 0.5), (2, 1.5)")
            client.execute("checkpoint")
            client.execute("insert into t values (3, 2.5)")
            client.execute("checkpoint")
            stats = client.stats()
        assert stats["checkpoints_total"] == 2
        assert stats["tables_snapshotted"] == 1  # only t was dirty
        assert stats["checkpoint_bytes"] > 0
        assert stats["checkpoint_ms"] >= 0
        assert stats["commit_count"] >= 3
        assert "recovery_ms" in stats and "segments_reused" in stats

    def test_stats_empty_for_memory_store(self, memory_server):
        with Client(memory_server.host, memory_server.port) as client:
            assert client.stats() == {}
