"""Server-side robustness: statement timeouts, the ``faults`` wire op,
client auto-retry, and the named serving error counters.

The client, server, and fault registry share this test process, so a
``wire.*`` site armed through the wire op is hit by *both* peers'
protocol calls -- triggers below are chosen with that shared counting in
mind (e.g. ``drop@1`` armed client-side fires on the client's own next
send).
"""

import threading
import time

import pytest

from repro import faults
from repro.client import Client
from repro.errors import ServerError
from repro.db import MayBMS
from repro.server import MayBMSServer
from serving import serve


@pytest.fixture
def server(tmp_path):
    with serve(str(tmp_path / "store")) as server:
        yield server


class TestStatementTimeout:
    def test_runaway_statement_aborts_and_session_survives(self, tmp_path):
        with serve(str(tmp_path / "store"), statement_timeout=0.3) as server:
            try:
                with Client(server.host, server.port) as client:
                    client.execute("create table t (k integer)")
                    # Stall the next WAL write far past the deadline; the
                    # delay is sliced so the watchdog's async abort can land.
                    faults.arm("wal.write=delay:10000@1")
                    began = time.monotonic()
                    with pytest.raises(ServerError) as info:
                        client.execute("insert into t values (1)")
                    elapsed = time.monotonic() - began
                    faults.disarm()
                    assert info.value.error_type == "StatementTimeout"
                    assert elapsed < 5.0, "watchdog did not interrupt the delay"

                    # The statement rolled back and the session keeps serving.
                    assert client.query("select k from t").rows == []
                    client.execute("insert into t values (2)")
                    assert client.query("select k from t").rows == [(2,)]
                    serving = client.server_stats()["serving"]
                    assert serving["statements_timed_out"] == 1
                    assert serving["statement_timeout"] == 0.3
            finally:
                faults.disarm()

    def test_fast_statements_unaffected(self, tmp_path):
        with serve(str(tmp_path / "store"), statement_timeout=5.0) as server:
            with Client(server.host, server.port) as client:
                client.execute("create table t (k integer)")
                client.execute("insert into t values (1)")
                serving = client.server_stats()["serving"]
                assert serving["statements_timed_out"] == 0

    def test_keyword_sets_timeout(self):
        with MayBMS() as db:
            assert MayBMSServer(db, statement_timeout=2.5).statement_timeout == 2.5

    def test_unset_reports_none(self, server):
        with Client(server.host, server.port) as client:
            assert client.server_stats()["serving"]["statement_timeout"] is None


class TestFaultsWireOp:
    def test_arm_stats_disarm_cycle(self, server):
        with Client(server.host, server.port) as client:
            state = client.arm_faults("wal.fsync=error@999", seed=13)
            assert state["armed"] == {"wal.fsync": "error@999"}
            assert state["seed"] == 13
            client.execute("create table t (k integer)")
            client.execute("insert into t values (1)")
            stats = client.fault_stats()
            assert stats["hits"]["wal.fsync"] >= 1
            assert stats["fired"] == {}
            client.disarm_faults()
            assert client.fault_stats() == {}
            assert faults.active() is None

    def test_bad_spec_reports_error_and_keeps_connection(self, server):
        with Client(server.host, server.port) as client:
            with pytest.raises(ServerError, match="unknown failpoint site"):
                client.arm_faults("no.such.site=error")
            assert client.ping()

    def test_unknown_action_rejected(self, server):
        with Client(server.host, server.port) as client:
            with pytest.raises(ServerError, match="unknown faults action"):
                client._request({"op": "faults", "action": "detonate"})
            assert client.ping()

    def test_stats_op_merges_fault_counters(self, server):
        with Client(server.host, server.port) as client:
            assert client.server_stats()["faults"] == {}  # disarmed
            client.arm_faults("wal.fsync=error@999")
            client.execute("create table t (k integer)")
            merged = client.server_stats()["faults"]
            assert merged["armed"] == {"wal.fsync": "error@999"}
            client.disarm_faults()


class TestClientRetry:
    def test_idempotent_statement_survives_dropped_connection(self, server):
        with Client(server.host, server.port, retries=3, backoff=0.01) as client:
            client.execute("create table t (k integer)")
            client.execute("insert into t values (1), (2)")
            # Fires on the client's own next send: the query's request
            # dies mid-flight and is transparently replayed on a fresh
            # connection (SELECT is idempotent).
            faults.arm("wire.send=drop@1")
            result = client.query("select k from t order by k")
            faults.disarm()
            assert result.rows == [(1,), (2,)]
            assert result.retries >= 1
            assert client.last_retries == result.retries

    def test_non_idempotent_statement_surfaces_the_drop(self, server):
        with Client(server.host, server.port, retries=3, backoff=0.01) as client:
            client.execute("create table t (k integer)")
            faults.arm("wire.send=drop@1")
            # The insert's fate would be unknown after a reconnect, so the
            # client must NOT replay it -- the failure surfaces instead.
            with pytest.raises(OSError):
                client.execute("insert into t values (1)")
            faults.disarm()

    def test_read_only_session_retries_everything(self, server):
        with Client(server.host, server.port) as writer:
            writer.execute("create table t (k integer)")
            writer.execute("insert into t values (7)")
        with Client(
            server.host, server.port, read_only=True, retries=3, backoff=0.01
        ) as reader:
            faults.arm("wire.send=drop@1")
            result = reader.query("select k from t")
            faults.disarm()
            assert result.rows == [(7,)]
            assert result.retries >= 1

    def test_zero_retries_surfaces_immediately(self, server):
        with Client(server.host, server.port) as client:
            client.execute("create table t (k integer)")
            faults.arm("wire.send=drop@1")
            with pytest.raises(OSError):
                client.query("select k from t")
            faults.disarm()

    def test_busy_refusal_retried_in_place(self, tmp_path):
        """ServerBusyError keeps the connection and transaction intact,
        so the client retries any statement after a backoff -- here until
        a deliberately stalled statement frees the single slot."""
        with serve(str(tmp_path / "store"), max_active_statements=1) as server:
            try:
                slow = Client(server.host, server.port)
                slow.execute("create table t (k integer)")
                faults.arm("wal.write=delay:1500@1")
                stalled = threading.Thread(
                    target=slow.execute, args=("insert into t values (1)",)
                )
                stalled.start()
                time.sleep(0.3)  # let the stalled insert occupy the slot
                with Client(
                    server.host, server.port, retries=10, backoff=0.05
                ) as fast:
                    result = fast.query("select k from t")
                    assert result.retries >= 1
                    assert fast.read_only is False
                stalled.join()
                faults.disarm()
                slow.close()
            finally:
                faults.disarm()


class TestServingErrorCounters:
    def test_counters_start_at_zero(self, server):
        with Client(server.host, server.port) as client:
            serving = client.server_stats()["serving"]
            for name in (
                "accept_errors", "reject_errors", "recv_errors",
                "reply_errors", "statements_timed_out",
            ):
                assert serving[name] == 0, serving

    def test_injected_recv_drop_is_counted(self, server):
        with Client(server.host, server.port, retries=3, backoff=0.05) as client:
            client.execute("create table t (k integer)")
            # After the arm reply, the server's connection thread loops
            # straight into recv_message and fires the drop itself.
            client.arm_faults("wire.recv=drop@1")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = faults.stats()
                if stats and stats["fired"].get("wire.recv"):
                    break
                time.sleep(0.02)
            # The retrying client shrugs off its killed connection.
            assert client.query("select k from t").rows == []
            serving = client.server_stats()["serving"]
            assert serving["recv_errors"] >= 1, serving
            client.disarm_faults()
