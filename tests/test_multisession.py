"""Multi-session serving over one shared store.

One :class:`MayBMS` store spawns many :class:`Session` facades sharing
the catalog, variable registry, lock manager, and write-ahead log.
These tests cover the session API (read-only enforcement, per-session
transactions, lock retention) and run a multithreaded stress test:
reader sessions computing ``conf()`` concurrently with a writer session,
asserting no errors and monotonically consistent snapshots.
"""

import threading
import time

import pytest

from repro.db import MayBMS
from repro.errors import AnalysisError, LockTimeout, TransactionError


@pytest.fixture
def store():
    store = MayBMS(seed=11)
    store.execute("create table t (k integer, v integer, p float)")
    store.execute(
        "insert into t values (1, 1, 0.5), (1, 2, 0.5), (2, 1, 0.25), (2, 2, 0.75)"
    )
    store.execute("create table u as repair key k in t weight by p")
    yield store
    store.close()


class TestSessionFacade:
    def test_sessions_share_catalog_and_registry(self, store):
        session = store.session()
        assert session.tables() == store.tables()
        session.execute("create table extra (a integer)")
        assert "extra" in store.tables()
        conf = session.query("select v, conf() as c from u where k = 1 group by v")
        assert sorted(round(c, 9) for _, c in conf.rows) == [0.5, 0.5]

    def test_read_only_session_rejects_writes(self, store):
        reader = store.session(read_only=True)
        assert sorted(
            reader.query("select v, conf() as c from u where k = 1 group by v").rows
        )
        with pytest.raises(TransactionError):
            reader.execute("insert into t values (9, 9, 1.0)")
        with pytest.raises(TransactionError):
            reader.execute("create table nope (a integer)")
        with pytest.raises(TransactionError):
            reader.execute("checkpoint")
        with pytest.raises(TransactionError):
            reader.begin()
        with pytest.raises(TransactionError):
            reader.create_table_from_relation("nope", store.table("t"))

    def test_read_only_session_rejects_variable_creation(self, store):
        """repair key / pick tuples mint durable shared registry state,
        so a read-only session must reject them even inside SELECT."""
        reader = store.session(read_only=True)
        variables_before = len(store.registry)
        with pytest.raises(TransactionError):
            reader.execute(
                "select a, conf() as c from "
                "(repair key k in t weight by p) r group by a"
            )
        with pytest.raises(TransactionError):
            reader.execute("select * from pick tuples from t with probability p r")
        assert len(store.registry) == variables_before
        # Reading a *stored* U-relation stays fine.
        assert reader.query("select v, conf() as c from u where k = 1 group by v")

    def test_per_session_transactions_are_independent(self, store):
        a = store.session()
        b = store.session()
        a.begin()
        assert a.in_transaction and not b.in_transaction
        a.rollback()

    def test_closed_session_rejects_statements(self, store):
        session = store.session()
        session.close()
        with pytest.raises(TransactionError):
            session.execute("select * from t")
        assert session not in store.sessions()

    def test_store_close_closes_sessions(self):
        store = MayBMS()
        store.execute("create table t (a integer)")
        session = store.session()
        store.close()
        assert session._closed

    def test_session_rollback_unregisters_variables(self, store):
        session = store.session()
        variables_before = len(store.registry)
        session.begin()
        session.execute("create table u2 as repair key k in t weight by p")
        assert len(store.registry) > variables_before
        session.rollback()
        assert len(store.registry) == variables_before

    def test_uncommitted_writes_block_other_writers(self, store):
        writer = store.session()
        other = store.session()
        other.lock_timeout = 0.2
        started = threading.Event()
        release = threading.Event()

        def run_txn():
            writer.begin()
            writer.execute("insert into t values (7, 7, 1.0)")
            started.set()
            release.wait(timeout=10)
            writer.rollback()

        thread = threading.Thread(target=run_txn)
        thread.start()
        started.wait(timeout=10)
        try:
            with pytest.raises(TransactionError):
                other.execute("insert into t values (8, 8, 1.0)")
            with pytest.raises(TransactionError):
                other.query("select count(*) as n from t")
        finally:
            release.set()
            thread.join()
        # After rollback both proceed.
        assert other.query("select count(*) as n from t").rows == [(4,)]


class TestMultithreadedStress:
    READERS = 8
    WRITER_BATCHES = 30

    def test_readers_with_concurrent_writer(self, store):
        """N reader sessions run conf() queries while a writer session
        appends monotonically; snapshots must be error-free and
        monotonically consistent (counts never go backwards, conf over
        the stable U-relation never changes)."""
        expected_conf = sorted(
            store.query("select v, conf() as c from u where k = 1 group by v").rows
        )
        stop = threading.Event()
        errors = []
        monotonic_violations = []

        def reader_loop(session):
            last_count = 0
            try:
                while not stop.is_set():
                    conf = sorted(
                        session.query(
                            "select v, conf() as c from u where k = 1 group by v"
                        ).rows
                    )
                    if conf != expected_conf:
                        monotonic_violations.append(("conf", conf))
                    count = session.query(
                        "select count(*) as n from grow"
                    ).rows[0][0]
                    if count < last_count:
                        monotonic_violations.append(("count", last_count, count))
                    last_count = count
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        writer = store.session()
        writer.execute("create table grow (i integer, v integer)")
        readers = [store.session(read_only=True) for _ in range(self.READERS)]
        threads = [
            threading.Thread(target=reader_loop, args=(session,))
            for session in readers
        ]
        for thread in threads:
            thread.start()
        try:
            for i in range(self.WRITER_BATCHES):
                writer.execute(f"insert into grow values ({i}, {i * i})")
                if i % 10 == 0:
                    # Interleave an explicit transaction with rollback: its
                    # effects must never be visible to any reader snapshot.
                    writer.begin()
                    writer.execute(f"insert into grow values (-1, -1)")
                    writer.rollback()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors
        assert not monotonic_violations, monotonic_violations
        final = writer.query("select count(*) as n from grow").rows[0][0]
        assert final == self.WRITER_BATCHES
        # No rolled-back row ever committed.
        assert writer.query("select count(*) as n from grow where i = -1").rows == [
            (0,)
        ]

    def test_concurrent_writers_distinct_tables(self, store):
        """Writers on distinct tables proceed in parallel without errors."""
        errors = []

        def writer_loop(index):
            try:
                session = store.session()
                session.execute(f"create table w{index} (a integer, p float)")
                for j in range(10):
                    session.execute(
                        f"insert into w{index} values ({j}, 0.5)"
                    )
                conf = session.query(
                    f"select a, conf() as c from "
                    f"(pick tuples from w{index} with probability p) r group by a"
                )
                assert len(conf.rows) == 10
                session.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer_loop, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(store.registry) >= 60  # 6 writers x 10 pick-tuples variables


class TestCheckpointGate:
    def test_same_thread_writer_session_blocks_checkpoint(self, tmp_path):
        """The LockManager keys ownership by thread, so a writer session
        on the checkpointing thread would not block the gate's exclusive
        acquire -- the checkpoint must detect it and refuse, or the
        snapshot would durably capture uncommitted (later rolled back)
        writes."""
        path = str(tmp_path / "store")
        store = MayBMS(path=path)
        store.execute("create table t (a integer)")
        session = store.session()
        session.begin()
        session.execute("insert into t values (42)")
        with pytest.raises(TransactionError):
            store.checkpoint()
        session.rollback()
        # After rollback the checkpoint proceeds and the row is gone.
        assert store.checkpoint()
        store.close()
        with MayBMS(path=path) as reopened:
            assert reopened.query("select * from t").rows == []

    def test_cross_thread_writer_session_blocks_checkpoint(self, tmp_path):
        path = str(tmp_path / "store")
        store = MayBMS(path=path)
        store.lock_timeout = 0.2
        store.execute("create table t (a integer)")
        session = store.session()
        started = threading.Event()
        release = threading.Event()

        def run_txn():
            session.begin()
            session.execute("insert into t values (42)")
            started.set()
            release.wait(timeout=10)
            session.rollback()

        thread = threading.Thread(target=run_txn)
        thread.start()
        started.wait(timeout=10)
        try:
            with pytest.raises(TransactionError):
                store.checkpoint()
        finally:
            release.set()
            thread.join()
        assert store.checkpoint()
        store.close()
        with MayBMS(path=path) as reopened:
            assert reopened.query("select * from t").rows == []

    def test_programmatic_transaction_blocks_checkpoint(self, tmp_path):
        """db.begin() + db.transaction.insert(...) never touches the
        statement locks, so the gate alone cannot see it; the checkpoint
        must still refuse to snapshot its uncommitted writes."""
        path = str(tmp_path / "store")
        store = MayBMS(path=path)
        store.execute("create table t (a integer)")
        store.execute("insert into t values (1)")
        session = store.session()
        session.begin()
        session.transaction.insert("t", (999,))
        with pytest.raises(TransactionError):
            store.checkpoint()
        session.rollback()
        assert store.checkpoint()
        store.close()
        with MayBMS(path=path) as reopened:
            assert reopened.query("select * from t").rows == [(1,)]


class TestDurableMultiSession:
    def test_group_commit_batches_under_concurrency(self, tmp_path):
        path = str(tmp_path / "store")
        store = MayBMS(path=path)
        sessions = [store.session() for _ in range(8)]
        for i, session in enumerate(sessions):
            session.execute(f"create table t{i} (a integer)")

        def writer(session, i):
            for j in range(10):
                session.execute(f"insert into t{i} values ({j})")

        threads = [
            threading.Thread(target=writer, args=(session, i))
            for i, session in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert store.storage is not None
        commits = store.storage.commit_count
        fsyncs = store.storage.fsync_count
        assert commits == 8 + 8 * 10
        # Group commit must have batched at least once under 8 writers.
        assert fsyncs < commits, (fsyncs, commits)
        store.close()
        # Everything recovered.
        with MayBMS(path=path) as reopened:
            for i in range(8):
                assert reopened.query(
                    f"select count(*) as n from t{i}"
                ).rows == [(10,)]

    def test_sessions_over_durable_store_recover(self, tmp_path):
        path = str(tmp_path / "store")
        store = MayBMS(path=path)
        writer = store.session()
        writer.execute("create table t (k integer, a integer, p float)")
        writer.execute("insert into t values (1, 1, 0.3), (1, 2, 0.7)")
        writer.execute("create table u as repair key k in t weight by p")
        before = sorted(
            writer.query("select a, conf() as c from u group by a").rows
        )
        store.close()
        with MayBMS(path=path) as reopened:
            after = sorted(
                reopened.query("select a, conf() as c from u group by a").rows
            )
        assert after == before


class TestCheckpointFairness:
    def test_checkpoint_not_starved_by_write_stream(self, tmp_path):
        """A saturating stream of writers each holds the store gate shared
        for its statement; without writer preference an explicit
        CHECKPOINT's exclusive gate acquisition can starve indefinitely.
        The LockManager queues new writers behind the waiting
        checkpointer, so the gate drains within a couple of statements."""
        store = MayBMS(path=str(tmp_path / "db"), checkpoint_every=0)
        store.execute("create table t (k integer, v integer)")
        stop = threading.Event()
        errors = []

        def write_loop(session):
            i = 0
            while not stop.is_set():
                try:
                    session.execute(f"insert into t values ({i}, {i})")
                except Exception as exc:  # pragma: no cover - fail the test
                    errors.append(exc)
                    return
                i += 1

        sessions = [store.session() for _ in range(4)]
        threads = [
            threading.Thread(target=write_loop, args=(s,), daemon=True)
            for s in sessions
        ]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.3)  # let the write stream saturate the gate
            started = time.monotonic()
            assert store.checkpoint() is True
            elapsed = time.monotonic() - started
            # Generous bound: the checkpointer only needs in-flight
            # statements to finish, not a lucky gap in the stream.
            assert elapsed < 10.0
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5)
        assert not errors
        assert store.durability_stats()["checkpoints_total"] >= 1
        for session in sessions:
            session.close()
        store.close()


class TestLockFairness:
    """Conflicting table-lock requests are granted in arrival order: a
    writer that releases a table and asks for it again queues behind the
    sessions already waiting (it used to win the lock back before any of
    them woke; on a durable store three of four writers never committed)."""

    def _write_stream(self, tmp_path, seconds, during=lambda store: None):
        store = MayBMS(
            path=str(tmp_path / "db"), checkpoint_every=0, lock_timeout=2.0
        )
        store.execute("create table t (k integer, v integer)")
        stop = threading.Event()
        sessions = [store.session() for _ in range(4)]
        commits = [0] * len(sessions)
        errors = []

        def write_loop(slot):
            try:
                while not stop.is_set():
                    sessions[slot].execute(
                        f"insert into t values ({slot}, {commits[slot]})"
                    )
                    commits[slot] += 1
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=write_loop, args=(slot,), daemon=True)
            for slot in range(len(sessions))
        ]
        for thread in threads:
            thread.start()
        try:
            deadline = time.monotonic() + seconds
            during(store)
            time.sleep(max(0.0, deadline - time.monotonic()))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        store.close()
        return commits, errors

    def test_saturating_writers_on_one_table_all_commit(self, tmp_path):
        commits, errors = self._write_stream(tmp_path, 3.0)
        assert not errors, errors
        assert all(count > 0 for count in commits), commits

    def test_reader_of_the_written_table_is_not_starved(self, tmp_path):
        slowest = [0.0]

        def read(store):
            reader = store.session(read_only=True)
            for _ in range(20):
                started = time.monotonic()
                reader.query("select k, v from t where k = 0")
                slowest[0] = max(slowest[0], time.monotonic() - started)

        commits, errors = self._write_stream(tmp_path, 3.0, during=read)
        assert not errors, errors
        assert all(count > 0 for count in commits), commits
        assert slowest[0] < 1.0


class TestMvccWriterLatency:
    def test_long_conf_never_times_out_writers(self):
        """The lock-free read guarantee, end to end: a reader session
        loops a multi-statement conf() workload while writer sessions
        commit on a *short* lock timeout.  Pre-MVCC, each read held
        shared table locks for its whole duration and a slow conf()
        would push writers into LockTimeout; with pinned snapshot reads
        the only contention left is the capture's brief gate flip, so
        no statement on either side may time out."""
        store = MayBMS(seed=23, lock_timeout=1.0)
        values = ", ".join(
            f"({g}, {k}, {1 + (g + k) % 5})"
            for g in range(40)
            for k in range(25)
        )
        store.execute_script(
            "create table big (g integer, k integer, w float);"
            f"insert into big values {values}"
        )
        stop = threading.Event()
        errors = []

        def reader_loop(session):
            try:
                while not stop.is_set():
                    session.query(
                        "select g, conf() as c from "
                        "(repair key g, k in big weight by w) r group by g"
                    )
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        reader = store.session()
        writers = [store.session() for _ in range(3)]
        reader_thread = threading.Thread(
            target=reader_loop, args=(reader,), daemon=True
        )
        reader_thread.start()
        committed = 0
        try:
            deadline = time.monotonic() + 4.0
            i = 0
            while time.monotonic() < deadline:
                for writer in writers:
                    writer.execute(
                        f"insert into big values (1000, {i}, 1.0)"
                    )
                    committed += 1
                    i += 1
        except LockTimeout as exc:  # pragma: no cover - the regression
            pytest.fail(f"writer timed out behind a lock-free reader: {exc}")
        finally:
            stop.set()
            reader_thread.join(timeout=30)
        assert not errors, errors
        assert committed > 0
        stats = store.snapshot_stats()
        assert stats["snapshot_captures"] >= 1
        assert stats["snapshot_pins_held"] == 0
        for session in [reader] + writers:
            session.close()
        store.close()
