"""MVCC snapshot reads: pinned version sets across storage and sessions.

Read statements execute against an immutable pinned version set captured
by the store's :class:`~repro.engine.storage.SnapshotManager` -- zero
table locks while they run, and no store gate at all.  These tests drive the one nondeterministic window
deterministically: ``SnapshotManager.on_capture`` fires after the pins
are taken and the shared table grant is released, *before* the statement
executes, so a test can commit a concurrent write exactly between the
pin and the read and assert the reader still sees the pinned version
bit-identically -- in memory or durable, on the executor and on the
reference row evaluator.
"""

import threading
import time

import pytest

from reference import running_on
from repro import faults
from repro.db import MayBMS
from repro.engine.transactions import STORE_GATE
from repro.errors import AnalysisError, MayBMSError

ENGINES = ["batch", "row"]

SELECT_QUERY = "select g, k, w from t where k < 7"
CONF_QUERY = (
    "select g, conf() as c from (repair key g, k in t weight by w) r group by g"
)


def build_store(**kwargs):
    kwargs.setdefault("seed", 13)
    db = MayBMS(**kwargs)
    values = ", ".join(
        f"({g}, {k}, {1 + (g + k) % 3})" for g in range(6) for k in range(10)
    )
    db.execute_script(
        "create table t (g integer, k integer, w float);"
        f"insert into t values {values}"
    )
    return db


def arm_one_shot(db, action):
    """Install an on_capture hook that runs ``action`` on the first
    capture only, then disarms itself (later statements in the test --
    including the verification reads -- must not retrigger it)."""

    def hook(pinned):
        db.snapshots.on_capture = None
        action(pinned)

    db.snapshots.on_capture = hook


class TestSnapshotIsolation:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("durable", [False, True])
    def test_select_isolated_from_concurrent_commit(self, engine, durable, tmp_path):
        db = build_store(path=str(tmp_path / "store") if durable else None)
        try:
            with running_on(engine):
                expected = sorted(db.query(SELECT_QUERY).rows)
                writer = db.session()
                arm_one_shot(
                    db,
                    lambda pinned: writer.execute(
                        "insert into t values (99, 1, 1.0), (99, 2, 2.0)"
                    ),
                )
                during = sorted(db.query(SELECT_QUERY).rows)
                after = sorted(db.query(SELECT_QUERY).rows)
            # The read that overlapped the commit saw the pinned version,
            # bit-identical to the pre-write result ...
            assert during == expected
            # ... and the next statement pins the new version.
            assert len(after) == len(expected) + 2
        finally:
            db.close()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("durable", [False, True])
    def test_conf_isolated_from_concurrent_commit(self, engine, durable, tmp_path):
        db = build_store(path=str(tmp_path / "store") if durable else None)
        try:
            with running_on(engine):
                expected = sorted(db.query(CONF_QUERY).rows)
                writer = db.session()
                arm_one_shot(
                    db,
                    lambda pinned: writer.execute("delete from t where g = 0"),
                )
                during = sorted(db.query(CONF_QUERY).rows)
                after = sorted(db.query(CONF_QUERY).rows)
            assert during == expected
            assert len(after) == len(expected) - 1
        finally:
            db.close()

    def test_interleaved_writer_stream_never_tears_a_read(self):
        # A read pinned at version N must not see a *mix* of versions:
        # the invariant column (every row of one statement's insert
        # shares one g) would tear if a scan combined versions.
        db = build_store()
        try:
            writer = db.session()

            def commit_two_statements(pinned):
                writer.execute("insert into t values (50, 0, 1.0)")
                writer.execute("delete from t where g = 50")

            arm_one_shot(db, commit_two_statements)
            during = sorted(db.query("select g from t where g = 50").rows)
            assert during == []  # pinned before both writes
        finally:
            db.close()


class TestVersionChainReclamation:
    def test_release_reclaims_superseded_version(self):
        db = build_store()
        try:
            writer = db.session()
            arm_one_shot(
                db, lambda pinned: writer.execute("insert into t values (7, 7, 1.0)")
            )
            db.query(SELECT_QUERY)
            stats = db.snapshot_stats()
            # The pinned version was superseded mid-statement; releasing
            # the last pin reclaimed it from the chain.
            assert stats["snapshot_pins_held"] == 0
            assert stats["snapshot_versions_retained"] == 0
            assert stats["snapshot_versions_reclaimed"] >= 1
            assert db.catalog.retained_snapshot_versions() == 0
        finally:
            db.close()

    def test_killed_reader_releases_pins(self):
        # A statement that dies after capture (here: analysis rejects it,
        # which runs inside the executor, after the pins are taken) must
        # release its pins on the error path, reclaiming any version a
        # concurrent commit superseded meanwhile.
        db = build_store()
        try:
            writer = db.session()
            arm_one_shot(
                db, lambda pinned: writer.execute("insert into t values (8, 8, 1.0)")
            )
            with pytest.raises(MayBMSError):
                db.query("select no_such_column from t")
            stats = db.snapshot_stats()
            assert stats["snapshot_pins_held"] == 0
            assert stats["snapshot_versions_retained"] == 0
            assert stats["snapshot_versions_reclaimed"] >= 1
            assert db.catalog.retained_snapshot_versions() == 0
        finally:
            db.close()

    def test_failing_capture_hook_leaks_no_pins(self):
        db = build_store()
        try:
            arm_one_shot(db, lambda pinned: (_ for _ in ()).throw(RuntimeError("boom")))
            with pytest.raises(RuntimeError):
                db.query(SELECT_QUERY)
            assert db.snapshot_stats()["snapshot_pins_held"] == 0
            assert db.catalog.retained_snapshot_versions() == 0
        finally:
            db.close()


class TestLockFreeReads:
    def test_reader_holds_no_table_locks(self):
        # Between the capture and the read the statement holds nothing:
        # an exclusive acquisition of every referenced table (and the
        # store gate) succeeds instantly while the read is in flight.
        db = build_store()
        try:
            observed = {}

            def probe(pinned):
                db.locks.acquire_exclusive("t", timeout=0.1)
                db.locks.release_exclusive("t")
                db.locks.acquire_exclusive(STORE_GATE, timeout=0.1)
                db.locks.release_exclusive(STORE_GATE)
                observed["lock_free"] = True

            arm_one_shot(db, probe)
            db.query(SELECT_QUERY)
            assert observed.get("lock_free") is True
            assert db._held_locks == {}
        finally:
            db.close()

    def test_mvcc_off_reads_take_shared_locks(self):
        # The locked read path: inside an explicit transaction no capture
        # happens, and reads hold shared 2PL locks until commit (so the
        # transaction reads its own writes).
        db = build_store()
        try:
            db.snapshots.on_capture = lambda pinned: pytest.fail(
                "a read inside a transaction must not capture snapshots"
            )
            db.execute("begin")
            db.query(SELECT_QUERY)
            assert db._held_locks["t"][0] == "shared"
            db.execute("commit")
            assert db._held_locks == {}
            assert db.snapshot_stats()["snapshot_captures"] == 0
        finally:
            db.close()


def wait_until(condition, what):
    deadline = time.monotonic() + 5
    while not condition():
        assert time.monotonic() < deadline, f"{what} never happened"
        time.sleep(0.001)


class TestTableScopedCapture:
    def test_capture_never_touches_the_store_gate(self, monkeypatch):
        db = build_store()
        try:
            requested = []
            for method in ("acquire_shared", "acquire_shared_all", "acquire_exclusive"):
                original = getattr(db.locks, method)

                def spy(names, timeout=None, _original=original):
                    requested.extend([names] if isinstance(names, str) else names)
                    return _original(names, timeout=timeout)

                monkeypatch.setattr(db.locks, method, spy)
            db.query(SELECT_QUERY)
            assert requested == ["t"]
            requested.clear()
            db.execute("insert into t values (9, 9, 1.0)")
            assert requested == [STORE_GATE, "t"]  # the spy does see the gate
        finally:
            db.close()

    def test_reader_waits_only_for_writers_of_its_own_tables(self, tmp_path):
        db = MayBMS(path=str(tmp_path / "store"), checkpoint_every=0)
        try:
            db.execute_script(
                "create table a (x integer); create table b (x integer);"
                "insert into b values (1)"
            )
            writer = db.session()
            reader = db.session(read_only=True)
            registry = faults.arm("wal.fsync=delay:300")
            thread = threading.Thread(
                target=writer.execute, args=("insert into a values (7)",)
            )
            thread.start()
            wait_until(
                lambda: registry.stats()["fired"].get("wal.fsync", 0) == 1,
                "the writer's fsync",
            )
            # The writer now sits in its commit fsync holding a (and the
            # store gate, shared).  A reader of b has nothing to wait for.
            started = time.monotonic()
            assert reader.query("select x from b").rows == [(1,)]
            assert time.monotonic() - started < 0.1
            assert reader.snapshot_stats()["snapshot_capture_waits"] == 0
            # A reader of a waits for the commit to become durable, then
            # sees it.
            assert reader.query("select x from a").rows == [(7,)]
            thread.join(timeout=5)
            assert not thread.is_alive()
            stats = reader.snapshot_stats()
            assert stats["snapshot_capture_waits"] == 1
            assert stats["snapshot_capture_wait_ms"] > 0
        finally:
            faults.disarm()
            db.close()

    def test_capture_across_a_growing_transaction_does_not_deadlock(self):
        """A reader of {a, b} arrives while an explicit transaction has
        written b and is about to write a.  Taking the read set table by
        table would hold a while waiting for b and stop the transaction
        until ``lock_timeout``; the atomic grant holds nothing while it
        waits, and the transaction is not queued behind it."""
        db = MayBMS(lock_timeout=2.0)
        try:
            db.execute_script("create table a (x integer); create table b (x integer)")
            writer = db.session()
            reader = db.session(read_only=True)
            writer.execute("begin")
            writer.execute("insert into b values (1)")
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(
                    reader.query("select a.x, b.x from a, b").rows
                )
            )
            thread.start()
            wait_until(lambda: len(db.locks._queue) == 1, "the reader's wait")
            writer.execute("insert into a values (1)")
            writer.execute("commit")
            thread.join(timeout=5)
            assert not thread.is_alive()
            # Both rows or neither, never half of the transaction; here the
            # reader was already waiting, so it is granted after the commit.
            assert seen == [[(1, 1)]]
        finally:
            db.close()

    def test_writer_queued_behind_a_capture_does_not_stop_the_transaction(self):
        """Three parties: an explicit transaction wrote b, a reader of
        {a, b} waits for it, and an autocommit insert into a queues behind
        the reader.  The transaction's own insert into a must not queue
        behind that writer in turn (reader -> transaction -> writer ->
        reader, all stopped until ``lock_timeout`` although a is free)."""
        db = MayBMS(lock_timeout=2.0)
        try:
            db.execute_script("create table a (x integer); create table b (x integer)")
            txn, other = db.session(), db.session()
            reader = db.session(read_only=True)
            txn.execute("begin")
            txn.execute("insert into b values (1)")
            seen = []
            read = threading.Thread(
                target=lambda: seen.append(
                    sorted(reader.query("select a.x, b.x from a, b").rows)
                )
            )
            read.start()
            wait_until(lambda: len(db.locks._queue) == 1, "the reader's wait")
            write = threading.Thread(
                target=other.execute, args=("insert into a values (2)",)
            )
            write.start()
            wait_until(lambda: len(db.locks._queue) == 2, "the writer's wait")
            started = time.monotonic()
            txn.execute("insert into a values (1)")
            txn.execute("commit")
            assert time.monotonic() - started < 1.0
            for thread in (read, write):
                thread.join(timeout=5)
                assert not thread.is_alive()
            # Arrival order among the waiters: the reader (all of the
            # transaction, none of the later insert), then the writer.
            assert seen == [[(1, 1)]]
            assert sorted(db.query("select x from a").rows) == [(1,), (2,)]
        finally:
            db.close()


class TestDifferentialLockedVsMvcc:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_results_identical_mvcc_on_off(self, engine):
        # The same read as an auto-commit statement (pinned snapshot) and
        # inside begin ... commit (shared 2PL locks, no capture).
        mvcc_db = build_store()
        locked_db = build_store()
        try:
            with running_on(engine):
                for query in (SELECT_QUERY, CONF_QUERY):
                    pinned_rows = mvcc_db.query(query).rows
                    locked_db.execute("begin")
                    locked_rows = locked_db.query(query).rows
                    locked_db.execute("commit")
                    assert sorted(pinned_rows) == sorted(locked_rows)
            assert mvcc_db.snapshot_stats()["snapshot_captures"] == 2
            assert locked_db.snapshot_stats()["snapshot_captures"] == 0
        finally:
            mvcc_db.close()
            locked_db.close()


class TestPinnedVersionSet:
    def test_repeated_pins_share_one_relation_object(self):
        # Pin-stable relation identity is the cache-reuse contract:
        # mirrors, join build tables and grouped lineages live on the
        # relation, so two statements pinned to the same version share
        # them for free.
        db = build_store()
        try:
            first = db.snapshots.capture(["t"])
            second = db.snapshots.capture(["t"])
            assert first.lookup("t")[1] is second.lookup("t")[1]
            assert first.versions == second.versions
            db.snapshots.release(first)
            db.snapshots.release(second)
            assert db.catalog.retained_snapshot_versions() == 0
        finally:
            db.close()

    def test_capture_skips_missing_tables(self):
        db = build_store()
        try:
            pinned = db.snapshots.capture(["t", "no_such"])
            assert len(pinned) == 1
            assert pinned.lookup("no_such") is None
            db.snapshots.release(pinned)
        finally:
            db.close()


class TestExplainSnapshots:
    def test_explain_reports_pinned_versions(self):
        db = build_store()
        try:
            explain = "\n".join(
                row[0] for row in db.query("explain " + SELECT_QUERY)
            )
            assert "snapshot: mvcc pinned t@v" in explain
        finally:
            db.close()

    def test_explain_omits_snapshot_line_when_locked(self):
        db = build_store()
        try:
            db.execute("begin")
            explain = "\n".join(
                row[0] for row in db.query("explain " + SELECT_QUERY)
            )
            db.execute("commit")
            assert "snapshot:" not in explain
        finally:
            db.close()


class TestSnapshotCountersOverSessions:
    def test_counters_flow_through_session_and_durability_stats(self, tmp_path):
        db = MayBMS(path=str(tmp_path / "store"))
        try:
            db.execute_script(
                "create table t (a integer); insert into t values (1), (2)"
            )
            session = db.session(read_only=True)
            session.query("select a from t")
            stats = session.snapshot_stats()
            assert stats["snapshot_captures"] >= 1
            durable = db.durability_stats()
            assert durable is not None
            assert durable["snapshot_captures"] == stats["snapshot_captures"]
        finally:
            db.close()
