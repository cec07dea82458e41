"""End-to-end durability tests through the MayBMS facade: close/reopen and
kill/reopen round trips, differential comparison of recovered vs. live
answers (certain and probabilistic), torn-tail truncation, and CHECKPOINT
as a SQL statement."""

import glob
import os

import pytest

from repro import MayBMS
from repro.errors import DurabilityError, TransactionError

CONF_QUERY = "select k, v, conf() as p from maybe group by k, v order by k, v"


def crash(db):
    """Simulate a kill: drop the session without close() -- no final
    checkpoint, no flush beyond what commits already fsynced.  Releasing
    the file handles mirrors what process death does to the directory
    flock (single-writer exclusion)."""
    db.storage.close()
    return None


def manifests(path):
    """Checkpoint manifest files present in a database directory."""
    return sorted(glob.glob(os.path.join(path, "checkpoint.*.manifest")))


def segment_files(path):
    return sorted(glob.glob(os.path.join(path, "seg-*.seg")))


def populate(db):
    db.execute("create table r (k integer, v text, w float)")
    db.execute(
        "insert into r values (1, 'a', 1.0), (1, 'b', 3.0), "
        "(2, 'c', 2.0), (2, 'd', 2.0), (3, 'e', 5.0)"
    )
    db.execute(
        "create table maybe as select k, v from (repair key k in r weight by w) x"
    )
    db.execute("update r set w = w + 1 where k = 2")
    db.execute("delete from r where v = 'e'")


class TestCloseReopen:
    def test_bit_identical_answers_after_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        populate(db)
        live_select = db.query("select k, v, w from r order by k, v").rows
        live_conf = db.query(CONF_QUERY).rows
        db.close()

        reopened = MayBMS(path=path)
        assert reopened.query("select k, v, w from r order by k, v").rows == live_select
        # Bit-identical, not approx: the registry's distributions round-trip
        # exactly through the checkpoint/WAL (repr-precision JSON floats).
        assert reopened.query(CONF_QUERY).rows == live_conf
        reopened.close()

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "db")
        with MayBMS(path=path) as db:
            populate(db)
            expected = db.query(CONF_QUERY).rows
        with MayBMS(path=path) as again:
            assert again.query(CONF_QUERY).rows == expected

    def test_reopened_session_continues_writing(self, tmp_path):
        path = str(tmp_path / "db")
        with MayBMS(path=path) as db:
            db.execute("create table t (x integer)")
            db.execute("insert into t values (1)")
        with MayBMS(path=path) as db:
            db.execute("insert into t values (2)")
        with MayBMS(path=path) as db:
            assert sorted(db.query("select x from t").rows) == [(1,), (2,)]

    def test_recover_api_rejected_on_durable_sessions(self, tmp_path):
        """recover() replays the in-memory WAL, which durable sessions
        truncate on flush -- it must raise, not hand back an empty db."""
        from repro.errors import DurabilityError

        db = MayBMS(path=str(tmp_path / "db"))
        db.execute("create table t (x integer)")
        with pytest.raises(DurabilityError, match="reopen MayBMS"):
            db.recover()
        db.close()


class TestKillAfterCommit:
    """A 'killed' session never calls close(): no final checkpoint is
    written, so recovery runs purely off the WAL tail."""

    def test_wal_only_recovery(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        populate(db)
        live_select = db.query("select k, v, w from r order by k, v").rows
        live_conf = db.query(CONF_QUERY).rows
        db = crash(db)  # crash: no close, no checkpoint

        reopened = MayBMS(path=path)
        assert reopened.query("select k, v, w from r order by k, v").rows == live_select
        assert reopened.query(CONF_QUERY).rows == live_conf

    def test_recovery_restores_variable_registry(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        populate(db)
        variables = {
            var: db.registry.distribution(var) for var in db.registry.variables()
        }
        names = {var: db.registry.name(var) for var in variables}
        db = crash(db)

        reopened = MayBMS(path=path)
        for var, dist in variables.items():
            assert reopened.registry.distribution(var) == dist
            assert reopened.registry.name(var) == names[var]
        # Fresh variables after recovery must not collide with restored ids.
        new_var = reopened.registry.fresh({0: 1.0})
        assert new_var not in variables

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db.wal.flush()
        db = crash(db)

        (wal_file,) = glob.glob(os.path.join(path, "wal.*.log"))
        with open(wal_file, "ab") as handle:
            handle.write(b"\xde\xad partial frame")

        reopened = MayBMS(path=path)
        assert reopened.query("select x from t").rows == [(1,)]

    def test_corrupt_mid_log_truncates_from_there(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        size_before = None
        (wal_file,) = glob.glob(os.path.join(path, "wal.*.log"))
        size_before = os.path.getsize(wal_file)
        db.execute("insert into t values (2)")
        db = crash(db)

        # Corrupt the first byte written after the first insert's commit:
        # the second insert's unit fails its checksum and is dropped.
        with open(wal_file, "r+b") as handle:
            handle.seek(size_before)
            byte = handle.read(1)
            handle.seek(size_before)
            handle.write(bytes([byte[0] ^ 0xFF]))

        reopened = MayBMS(path=path)
        assert reopened.query("select x from t").rows == [(1,)]


class TestWalTailHygiene:
    """Recovery must truncate garbage tail bytes before the reopened
    session appends: commits written after garbage would be unreadable at
    the next recovery, and a valid-but-uncommitted tail would be
    resurrected by a later commit marker."""

    def test_commits_after_corrupt_tail_survive_second_recovery(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db = crash(db)
        (wal_file,) = glob.glob(os.path.join(path, "wal.*.log"))
        with open(wal_file, "ab") as handle:
            handle.write(b"\xba\xad torn tail")

        second = MayBMS(path=path)
        second.execute("insert into t values (2)")  # appended post-truncation
        second = crash(second)

        third = MayBMS(path=path)
        assert sorted(third.query("select x from t").rows) == [(1,), (2,)]

    def test_uncommitted_tail_never_resurrected(self, tmp_path):
        from repro.engine.durability import encode_frame

        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db = crash(db)
        # A crash mid-commit: valid frames, but no commit marker.
        (wal_file,) = glob.glob(os.path.join(path, "wal.*.log"))
        with open(wal_file, "ab") as handle:
            handle.write(encode_frame(("begin",)))
            handle.write(encode_frame(("insert", "t", 99, [99])))

        second = MayBMS(path=path)
        assert second.query("select x from t").rows == [(1,)]
        # This commit's marker must not legitimize the dangling tail.
        second.execute("insert into t values (2)")
        second = crash(second)

        third = MayBMS(path=path)
        assert sorted(third.query("select x from t").rows) == [(1,), (2,)]


class TestSingleWriter:
    def test_second_live_session_rejected(self, tmp_path):
        import fcntl  # noqa: F401 -- flock-based exclusion is POSIX-only

        from repro.errors import DurabilityError

        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        with pytest.raises(DurabilityError, match="locked by another"):
            MayBMS(path=path)
        db.close()
        reopened = MayBMS(path=path)  # released lock is re-acquirable
        reopened.close()


class TestCheckpointStatement:
    def test_checkpoint_sql_writes_snapshot_and_rotates(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        populate(db)
        expected = db.query(CONF_QUERY).rows
        first_wal = db.storage.wal_path
        db.execute("checkpoint")
        assert manifests(path)  # binary-columnar manifest, not checkpoint.json
        assert segment_files(path)
        assert not os.path.exists(first_wal)
        db = crash(db)  # crash right after checkpoint: WAL tail is empty

        reopened = MayBMS(path=path)
        assert reopened.query(CONF_QUERY).rows == expected

    def test_checkpoint_plus_tail(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        populate(db)
        db.execute("checkpoint")
        db.execute("insert into r values (9, 'z', 1.0)")
        expected = db.query("select k, v from r order by k, v").rows
        db = crash(db)

        reopened = MayBMS(path=path)
        assert reopened.query("select k, v from r order by k, v").rows == expected

    def test_checkpoint_noop_in_memory(self):
        db = MayBMS()
        assert db.checkpoint() is False
        db.execute("checkpoint")  # must not raise

    def test_checkpoint_inside_transaction_rejected(self, tmp_path):
        db = MayBMS(path=str(tmp_path / "db"))
        db.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.rollback()
        db.close()

    def test_auto_checkpoint_after_commit_threshold(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path, checkpoint_every=3)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        assert not manifests(path)
        db.execute("insert into t values (2)")  # third commit -> checkpoint
        assert manifests(path)
        assert db.storage.commits_since_checkpoint == 0
        db = crash(db)
        reopened = MayBMS(path=path)
        assert sorted(reopened.query("select x from t").rows) == [(1,), (2,)]


class TestTransactionsAndDurability:
    def test_rolled_back_sql_dml_not_recovered(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db.execute("begin")
        db.execute("insert into t values (99)")
        db.execute("rollback")
        assert db.query("select x from t").rows == [(1,)]  # undone live
        db = crash(db)

        reopened = MayBMS(path=path)
        assert reopened.query("select x from t").rows == [(1,)]

    def test_committed_transaction_durable_as_unit(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        db.execute("create table t (x integer)")
        db.execute("begin")
        db.execute("insert into t values (1)")
        db.execute("insert into t values (2)")
        db.execute("commit")
        db = crash(db)
        reopened = MayBMS(path=path)
        assert sorted(reopened.query("select x from t").rows) == [(1,), (2,)]

    def test_duplicate_rows_replay_by_tid(self, tmp_path):
        """Value-matched replay diverges on duplicate rows; tid-addressed
        redo records keep the recovered tid assignment identical."""
        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (7), (7), (7)")
        db.execute("delete from t where x = 7")
        db.execute("insert into t values (7), (8)")
        live = list(db.catalog.table("t").items())
        db = crash(db)

        reopened = MayBMS(path=path)
        assert list(reopened.catalog.table("t").items()) == live


class TestCommitFailureAtomicity:
    def test_statement_after_close_leaves_no_partial_state(self, tmp_path):
        """A commit-time durability failure must roll the statement back in
        memory and must not leave its redo unit buffered for a later
        flush to resurrect."""
        from repro.errors import DurabilityError

        path = str(tmp_path / "db")
        db = MayBMS(path=path)
        db.execute("create table t (x integer)")
        db.execute("insert into t values (1)")
        db.storage.close()  # storage gone; next commit's flush fails
        with pytest.raises(DurabilityError):
            db.execute("insert into t values (2)")
        assert db.query("select x from t").rows == [(1,)]  # rolled back
        assert len(db.wal) == 0  # durable WAL drops flushed/failed units

        reopened = MayBMS(path=path)
        assert reopened.query("select x from t").rows == [(1,)]
        reopened.close()


class TestCloseCost:
    def test_read_only_close_skips_snapshot(self, tmp_path):
        path = str(tmp_path / "db")
        with MayBMS(path=path) as db:
            populate(db)

        def signature():
            return [
                (f, os.path.getmtime(f), os.path.getsize(f))
                for f in manifests(path) + segment_files(path)
            ]

        before = signature()
        assert before  # close() wrote a checkpoint

        with MayBMS(path=path) as reader:
            reader.query(CONF_QUERY)  # reads only
        assert signature() == before

        with MayBMS(path=path) as writer:
            writer.execute("insert into r values (8, 'y', 1.0)")
        assert signature() != before


class TestIncrementalCheckpointFacade:
    """End-to-end incremental-checkpoint behaviour through MayBMS."""

    def _many_tables(self, db, n=4, rows=6):
        for i in range(n):
            db.execute(f"create table t{i} (k integer, w float)")
            values = ", ".join(f"({j}, {j}.5)" for j in range(rows))
            db.execute(f"insert into t{i} values {values}")

    def test_one_dirty_table_writes_one_segment(self, tmp_path):
        path = str(tmp_path / "db")
        db = MayBMS(path=path, checkpoint_every=0)
        self._many_tables(db, n=4)
        db.checkpoint()
        full = db.durability_stats()
        assert full["tables_snapshotted"] == 4

        db.execute("insert into t2 values (99, 9.5)")
        db.checkpoint()
        stats = db.durability_stats()
        assert stats["tables_snapshotted"] == 1
        assert stats["segments_reused"] == 3
        assert stats["checkpoint_bytes"] < full["checkpoint_bytes"]
        db.close()

    def test_counters_survive_recovery(self, tmp_path):
        path = str(tmp_path / "db")
        with MayBMS(path=path) as db:
            self._many_tables(db, n=2)
        reopened = MayBMS(path=path)
        stats = reopened.durability_stats()
        assert stats["recovery_ms"] > 0
        assert reopened.recovery_stats["checkpoint_format"] == "columnar"
        reopened.close()

    def test_corrupt_segment_falls_back_to_previous_epoch(self, tmp_path):
        import json

        path = str(tmp_path / "db")
        db = MayBMS(path=path, checkpoint_every=0)
        self._many_tables(db, n=2)
        db.checkpoint()
        db.execute("insert into t0 values (77, 7.5)")
        db.checkpoint()
        db.execute("insert into t1 values (88, 8.5)")
        live = {
            name: db.query(f"select k, w from {name} order by k").rows
            for name in ("t0", "t1")
        }
        db = crash(db)

        newest = manifests(path)[-1]
        with open(newest, "rb") as handle:
            newest_doc = json.loads(handle.read())["manifest"]
        with open(manifests(path)[0], "rb") as handle:
            prev_doc = json.loads(handle.read())["manifest"]
        prev_refs = {s for _, s in prev_doc["tables"]}
        (unique,) = [
            s for _, s in newest_doc["tables"] if s not in prev_refs
        ]
        with open(os.path.join(path, unique), "r+b") as handle:
            handle.seek(50)
            byte = handle.read(1)
            handle.seek(50)
            handle.write(bytes([byte[0] ^ 0xFF]))

        reopened = MayBMS(path=path)
        assert reopened.recovery_stats["fallbacks"] == 1
        for name, rows in live.items():
            assert reopened.query(f"select k, w from {name} order by k").rows == rows
        reopened.close()

    def test_kill_during_checkpoint_recovers_bit_identically(self, tmp_path):
        """Simulated kill -9 between segment writes and the manifest
        rename: the previous epoch plus the WAL chain reproduce every
        committed statement exactly."""
        path = str(tmp_path / "db")
        db = MayBMS(path=path, checkpoint_every=0)
        populate(db)
        db.checkpoint()
        db.execute("insert into r values (42, 'q', 2.0)")
        live_select = db.query("select k, v, w from r order by k, v").rows
        live_conf = db.query(CONF_QUERY).rows

        # Run phase 1 (gate capture + WAL rotation), write the segments,
        # then die before the manifest rename -- the widest crash window.
        capture = db.storage.prepare_checkpoint(db.catalog, db.registry)
        original = db.storage._write_atomically
        calls = {"n": 0}

        def dies_at_manifest(target, data, fsync_dir=True, site=None):
            if target.endswith(".manifest"):
                raise OSError("simulated power loss at manifest rename")
            return original(target, data, fsync_dir, site=site)

        db.storage._write_atomically = dies_at_manifest
        with pytest.raises(DurabilityError):
            db.storage.commit_checkpoint(capture)
        db.storage._write_atomically = original
        # The failed commit flips the store read-only; a reopen recovers.
        assert db.storage.degraded
        db = crash(db)

        reopened = MayBMS(path=path)
        assert reopened.query("select k, v, w from r order by k, v").rows == live_select
        assert reopened.query(CONF_QUERY).rows == live_conf
        # And the store keeps working: the next checkpoint completes.
        reopened.execute("insert into r values (43, 'r', 1.0)")
        reopened.checkpoint()
        reopened.close()
        del calls

