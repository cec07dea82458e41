"""Tests for the on-disk WAL format, checkpoint snapshots (incremental
binary-columnar manifests + segments), and the durability manager's
recovery / rotation / epoch-fallback protocol."""

import glob
import json
import os
import struct

import pytest

from repro.core.variables import VariableRegistry
from repro.engine.catalog import KIND_URELATION, Catalog
from repro.engine.durability import (
    DurabilityManager,
    count_dml_units,
    decode_manifest,
    encode_frame,
    encode_manifest,
    manifest_name,
    manifest_segment_names,
    scan_committed,
    scan_frames,
)
from repro.engine.schema import Schema
from repro.engine.storage import Table
from repro.engine.transactions import Transaction, WriteAheadLog
from repro.engine.types import FLOAT, INTEGER, TEXT
from repro.errors import RecoveryError, StorageError


class TestFrameFormat:
    def test_roundtrip(self):
        records = [("begin",), ("insert", "t", 1, [1, "a"]), ("commit",)]
        data = b"".join(encode_frame(r) for r in records)
        decoded, valid = scan_frames(data)
        assert decoded == [("begin",), ("insert", "t", 1, [1, "a"]), ("commit",)]
        assert valid == len(data)

    def test_torn_tail_truncated(self):
        good = encode_frame(("begin",)) + encode_frame(("commit",))
        torn = encode_frame(("insert", "t", 1, [5]))[:-3]  # body cut short
        decoded, valid = scan_frames(good + torn)
        assert decoded == [("begin",), ("commit",)]
        assert valid == len(good)

    def test_corrupt_checksum_stops_scan(self):
        first = encode_frame(("begin",))
        second = bytearray(encode_frame(("insert", "t", 1, [5])))
        second[-1] ^= 0xFF  # flip a payload byte; crc no longer matches
        third = encode_frame(("commit",))
        decoded, valid = scan_frames(first + bytes(second) + third)
        assert decoded == [("begin",)]
        assert valid == len(first)

    def test_garbage_header_stops_scan(self):
        good = encode_frame(("begin",)) + encode_frame(("commit",))
        # A "length" pointing far past the end of file reads as torn.
        garbage = struct.pack(">II", 1 << 30, 0)
        decoded, _ = scan_frames(good + garbage + b"xxxx")
        assert decoded == [("begin",), ("commit",)]

    def test_scan_committed_drops_uncommitted_tail(self):
        records = [
            ("begin",), ("insert", "t", 1, [1]), ("commit",),
            ("begin",), ("insert", "t", 2, [2]),  # crash before commit frame
        ]
        data = b"".join(encode_frame(r) for r in records)
        committed, committed_bytes = scan_committed(data)
        assert committed == list(records[:3])
        # The committed byte length covers exactly the first three frames.
        assert committed_bytes == len(
            b"".join(encode_frame(r) for r in records[:3])
        )

    def test_scan_committed_empty_when_no_commit(self):
        data = b"".join(
            encode_frame(r) for r in [("begin",), ("insert", "t", 1, [1])]
        )
        assert scan_committed(data) == ([], 0)

    def test_count_dml_units(self):
        assert count_dml_units([
            ("begin",), ("insert", "t", 1, [1]), ("commit",),
            ("begin",), ("register_variable", 1, "x", [[0, 1.0]]), ("commit",),
            ("begin",), ("commit",),
        ]) == 1


class TestTableState:
    """The columnar capture (``dump_columns``) and the recovery bulk load
    (``load_columns``) a checkpoint segment round-trips through."""

    @staticmethod
    def _load(table, dump):
        table.load_columns(
            dump["tids"],
            dump["snapshot"].columns(),
            len(dump["tids"]),
            dump["next_tid"],
        )

    def test_dump_preserves_tids_and_counter(self):
        table = Table("t", Schema.of(("x", INTEGER)))
        table.insert((1,))
        tid = table.insert((2,))
        table.insert((3,))
        table.delete(tid)

        fresh = Table("t", Schema.of(("x", INTEGER)))
        self._load(fresh, table.dump_columns())
        assert list(fresh.items()) == [(1, (1,)), (3, (3,))]
        # The tid counter survives even past deleted tids: a new insert must
        # not reuse tid 2 (nor, after deleting the last row, tid 3).
        assert fresh.insert((9,)) == 4
        table.delete(3)
        emptied = Table("t", Schema.of(("x", INTEGER)))
        self._load(emptied, table.dump_columns())
        assert emptied.insert((9,)) == 4

    def test_load_into_nonempty_rejected(self):
        source = Table("t", Schema.of(("x", INTEGER)))
        source.insert((5,))
        table = Table("t", Schema.of(("x", INTEGER)))
        table.insert((1,))
        with pytest.raises(StorageError, match="non-empty"):
            self._load(table, source.dump_columns())
        assert list(table.items()) == [(1, (1,))]


class TestDurabilityManager:
    def test_append_then_recover(self, tmp_path):
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = Catalog()
        wal = WriteAheadLog(sink=manager)
        txn = Transaction(catalog, wal)
        txn.create_table("t", Schema.of(("x", INTEGER), ("p", FLOAT)))
        txn.insert("t", (1, 0.5))
        txn.insert("t", (2, 0.75))
        txn.commit()
        manager.close()

        recovered_catalog = Catalog()
        recovered_registry = VariableRegistry()
        again = DurabilityManager(path)
        stats = again.recover_into(recovered_catalog, recovered_registry)
        assert stats["replayed_records"] > 0
        assert list(recovered_catalog.table("t").items()) == [
            (1, (1, 0.5)), (2, (2, 0.75)),
        ]

    def test_checkpoint_rotates_and_tail_replays(self, tmp_path):
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = Catalog()
        registry = VariableRegistry()
        wal = WriteAheadLog(sink=manager)

        txn = Transaction(catalog, wal)
        txn.create_table("t", Schema.of(("x", INTEGER)))
        txn.insert("t", (1,))
        txn.commit()
        first_wal = manager.wal_path
        manager.checkpoint(catalog, registry)
        assert not os.path.exists(first_wal)  # rotated away
        assert manager.commits_since_checkpoint == 0

        txn = Transaction(catalog, wal)
        txn.insert("t", (2,))
        txn.commit()
        assert os.path.exists(manager.wal_path)
        manager.close()

        recovered_catalog = Catalog()
        again = DurabilityManager(path)
        again.recover_into(recovered_catalog, VariableRegistry())
        assert sorted(recovered_catalog.table("t").rows()) == [(1,), (2,)]

    def test_tid_counter_survives_checkpoint_and_reopen(self, tmp_path):
        """The segment carries next_tid: a reopened table never reuses the
        tid of a row deleted before the checkpoint."""
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = Catalog()
        wal = WriteAheadLog(sink=manager)
        txn = Transaction(catalog, wal)
        txn.create_table("t", Schema.of(("x", INTEGER)))
        for x in (1, 2, 3):
            txn.insert("t", (x,))
        txn.delete("t", 3)
        txn.commit()
        manager.checkpoint(catalog, VariableRegistry())
        manager.close()

        recovered = Catalog()
        again = DurabilityManager(path)
        stats = again.recover_into(recovered, VariableRegistry())
        assert stats["replayed_records"] == 0  # everything from the segment
        assert recovered.table("t").insert((9,)) == 4
        again.close()

    def test_commit_counter_counts_dml_units_only(self, tmp_path):
        """Variable-registration units don't advance the auto-checkpoint
        counter: one repair-key statement can log hundreds of them."""
        manager = DurabilityManager(str(tmp_path / "db"))
        manager.append([
            ("begin",), ("insert", "t", 1, [1]), ("commit",),
            ("begin",), ("register_variable", 1, "x1", [[0, 0.5], [1, 0.5]]),
            ("commit",),
            ("begin",), ("delete_row", "t", 1), ("commit",),
        ])
        assert manager.commits_since_checkpoint == 2

    def test_recovery_truncates_bad_tail_bytes(self, tmp_path):
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        manager.append([
            ("begin",),
            ("create_table", "t", [["x", "INTEGER"]], "standard", {}),
            ("commit",),
        ])
        wal_file = manager.wal_path
        good_size = os.path.getsize(wal_file)
        manager.close()
        with open(wal_file, "ab") as handle:
            handle.write(b"\x01\x02 garbage")

        again = DurabilityManager(path)
        again.recover_into(Catalog(), VariableRegistry())
        assert os.path.getsize(wal_file) == good_size
        again.close()

    def test_concurrent_managers_rejected(self, tmp_path):
        from repro.errors import DurabilityError

        path = str(tmp_path / "db")
        first = DurabilityManager(path)
        with pytest.raises(DurabilityError, match="locked"):
            DurabilityManager(path)
        first.close()
        DurabilityManager(path).close()

    def test_failed_append_truncates_its_frames(self, tmp_path, monkeypatch):
        """A failed write/fsync must not leave the unit's frames in the
        file: the caller rolls the commit back, and a later successful
        commit fsyncing after them would make the rolled-back transaction
        durable (its commit marker is in the batch).  With retries
        disabled, exhausting the single attempt degrades the store."""
        import repro.engine.durability as durability_module
        from repro.errors import DegradedError

        monkeypatch.setenv("REPRO_WAL_RETRIES", "0")
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        manager.append([
            ("begin",),
            ("create_table", "t", [["x", "INTEGER"]], "standard", {}),
            ("commit",),
        ])
        good_size = os.path.getsize(manager.wal_path)

        real_fsync = os.fsync
        failures = {"remaining": 1}

        def flaky_fsync(fd):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError("simulated EIO at fsync")
            return real_fsync(fd)

        monkeypatch.setattr(durability_module.os, "fsync", flaky_fsync)
        with pytest.raises(DegradedError):
            manager.append([("begin",), ("insert", "t", 1, [99]), ("commit",)])
        monkeypatch.setattr(durability_module.os, "fsync", real_fsync)
        assert os.path.getsize(manager.wal_path) == good_size
        assert manager.degraded
        manager.close()

        # Degradation is in-memory state: a fresh manager starts clean,
        # and recovery must not surface any frame of the failed unit.
        again = DurabilityManager(path)
        recovered = Catalog()
        again.recover_into(recovered, VariableRegistry())
        assert not again.degraded
        again.append([("begin",), ("insert", "t", 1, [1]), ("commit",)])
        again.close()
        recovered = Catalog()
        DurabilityManager(path).recover_into(recovered, VariableRegistry())
        assert list(recovered.table("t").rows()) == [(1,)]  # no 99

    def test_transient_append_failure_absorbed_by_retry(
        self, tmp_path, monkeypatch
    ):
        """With the default retry budget, a single flaky fsync is retried
        transparently: the append succeeds, the retry counter records the
        extra attempt, and recovery sees exactly one copy of the unit."""
        import repro.engine.durability as durability_module

        monkeypatch.setenv("REPRO_WAL_RETRIES", "2")
        monkeypatch.setenv("REPRO_WAL_RETRY_BACKOFF", "0.001")
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        # Prime the WAL handle so the flaky fsync below hits the data
        # fsync, not the (best-effort) directory fsync at file creation.
        manager.append([
            ("begin",),
            ("create_table", "t", [["x", "INTEGER"]], "standard", {}),
            ("commit",),
        ])

        real_fsync = os.fsync
        failures = {"remaining": 1}

        def flaky_fsync(fd):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError("simulated EIO at fsync")
            return real_fsync(fd)

        monkeypatch.setattr(durability_module.os, "fsync", flaky_fsync)
        manager.append([
            ("begin",), ("insert", "t", 1, [7]), ("commit",),
        ])
        monkeypatch.setattr(durability_module.os, "fsync", real_fsync)
        assert manager.wal_retries == 1
        assert not manager.degraded
        manager.close()

        recovered = Catalog()
        DurabilityManager(path).recover_into(recovered, VariableRegistry())
        assert list(recovered.table("t").rows()) == [(7,)]

    def test_recovery_seeds_commit_counter_from_tail(self, tmp_path):
        """A crash-looping workload must still reach the auto-checkpoint
        threshold: the replayed tail counts toward it."""
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        manager.append([
            ("begin",),
            ("create_table", "t", [["x", "INTEGER"]], "standard", {}),
            ("commit",),
            ("begin",), ("insert", "t", 1, [1]), ("commit",),
        ])
        manager.close()

        again = DurabilityManager(path)
        again.recover_into(Catalog(), VariableRegistry())
        assert again.commits_since_checkpoint == 2
        again.close()

    def test_recovery_sweeps_orphaned_old_epoch_logs(self, tmp_path):
        """A crash between the checkpoint rename and the old-log deletion
        orphans the superseded WAL; recovery reclaims it."""
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = Catalog()
        wal = WriteAheadLog(sink=manager)
        txn = Transaction(catalog, wal)
        txn.create_table("t", Schema.of(("x", INTEGER)))
        txn.commit()
        manager.checkpoint(catalog, VariableRegistry())  # now at epoch 2
        manager.close()
        # Simulate the orphan: a stale epoch-1 log left behind.
        stale = os.path.join(path, "wal.000001.log")
        with open(stale, "wb") as handle:
            handle.write(encode_frame(("begin",)))

        again = DurabilityManager(path)
        again.recover_into(Catalog(), VariableRegistry())
        assert not os.path.exists(stale)
        again.close()

    def test_torn_wal_tail_is_ignored(self, tmp_path):
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = Catalog()
        wal = WriteAheadLog(sink=manager)
        txn = Transaction(catalog, wal)
        txn.create_table("t", Schema.of(("x", INTEGER)))
        txn.insert("t", (1,))
        txn.commit()
        wal_file = manager.wal_path
        manager.close()
        with open(wal_file, "ab") as handle:
            handle.write(b"\x00\x00\x00\x10 torn garbage")

        recovered = Catalog()
        DurabilityManager(path).recover_into(recovered, VariableRegistry())
        assert list(recovered.table("t").rows()) == [(1,)]

    def test_uncommitted_durable_tail_dropped(self, tmp_path):
        """Frames of a commit unit written without its commit marker (crash
        between write and the marker reaching disk) must not replay."""
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        manager.append([
            ("begin",),
            ("create_table", "t", [["x", "INTEGER"]], "standard", {}),
            ("commit",),
            ("begin",),
            ("insert", "t", 1, [7]),
        ])
        manager.close()

        recovered = Catalog()
        DurabilityManager(path).recover_into(recovered, VariableRegistry())
        assert recovered.has_table("t")
        assert len(recovered.table("t")) == 0

    def test_urelation_kind_and_variables_survive(self, tmp_path):
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = Catalog()
        registry = VariableRegistry()
        wal = WriteAheadLog(sink=manager)
        txn = Transaction(catalog, wal)
        var = registry.scope().mint([{0: 0.5, 1: 0.5}], lambda _: "coin")
        txn.register_variable(registry, var, "coin", {0: 0.5, 1: 0.5})
        txn.create_table(
            "u",
            Schema.of(("a", INTEGER), ("_v0", INTEGER), ("_d0", INTEGER), ("_p0", FLOAT)),
            kind=KIND_URELATION,
            properties={"payload_arity": 1, "cond_arity": 1},
        )
        txn.insert("u", (1, var, 0, 0.5))
        txn.commit()
        manager.close()

        recovered_catalog = Catalog()
        recovered_registry = VariableRegistry()
        DurabilityManager(path).recover_into(recovered_catalog, recovered_registry)
        entry = recovered_catalog.entry("u")
        assert entry.is_urelation
        assert entry.properties["cond_arity"] == 1
        assert recovered_registry.distribution(var) == {0: 0.5, 1: 0.5}
        assert recovered_registry.name(var) == "coin"


def _segments(path):
    return sorted(
        os.path.basename(f) for f in glob.glob(os.path.join(path, "seg-*.seg"))
    )


def _manifests(path):
    return sorted(glob.glob(os.path.join(path, "checkpoint.*.manifest")))


def _build_catalog(tables=3, rows=4):
    catalog = Catalog()
    for i in range(tables):
        catalog.create_table(
            f"t{i}", Schema.of(("k", INTEGER), ("w", FLOAT), ("s", TEXT))
        )
        for j in range(rows):
            catalog.table(f"t{i}").insert((j, j + 0.5, f"row{j}"))
    return catalog


class TestManifestFormat:
    def test_roundtrip(self):
        data = encode_manifest(
            7, [["t", "seg-aa.seg"], ["u", "seg-bb.seg"]], ["seg-cc.seg"], 12
        )
        manifest = decode_manifest(data)
        assert manifest["wal_epoch"] == 7
        assert manifest["tables"] == [["t", "seg-aa.seg"], ["u", "seg-bb.seg"]]
        assert manifest["registry"] == {"segments": ["seg-cc.seg"], "next_id": 12}
        assert manifest_segment_names(manifest) == {
            "seg-aa.seg", "seg-bb.seg", "seg-cc.seg",
        }

    def test_tampered_manifest_rejected(self):
        data = encode_manifest(1, [["t", "seg-aa.seg"]], [], 1)
        document = json.loads(data)
        document["manifest"]["wal_epoch"] = 99
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError):
            decode_manifest(json.dumps(document).encode())


class TestIncrementalCheckpoint:
    def test_only_dirty_tables_reencoded(self, tmp_path):
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = _build_catalog(tables=4)
        registry = VariableRegistry()
        manager.checkpoint(catalog, registry)
        assert manager.tables_snapshotted == 4
        first_bytes = manager.checkpoint_bytes

        catalog.table("t2").insert((99, 9.5, "dirty"))
        manager.checkpoint(catalog, registry)
        assert manager.tables_snapshotted == 1
        assert manager.segments_reused == 3
        assert manager.checkpoint_bytes < first_bytes
        manager.close()

    def test_clean_checkpoint_writes_no_segments(self, tmp_path):
        manager = DurabilityManager(str(tmp_path / "db"))
        catalog = _build_catalog()
        registry = VariableRegistry()
        manager.checkpoint(catalog, registry)
        segments_before = _segments(manager.path)
        manager.checkpoint(catalog, registry)  # nothing changed
        assert manager.tables_snapshotted == 0
        assert manager.segments_reused == 3
        assert _segments(manager.path) == segments_before
        manager.close()

    def test_identical_tables_share_one_segment(self, tmp_path):
        """Content addressing: same bytes -> same file, written once."""
        manager = DurabilityManager(str(tmp_path / "db"))
        catalog = Catalog()
        for name in ("a", "b"):
            catalog.create_table(name, Schema.of(("k", INTEGER)))
        # Identical contents but distinct table names live in distinct
        # segments (the name is part of the payload); identical contents
        # under the SAME name across epochs dedupe to one file.
        catalog.table("a").insert((1,))
        catalog.table("b").insert((1,))
        manager.checkpoint(catalog, VariableRegistry())
        first = set(_segments(manager.path))
        # Drop and recreate "a" with bit-identical contents: the weakref
        # check forces a re-encode, but the rewrite hashes to the existing
        # file and is re-linked instead of written again.
        catalog.drop_table("a")
        catalog.create_table("a", Schema.of(("k", INTEGER)))
        catalog.table("a").insert((1,))
        manager.checkpoint(catalog, VariableRegistry())
        assert manager.tables_snapshotted == 1
        assert manager.segments_reused == 2  # "b" by version, "a" by hash
        assert set(_segments(manager.path)) == first
        manager.close()

    def test_drop_and_recreate_same_name_is_dirty(self, tmp_path):
        """A same-name table at a coincidentally equal version must not be
        treated as clean: the weakref identity check catches it."""
        manager = DurabilityManager(str(tmp_path / "db"))
        catalog = Catalog()
        catalog.create_table("t", Schema.of(("k", INTEGER)))
        registry = VariableRegistry()
        manager.checkpoint(catalog, registry)
        catalog.drop_table("t")
        catalog.create_table("t", Schema.of(("s", TEXT)))  # same version (0)
        manager.checkpoint(catalog, registry)
        assert manager.tables_snapshotted == 1
        manager.close()

        recovered = Catalog()
        again = DurabilityManager(manager.path)
        again.recover_into(recovered, VariableRegistry())
        assert [c.type.name for c in recovered.table("t").schema] == ["TEXT"]
        again.close()

    def test_dropped_table_segment_swept_after_next_two_checkpoints(self, tmp_path):
        manager = DurabilityManager(str(tmp_path / "db"))
        catalog = _build_catalog(tables=2)
        registry = VariableRegistry()
        manager.checkpoint(catalog, registry)
        count = len(_segments(manager.path))
        catalog.drop_table("t1")
        manager.checkpoint(catalog, registry)   # prev epoch still references it
        manager.checkpoint(catalog, registry)   # now unreferenced -> swept
        assert len(_segments(manager.path)) == count - 1
        manager.close()

    def test_registry_delta_appended_not_rewritten(self, tmp_path):
        manager = DurabilityManager(str(tmp_path / "db"))
        catalog = _build_catalog(tables=1)
        registry = VariableRegistry()
        for _ in range(3):
            registry.fresh({0: 0.5, 1: 0.5})
        manager.checkpoint(catalog, registry)
        with open(_manifests(manager.path)[-1], "rb") as handle:
            manifest = decode_manifest(handle.read())
        assert len(manifest["registry"]["segments"]) == 1

        for _ in range(2):
            registry.fresh({0: 0.25, 1: 0.75})
        manager.checkpoint(catalog, registry)
        with open(_manifests(manager.path)[-1], "rb") as handle:
            manifest = decode_manifest(handle.read())
        # Base segment re-linked, one delta appended.
        assert len(manifest["registry"]["segments"]) == 2
        manager.close()

        recovered_registry = VariableRegistry()
        again = DurabilityManager(manager.path)
        again.recover_into(Catalog(), recovered_registry)
        assert len(recovered_registry) == 5
        assert recovered_registry.distribution(5) == {0: 0.25, 1: 0.75}
        assert recovered_registry.fresh({0: 1.0}) == 6  # frontier restored
        again.close()

    def test_unregister_forces_full_registry_rewrite(self, tmp_path):
        manager = DurabilityManager(str(tmp_path / "db"))
        catalog = _build_catalog(tables=1)
        registry = VariableRegistry()
        first = registry.fresh({0: 0.5, 1: 0.5})
        manager.checkpoint(catalog, registry)
        registry.unregister(first)
        second = registry.fresh({0: 0.1, 1: 0.9})
        manager.checkpoint(catalog, registry)
        with open(_manifests(manager.path)[-1], "rb") as handle:
            manifest = decode_manifest(handle.read())
        assert len(manifest["registry"]["segments"]) == 1  # fresh base
        manager.close()

        recovered = VariableRegistry()
        again = DurabilityManager(manager.path)
        again.recover_into(Catalog(), recovered)
        assert len(recovered) == 1
        assert recovered.distribution(second) == {0: 0.1, 1: 0.9}
        again.close()


class TestEpochFallback:
    def _checkpoint_twice(self, path):
        manager = DurabilityManager(path)
        catalog = _build_catalog(tables=2)
        registry = VariableRegistry()
        wal = WriteAheadLog(sink=manager)
        manager.checkpoint(catalog, registry)
        txn = Transaction(catalog, wal)
        txn.insert("t0", (77, 7.5, "tail"))
        txn.commit()
        manager.checkpoint(catalog, registry)
        txn = Transaction(catalog, wal)
        txn.insert("t1", (88, 8.5, "after"))
        txn.commit()
        manager.close()
        return catalog

    def test_corrupt_newest_segment_falls_back_one_epoch(self, tmp_path):
        path = str(tmp_path / "db")
        live = self._checkpoint_twice(path)
        manifests = _manifests(path)
        assert len(manifests) == 2  # newest + fallback retained
        with open(manifests[-1], "rb") as handle:
            newest = decode_manifest(handle.read())
        with open(manifests[0], "rb") as handle:
            previous = decode_manifest(handle.read())
        unique = manifest_segment_names(newest) - manifest_segment_names(previous)
        victim = os.path.join(path, sorted(unique)[0])
        with open(victim, "r+b") as handle:
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0xFF]))

        recovered = Catalog()
        again = DurabilityManager(path)
        stats = again.recover_into(recovered, VariableRegistry())
        assert stats["fallbacks"] == 1
        # The WAL chain from the fallback epoch replays both tail commits.
        for name in ("t0", "t1"):
            assert sorted(recovered.table(name).rows()) == sorted(
                live.table(name).rows()
            )
        assert not os.path.exists(manifests[-1])  # corrupt manifest removed
        again.close()

    def test_fallback_survives_an_intermediate_restart(self, tmp_path):
        """Recovery's sweep must mirror the checkpoint retention: as long
        as the previous manifest is on disk, so is its WAL epoch --
        otherwise a later fallback would replay an incomplete chain and
        silently lose the commits between the two checkpoints."""
        path = str(tmp_path / "db")
        live = self._checkpoint_twice(path)
        # Restart once (recovery runs its own sweep), then crash again.
        intermediate = DurabilityManager(path)
        intermediate.recover_into(Catalog(), VariableRegistry())
        intermediate.close()

        manifests = _manifests(path)
        assert len(manifests) == 2  # predecessor still retained
        with open(manifests[-1], "rb") as handle:
            newest = decode_manifest(handle.read())
        with open(manifests[0], "rb") as handle:
            previous = decode_manifest(handle.read())
        # ...and so is the predecessor's WAL epoch (the chain link).
        prev_wal = os.path.join(
            path, f"wal.{int(previous['wal_epoch']):06d}.log"
        )
        assert os.path.exists(prev_wal)
        unique = manifest_segment_names(newest) - manifest_segment_names(previous)
        victim = os.path.join(path, sorted(unique)[0])
        with open(victim, "r+b") as handle:
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0xFF]))

        recovered = Catalog()
        again = DurabilityManager(path)
        stats = again.recover_into(recovered, VariableRegistry())
        assert stats["fallbacks"] == 1
        for name in ("t0", "t1"):
            assert sorted(recovered.table(name).rows()) == sorted(
                live.table(name).rows()
            )
        again.close()

    def test_torn_manifest_falls_back(self, tmp_path):
        path = str(tmp_path / "db")
        live = self._checkpoint_twice(path)
        newest = _manifests(path)[-1]
        with open(newest, "r+b") as handle:
            handle.truncate(os.path.getsize(newest) // 2)

        recovered = Catalog()
        again = DurabilityManager(path)
        stats = again.recover_into(recovered, VariableRegistry())
        assert stats["fallbacks"] == 1
        for name in ("t0", "t1"):
            assert sorted(recovered.table(name).rows()) == sorted(
                live.table(name).rows()
            )
        again.close()

    def test_all_epochs_corrupt_raises_not_empty(self, tmp_path):
        from repro.errors import RecoveryError

        path = str(tmp_path / "db")
        self._checkpoint_twice(path)
        for manifest in _manifests(path):
            with open(manifest, "r+b") as handle:
                handle.truncate(3)
        with pytest.raises(RecoveryError, match="corrupt"):
            DurabilityManager(path).recover_into(Catalog(), VariableRegistry())

    def test_crash_between_rotation_and_manifest(self, tmp_path):
        """prepare_checkpoint rotated the WAL but the process died before
        commit_checkpoint made the manifest durable: recovery falls back to
        the previous artifact and replays the whole epoch chain."""
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = _build_catalog(tables=2)
        registry = VariableRegistry()
        wal = WriteAheadLog(sink=manager)
        manager.checkpoint(catalog, registry)
        txn = Transaction(catalog, wal)
        txn.insert("t0", (77, 7.5, "tail"))
        txn.commit()
        capture = manager.prepare_checkpoint(catalog, registry)  # rotates
        # Crash: commit never runs.  Post-rotation commits land in the new
        # epoch's log and must survive too.
        txn = Transaction(catalog, wal)
        txn.insert("t1", (88, 8.5, "post-rotation"))
        txn.commit()
        del capture
        # A dead process holds no mutex: drop the two-phase handoff lock, or
        # the sanitizer sees this thread hold it through every later test.
        manager._checkpoint_lock.release()
        manager.close()

        recovered = Catalog()
        again = DurabilityManager(path)
        again.recover_into(recovered, VariableRegistry())
        for name in ("t0", "t1"):
            assert sorted(recovered.table(name).rows()) == sorted(
                catalog.table(name).rows()
            )
        again.close()


class TestFormat1Checkpoint:
    def test_json_checkpoint_refused_and_nothing_swept(self, tmp_path):
        """A directory whose only checkpoint is a format-1 checkpoint.json
        must not recover as "WAL tail over an empty catalog": that would
        silently lose everything the snapshot held."""
        path = str(tmp_path / "db")
        os.makedirs(path)
        snapshot = {
            "format": 1,
            "wal_epoch": 2,
            "registry": {"next_id": 1, "variables": []},
            "catalog": [{
                "name": "t", "kind": "standard", "properties": {},
                "columns": [["x", "INTEGER"]], "next_tid": 2,
                "rows": [[1, [1]]], "indexes": [],
            }],
        }
        with open(os.path.join(path, "checkpoint.json"), "w") as handle:
            json.dump({"crc": 0, "snapshot": snapshot}, handle)
        with open(os.path.join(path, "wal.000002.log"), "wb") as handle:
            handle.write(b"".join(
                encode_frame(r)
                for r in [("begin",), ("insert", "t", 2, [2]), ("commit",)]
            ))
        with open(os.path.join(path, "wal.000001.log"), "wb") as handle:
            handle.write(encode_frame(("begin",)))  # a stale older epoch
        before = {
            name: os.path.getsize(os.path.join(path, name))
            for name in os.listdir(path)
        }

        manager = DurabilityManager(path)
        catalog = Catalog()
        with pytest.raises(RecoveryError, match="checkpoint.json.*no longer"):
            manager.recover_into(catalog, VariableRegistry())
        manager.close()
        assert len(catalog) == 0
        after = {
            name: os.path.getsize(os.path.join(path, name))
            for name in os.listdir(path)
            if name != "LOCK"
        }
        assert after == before


class TestDurabilityCounters:
    def test_stats_exposes_checkpoint_and_recovery_counters(self, tmp_path):
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = _build_catalog(tables=3)
        manager.checkpoint(catalog, VariableRegistry())
        stats = manager.stats()
        assert stats["tables_snapshotted"] == 3
        assert stats["checkpoint_bytes"] > 0
        assert stats["checkpoint_ms"] >= 0
        assert stats["checkpoints_total"] == 1
        manager.close()

        again = DurabilityManager(path)
        again.recover_into(Catalog(), VariableRegistry())
        assert again.stats()["recovery_ms"] > 0
        again.close()


class TestFailpointInjection:
    """Deterministic failpoint-driven failure drills: the graceful
    degradation contract (ENOSPC checkpoints, WAL fsync exhaustion,
    group-commit batch failure) and recovery's epoch fallback under
    injected segment corruption -- all armed via :mod:`repro.faults`,
    no monkeypatching."""

    def _populated_store(self, tmp_path, **kwargs):
        from repro import MayBMS

        path = str(tmp_path / "db")
        db = MayBMS(path=path, checkpoint_every=0, **kwargs)
        db.execute("create table t (k integer, w float)")
        db.execute("insert into t values (1, 0.5), (2, 0.25), (3, 0.75)")
        db.checkpoint()
        db.execute("insert into t values (4, 1.0)")
        return path, db

    def test_enospc_checkpoint_degrades_store_readonly(self, tmp_path):
        from repro import MayBMS, faults
        from repro.errors import DegradedError

        path, db = self._populated_store(tmp_path)
        live = db.query("select k from t order by k").rows
        faults.arm("checkpoint.manifest.rename=enospc@1")
        with pytest.raises(DegradedError, match="degraded"):
            db.checkpoint()
        faults.disarm()

        # Reads keep answering from the live store; writes are refused.
        assert db.storage.degraded
        assert db.storage.stats()["degraded"] is True
        assert db.query("select k from t order by k").rows == live
        with pytest.raises(DegradedError):
            db.execute("insert into t values (5, 1.0)")
        # No partial checkpoint artifacts survive the failed commit.
        assert not glob.glob(os.path.join(path, "*.tmp"))
        db.close()

        # A reopen recovers everything acknowledged before the failure
        # (previous manifest + WAL chain) and clears the degradation.
        reopened = MayBMS(path=path)
        assert not reopened.storage.degraded
        assert reopened.query("select k from t order by k").rows == live
        reopened.execute("insert into t values (5, 1.0)")
        reopened.checkpoint()  # the next checkpoint completes normally
        reopened.close()

    def test_enospc_segment_write_keeps_previous_epoch(self, tmp_path):
        """ENOSPC while writing a *segment* (before the manifest exists):
        the cleanup removes the partial segment files, so recovery never
        sees a half-written epoch at all."""
        from repro import MayBMS, faults
        from repro.errors import DegradedError

        path, db = self._populated_store(tmp_path)
        live = db.query("select k from t order by k").rows
        manifests_before = _manifests(path)
        faults.arm("segment.write=enospc@1")
        with pytest.raises(DegradedError):
            db.checkpoint()
        faults.disarm()
        db.close()

        assert _manifests(path) == manifests_before
        reopened = MayBMS(path=path)
        assert reopened.query("select k from t order by k").rows == live
        reopened.close()

    def test_wal_retry_exhaustion_degrades(self, tmp_path, monkeypatch):
        from repro import MayBMS, faults
        from repro.errors import DegradedError

        monkeypatch.setenv("REPRO_WAL_RETRIES", "1")
        monkeypatch.setenv("REPRO_WAL_RETRY_BACKOFF", "0.001")
        path, db = self._populated_store(tmp_path)
        # Two attempts (first + one retry), both injected to fail.
        faults.arm("wal.fsync=error")
        with pytest.raises(DegradedError, match="WAL append"):
            db.execute("insert into t values (9, 1.0)")
        faults.disarm()
        assert db.storage.degraded
        assert db.storage.stats()["wal_retries"] == 0  # none succeeded
        db.close()

    def test_wal_retry_absorbs_single_injected_failure(
        self, tmp_path, monkeypatch
    ):
        from repro import MayBMS, faults

        monkeypatch.setenv("REPRO_WAL_RETRIES", "2")
        monkeypatch.setenv("REPRO_WAL_RETRY_BACKOFF", "0.001")
        path, db = self._populated_store(tmp_path)
        faults.arm("wal.fsync=error@1")
        db.execute("insert into t values (9, 1.0)")
        faults.disarm()
        assert not db.storage.degraded
        assert db.storage.stats()["wal_retries"] == 1
        db.close()

        reopened = MayBMS(path=path)
        assert reopened.query("select k from t where k = 9").rows == [(9,)]
        reopened.close()

    def test_corrupt_segment_read_during_recovery_falls_back(self, tmp_path):
        """An injected corrupt read of a newest-epoch segment must push
        recovery back one epoch, exactly like real on-disk bit rot."""
        from repro import faults

        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = _build_catalog(tables=2)
        registry = VariableRegistry()
        wal = WriteAheadLog(sink=manager)
        manager.checkpoint(catalog, registry)
        txn = Transaction(catalog, wal)
        txn.insert("t0", (77, 7.5, "tail"))
        txn.commit()
        manager.checkpoint(catalog, registry)
        manager.close()
        assert len(_manifests(path)) == 2

        faults.arm("segment.read=corrupt@1")
        recovered = Catalog()
        again = DurabilityManager(path)
        stats = again.recover_into(recovered, VariableRegistry())
        faults.disarm()
        assert stats["fallbacks"] == 1
        for name in ("t0", "t1"):
            assert sorted(recovered.table(name).rows()) == sorted(
                catalog.table(name).rows()
            )
        again.close()

    def test_truncated_segment_read_during_recovery_falls_back(self, tmp_path):
        from repro import faults

        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        catalog = _build_catalog(tables=1)
        registry = VariableRegistry()
        wal = WriteAheadLog(sink=manager)
        manager.checkpoint(catalog, registry)
        txn = Transaction(catalog, wal)
        txn.insert("t0", (77, 7.5, "tail"))
        txn.commit()
        manager.checkpoint(catalog, registry)
        manager.close()

        faults.arm("segment.read=truncate@1")
        recovered = Catalog()
        again = DurabilityManager(path)
        stats = again.recover_into(recovered, VariableRegistry())
        faults.disarm()
        assert stats["fallbacks"] == 1
        assert sorted(recovered.table("t0").rows()) == sorted(
            catalog.table("t0").rows()
        )
        again.close()

    def test_group_commit_failure_fails_every_queued_follower(
        self, tmp_path, monkeypatch
    ):
        """When the group-commit leader's write+fsync fails for good, the
        whole batch is rolled back: every enqueued session's append raises
        and not one byte of any unit reaches the WAL."""
        import threading

        from repro import faults
        from repro.errors import DegradedError, DurabilityError

        monkeypatch.setenv("REPRO_WAL_RETRIES", "0")
        path = str(tmp_path / "db")
        manager = DurabilityManager(path)
        manager.append([
            ("begin",),
            ("create_table", "t", [["x", "INTEGER"]], "standard", {}),
            ("commit",),
        ])
        good_size = os.path.getsize(manager.wal_path)

        faults.arm("wal.fsync=error")
        outcomes = []
        outcomes_mutex = threading.Lock()

        def writer(i):
            try:
                manager.append([
                    ("begin",), ("insert", "t", i, [i]), ("commit",),
                ])
                result = "ok"
            except (DegradedError, DurabilityError, OSError) as exc:
                result = type(exc).__name__
            with outcomes_mutex:
                outcomes.append(result)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        faults.disarm()

        assert len(outcomes) == 4
        assert "ok" not in outcomes, outcomes
        assert manager.degraded
        assert os.path.getsize(manager.wal_path) == good_size
        manager.close()

        # Recovery sees only the priming unit -- nothing from the batch.
        recovered = Catalog()
        DurabilityManager(path).recover_into(recovered, VariableRegistry())
        assert list(recovered.table("t").rows()) == []
