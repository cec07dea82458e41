"""Durable storage: an on-disk write-ahead log plus snapshot checkpoints.

Section 2.3 of the paper claims recovery "causes surprisingly little
difficulty" because U-relations are ordinary tables.  This module makes
the claim real for the pure-Python engine: committed logical operations
are appended to a checksummed on-disk log and fsynced per commit, and a
*checkpoint* atomically snapshots the whole catalog **including the
variable registry** (distributions, names, next-id -- without it a
recovered U-relation's condition columns would reference variables with
no distribution).  Crash recovery is snapshot-load + WAL-tail replay.

On-disk layout (one directory per database)::

    <path>/checkpoint.<epoch>.manifest  -- checkpoint manifest (format 2)
    <path>/seg-<hash>.seg               -- binary column segments, one per
                                           table (+ registry slices),
                                           content-addressed by SHA-256
    <path>/wal.<epoch>.log              -- redo records since a checkpoint

A format-1 ``checkpoint.json`` snapshot is no longer read: recovery
refuses a directory that holds one instead of replaying its WAL tail over
an empty catalog.

Checkpoints are **incremental**: a checkpoint writes segments only for
tables dirtied since the previous one (dirty tracking via the storage
layer's per-table version counters) and re-links unchanged segments by
content hash in the new manifest; the variable registry is snapshotted as
a base segment plus append-only deltas.  The previous manifest, its
segments, and its WAL epoch are retained until the *next* checkpoint, so
a torn or bit-rotten segment makes recovery fall back one epoch and
replay the WAL chain from there instead of failing.

Log format: each record is a frame ``[length:4][crc32:4][payload]`` with
a big-endian header and a JSON payload.  The reader stops at the first
torn or corrupt frame (a crash mid-write truncates the tail), and commit
units are atomic: records after the last ``commit`` marker are dropped.

Checkpoint rotation: a checkpoint names the *next* WAL epoch and rotates
to it *first* (under the caller's store gate, so the exclusive stall is
the capture only -- O(dirty set), not O(database)); segments and the
manifest are encoded, written, and fsynced outside the gate.  A crash at
any point recovers either the new manifest + its WAL or the previous
manifest + the full WAL chain between the two epochs -- never a
double-applied mixture.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import struct
import threading
import time
import weakref
import zlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX platform: single-writer check unavailable
    fcntl = None

from repro import faults as _faults
from repro.engine import sanitizer as _sanitizer
from repro.engine import segments as segment_codec
from repro.engine.catalog import KIND_URELATION, Catalog
from repro.errors import DegradedError, DurabilityError, RecoveryError

LOCK_NAME = "LOCK"
#: A failed WAL append is retried this many times before the store
#: degrades to read-only; the n-th retry first sleeps
#: ``WAL_RETRY_BACKOFF * 2**(n-1)`` seconds.
WAL_RETRIES = 2
WAL_RETRY_BACKOFF = 0.02
MANIFEST_FORMAT = 2

_HEADER = struct.Struct(">II")  # (payload length, crc32 of payload)
_MANIFEST_RE = re.compile(r"^checkpoint\.(\d{6,})\.manifest$")


@contextlib.contextmanager
def _condition_released(cond: "threading.Condition") -> Iterator[None]:
    """Scoped inversion of ``with cond``: release the held condition lock for
    the duration of the block and re-acquire it on every exit path."""
    cond.release()
    try:
        yield
    finally:
        cond.acquire()  # reprolint: disable=R001 -- re-acquire half of the scoped-release pair; the enclosing 'with cond' owns the release


# -- record framing ------------------------------------------------------------


def encode_frame(record: Sequence[Any]) -> bytes:
    """Serialize one logical record as a length-prefixed, checksummed frame."""
    payload = json.dumps(list(record), separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def iter_frames(data: bytes):
    """Yield ``(record, end_offset)`` for each well-formed frame.

    Stops at the first torn (short) or corrupt (checksum-mismatched /
    unparsable) frame, which is exactly the crash-truncation semantics --
    everything before the bad frame was durably written, everything from
    it on is discarded.
    """
    position = 0
    total = len(data)
    while position + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, position)
        start = position + _HEADER.size
        end = start + length
        if end > total:
            return  # torn tail: frame body missing
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return  # corrupt frame
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return
        if not isinstance(decoded, list) or not decoded:
            return
        yield tuple(decoded), end
        position = end


def scan_frames(data: bytes) -> Tuple[List[Tuple[Any, ...]], int]:
    """Decode frames from raw log bytes; returns ``(records, valid_bytes)``."""
    records: List[Tuple[Any, ...]] = []
    valid = 0
    for record, end in iter_frames(data):
        records.append(record)
        valid = end
    return records, valid


def scan_committed(data: bytes) -> Tuple[List[Tuple[Any, ...]], int]:
    """Records of complete commit units, plus the byte length of that
    prefix -- the length the log file must be truncated to before a
    recovered session appends new commits (appending after garbage would
    make every later commit unreadable at the next recovery)."""
    records: List[Tuple[Any, ...]] = []
    committed_count = 0
    committed_bytes = 0
    for record, end in iter_frames(data):
        records.append(record)
        if record and record[0] == "commit":
            committed_count = len(records)
            committed_bytes = end
    return records[:committed_count], committed_bytes


def count_commit_markers(records: Sequence[Sequence[Any]]) -> int:
    """Commit units: the auto-checkpoint cadence and the denominator of
    fsyncs-per-commit."""
    return sum(1 for record in records if record and record[0] == "commit")


def check_condition_layout(
    name: str, columns: Sequence[Any], kind: str, properties: Dict[str, Any]
) -> None:
    """Refuse a stored U-relation whose width is not its payload plus one
    (variable, value) column pair per condition: a store written when each
    condition also carried a probability column, which this version does
    not read (nor convert)."""
    if kind != KIND_URELATION:
        return
    payload = int(properties.get("payload_arity", 0))
    conditions = int(properties.get("cond_arity", 0))
    if len(columns) != payload + 2 * conditions:
        raise RecoveryError(
            f"table {name!r} has {len(columns)} columns for {payload} payload "
            f"columns and {conditions} condition(s): the old U-relation "
            "layout with a probability column per condition, which this "
            "version does not read; cannot recover"
        )


# -- manifest (format 2) serialization -----------------------------------------


def manifest_name(epoch: int) -> str:
    return f"checkpoint.{epoch:06d}.manifest"


def encode_manifest(
    wal_epoch: int,
    tables: Sequence[Sequence[str]],
    registry_segments: Sequence[str],
    registry_next_id: int,
) -> bytes:
    manifest = {
        "format": MANIFEST_FORMAT,
        "wal_epoch": int(wal_epoch),
        "tables": [[name, segment] for name, segment in tables],
        "registry": {
            "segments": list(registry_segments),
            "next_id": int(registry_next_id),
        },
    }
    body = json.dumps(manifest, separators=(",", ":"), sort_keys=True)
    document = {
        "crc": zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF,
        "manifest": manifest,
    }
    return json.dumps(document, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_manifest(data: bytes) -> Dict[str, Any]:
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise RecoveryError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(document, dict) or "manifest" not in document:
        raise RecoveryError("manifest document missing 'manifest'")
    manifest = document["manifest"]
    body = json.dumps(manifest, separators=(",", ":"), sort_keys=True)
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != document.get("crc"):
        raise RecoveryError("manifest checksum mismatch (corrupt manifest)")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise RecoveryError(f"unsupported manifest format {manifest.get('format')!r}")
    return manifest


def manifest_segment_names(manifest: Dict[str, Any]) -> Set[str]:
    names = {segment for _, segment in manifest.get("tables", [])}
    names.update(manifest.get("registry", {}).get("segments", []))
    return names


class _CheckpointCapture:
    """Everything a checkpoint needs, grabbed under the store gate.

    Only immutable snapshots and already-copied metadata live here, so
    the encode + write + fsync work happens entirely outside the gate.
    """

    __slots__ = (
        "epoch",
        "started",
        "table_jobs",
        "reused",
        "registry_mode",
        "registry_state",
        "registry_segments",
        "registry_stamp",
    )


class DurabilityManager:
    """Owns one database directory: the WAL file handle and checkpoints.

    Acts as the :class:`~repro.engine.transactions.WriteAheadLog` sink
    (:meth:`append` writes + fsyncs a batch of records) and performs
    recovery and checkpoint rotation for the session facade.

    Concurrent :meth:`append` calls coalesce (group commit): each caller
    encodes its frames, enqueues them, and waits; one caller at a time
    becomes the *leader*, drains the whole queue, and performs a single
    write + fsync for every queued commit.  Under concurrent load this
    amortizes the per-commit fsync (the dominant commit cost) across the
    batch; a single committer gets exactly one write + one fsync per
    commit.  Every commit still blocks until its own bytes are durable,
    so crash semantics are unchanged.  :attr:`fsync_count` /
    :attr:`commit_count` expose the amortization (fsyncs-per-commit) to
    benchmarks.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise DurabilityError(f"cannot create database directory {path!r}: {exc}")
        self._epoch = 1
        self._wal_handle: Optional[Any] = None
        #: Read-only degraded mode: set after an unrecoverable write
        #: failure (ENOSPC mid-checkpoint, WAL appends failing past the
        #: bounded retry).  Reads keep working; writes and checkpoints
        #: raise :class:`DegradedError` until the store is reopened.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        #: WAL append attempts beyond the first that eventually succeeded
        #: (transient-failure absorption by the retry-with-backoff).
        self.wal_retries = 0
        #: Commit units appended since the last checkpoint (drives the
        #: session's periodic auto-checkpoint).
        self.commits_since_checkpoint = 0
        self._closed = False
        self._lock_handle: Optional[Any] = None
        #: Total fsyncs of WAL data and total commit markers durably
        #: appended -- fsync_count < commit_count means group commit
        #: actually batched under the observed load.
        self.fsync_count = 0
        self.commit_count = 0
        #: Durability counters for the last checkpoint / recovery on this
        #: manager (surfaced through ``stats()`` and the server protocol).
        self.checkpoint_ms = 0.0
        self.checkpoint_bytes = 0
        self.tables_snapshotted = 0
        self.segments_reused = 0
        self.checkpoints_total = 0
        self.recovery_ms = 0.0
        # Incremental-checkpoint state: which segment file captured each
        # table at which version (weakref guards against a dropped and
        # recreated table aliasing the name), the registry snapshot record
        # (version, next_id frontier, segment chain), and the current +
        # previous checkpoint artifacts retained for epoch fallback.
        self._segment_map: Dict[str, Tuple[Any, int, str]] = {}
        self._registry_record: Optional[Tuple[int, int, List[str]]] = None
        self._current_artifact: Optional[Tuple[int, Set[str]]] = None
        #: Segment files physically written by the in-flight checkpoint
        #: commit (guarded by the checkpoint lock); removed wholesale if
        #: the commit fails so no partial epoch lingers on disk.
        self._commit_written: List[str] = []
        self._checkpoint_lock = _sanitizer.wrap_lock(
            "DurabilityManager._checkpoint_lock"
        )
        # Group-commit state: a queue of (ticket, frames, commit_markers)
        # entries protected by a condition variable, plus the id of the
        # highest ticket made durable and the failures to report to
        # individual waiters.
        self._gc_cond = _sanitizer.wrap_condition("DurabilityManager._gc_cond")
        self._gc_queue: List[Tuple[int, bytes, int]] = []
        self._gc_ticket = 0
        self._gc_durable = 0
        #: Highest ticket handed to a leader -- tickets at or below it are
        #: in flight and WILL resolve (the leader always completes), so a
        #: concurrent close() must not make their waiters report failure
        #: for a commit that hits the disk.
        self._gc_inflight_top = 0
        self._gc_leader_running = False
        self._gc_failures: Dict[int, BaseException] = {}
        #: Serializes physical WAL writes with checkpoint rotation.
        self._file_mutex = _sanitizer.wrap_lock(
            "DurabilityManager._file_mutex", threading.RLock()
        )
        self._acquire_directory_lock()

    def _acquire_directory_lock(self) -> None:
        """Single-writer exclusion: two live sessions appending to one WAL
        would interleave commit units from different catalogs, and either
        one's checkpoint would delete the log the other is writing.  The
        flock is released automatically if the process dies (so a crashed
        session never wedges the database)."""
        if fcntl is None:
            return
        handle = open(os.path.join(self.path, LOCK_NAME), "a+b")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise DurabilityError(
                f"database directory {self.path!r} is locked by another "
                "live MayBMS session; close it first"
            ) from None
        self._lock_handle = handle

    # -- paths ------------------------------------------------------------
    def _wal_path(self, epoch: int) -> str:
        return os.path.join(self.path, f"wal.{epoch:06d}.log")

    @property
    def wal_path(self) -> str:
        return self._wal_path(self._epoch)

    def manifest_path(self, epoch: int) -> str:
        return os.path.join(self.path, manifest_name(epoch))

    def _list_manifests(self) -> List[Tuple[int, str]]:
        """``(epoch, path)`` of every on-disk manifest, newest first."""
        found: List[Tuple[int, str]] = []
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        for name in names:
            match = _MANIFEST_RE.match(name)
            if match:
                found.append((int(match.group(1)), os.path.join(self.path, name)))
        found.sort(reverse=True)
        return found

    def _list_wal_epochs(self) -> List[int]:
        epochs: List[int] = []
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        for name in names:
            if name.startswith("wal.") and name.endswith(".log"):
                try:
                    epochs.append(int(name[4:-4]))
                except ValueError:
                    continue
        epochs.sort()
        return epochs

    # -- counters -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Durability counters for benchmarks and the server wire protocol."""
        return {
            "wal_epoch": self._epoch,
            "checkpoint_ms": round(self.checkpoint_ms, 3),
            "checkpoint_bytes": self.checkpoint_bytes,
            "tables_snapshotted": self.tables_snapshotted,
            "segments_reused": self.segments_reused,
            "checkpoints_total": self.checkpoints_total,
            "recovery_ms": round(self.recovery_ms, 3),
            "commits_since_checkpoint": self.commits_since_checkpoint,
            "fsync_count": self.fsync_count,
            "commit_count": self.commit_count,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "wal_retries": self.wal_retries,
        }

    # -- degraded mode -------------------------------------------------------
    def degrade(self, reason: str) -> None:
        """Flip the store into read-only degraded mode.

        Called after a write failure that cannot be retried away.  The
        on-disk state stays recoverable (the previous checkpoint plus
        the WAL chain cover everything acknowledged); only *new* writes
        are refused, so reads and analytics keep serving."""
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = reason

    def _require_writable(self) -> None:
        if self.degraded:
            raise DegradedError(
                f"durable store is in read-only degraded mode: "
                f"{self.degraded_reason}"
            )

    # -- recovery ----------------------------------------------------------
    def recover_into(self, catalog: Catalog, registry: Any) -> Dict[str, Any]:
        """Load the latest valid checkpoint and replay the WAL chain.

        Tries checkpoint manifests newest-first: a torn or corrupt segment
        (or manifest) falls back to the previous epoch, whose WAL is still
        retained, so no committed data is lost.  Raises
        :class:`RecoveryError`, deleting nothing, when no manifest loads
        but the directory holds checkpointed data it cannot read (corrupt
        manifests, or a format-1 ``checkpoint.json``), or when a checkpoint
        or the WAL holds a U-relation in the old layout (see
        :func:`check_condition_layout`).  Returns counters
        (``checkpoint_tables``, ``replayed_records``, ``fallbacks``,
        ``checkpoint_format``) for diagnostics.  The catalog and registry
        must be empty/fresh.
        """
        from repro.engine.transactions import replay_records

        started = time.perf_counter()
        stats: Dict[str, Any] = {
            "checkpoint_tables": 0,
            "replayed_records": 0,
            "fallbacks": 0,
            "checkpoint_format": "none",
        }
        base_epoch = 1
        loaded_tables: Dict[str, Tuple[Any, int, str]] = {}
        bad_manifests: List[str] = []
        chosen: Optional[Tuple[int, Dict[str, Any], List[Dict[str, Any]], List[Tuple[str, bytes]]]] = None
        for epoch, path in self._list_manifests():
            try:
                _faults.failpoint("recovery.manifest.read")
                with open(path, "rb") as handle:
                    manifest = decode_manifest(handle.read())
                table_segments: List[Dict[str, Any]] = []
                registry_states: List[Tuple[str, bytes]] = []
                for name, segment in manifest.get("tables", []):
                    table_segments.append(
                        segment_codec.decode_table_segment(self._read_segment(segment))
                    )
                    table_segments[-1]["segment"] = segment
                for segment in manifest.get("registry", {}).get("segments", []):
                    registry_states.append((segment, self._read_segment(segment)))
                chosen = (epoch, manifest, table_segments, registry_states)
                break
            except (RecoveryError, OSError):
                # Torn/corrupt manifest or segment: fall back one epoch.
                # Nothing has been applied yet (decode-everything-first),
                # so the older checkpoint loads into a pristine catalog.
                stats["fallbacks"] += 1
                bad_manifests.append(path)
                continue
        if chosen is not None:
            epoch, manifest, table_segments, registry_states = chosen
            for segment, data in registry_states:
                registry.restore_state(segment_codec.decode_registry_segment(data))
            for decoded in table_segments:
                entry = catalog.restore_table_from_segment(decoded)
                loaded_tables[decoded["table"].lower()] = (
                    weakref.ref(entry.table),
                    entry.table.version,
                    decoded["segment"],
                )
            base_epoch = int(manifest["wal_epoch"])
            registry_stamp = registry.mutation_stamp()
            self._registry_record = (
                registry_stamp[0],
                int(manifest.get("registry", {}).get("next_id", registry_stamp[2])),
                list(manifest.get("registry", {}).get("segments", [])),
            )
            self._current_artifact = (base_epoch, manifest_segment_names(manifest))
            stats["checkpoint_tables"] = len(table_segments)
            stats["checkpoint_format"] = "columnar"
        else:
            # No loadable checkpoint, yet checkpointed data on disk:
            # replaying the WAL chain over an empty catalog would silently
            # drop it, so refuse before anything is swept.
            legacy = os.path.join(self.path, "checkpoint.json")
            if os.path.exists(legacy):
                raise RecoveryError(
                    f"{legacy!r} is a format-1 JSON checkpoint, a format "
                    "this version no longer reads; cannot recover"
                )
            if bad_manifests:
                raise RecoveryError(
                    f"all {len(bad_manifests)} checkpoint manifest(s) in "
                    f"{self.path!r} are corrupt; cannot recover"
                )
        # Read the committed WAL chain from the checkpoint's epoch up to
        # the newest log present (more than one epoch exists after a crash
        # between rotation and the manifest becoming durable, or after an
        # epoch fallback), and refuse a store in the old U-relation layout
        # before any file is swept or truncated.
        wal_epochs = [e for e in self._list_wal_epochs() if e >= base_epoch]
        logs: List[Tuple[int, str, int, List[Tuple[Any, ...]], int]] = []
        for epoch in wal_epochs:
            wal_file = self._wal_path(epoch)
            try:
                with open(wal_file, "rb") as handle:
                    raw = handle.read()
            except OSError:
                continue
            records, committed_bytes = scan_committed(raw)
            logs.append((epoch, wal_file, len(raw), records, committed_bytes))
        for decoded in chosen[2] if chosen is not None else []:
            check_condition_layout(
                decoded["table"], decoded["columns"],
                decoded["table_kind"], decoded["properties"],
            )
        for _, _, _, records, _ in logs:
            for record in records:
                if record[0] == "create_table":
                    check_condition_layout(*record[1:5])
        for path in bad_manifests:
            try:
                os.remove(path)
            except OSError:
                pass
        # Retention mirror of the checkpoint sweep: keep the chosen
        # manifest plus its immediate predecessor AND every WAL epoch back
        # to that predecessor, so one more level of epoch fallback
        # survives future restarts (sweeping the WAL while leaving the old
        # manifest on disk would turn a later fallback into silent data
        # loss).  Manifests older than the retained pair are dropped.
        wal_floor = base_epoch
        if chosen is not None:
            surviving = [e for e, _ in self._list_manifests()]
            older = [e for e in surviving if e < base_epoch]
            keep = {base_epoch}
            if older:
                keep.add(max(older))
                wal_floor = max(older)
            for epoch in surviving:
                if epoch not in keep:
                    try:
                        os.remove(self.manifest_path(epoch))
                    except OSError:
                        pass
        self._sweep_stale_wal_files(wal_floor)
        self._sweep_orphan_files(chosen[1] if chosen is not None else None)
        # Replay the chain.  Only the newest log -- the one this session
        # appends to -- gets its torn/uncommitted tail physically
        # truncated; older epochs are finalized and read-only.
        replayed: List[Tuple[Any, ...]] = []
        self._epoch = max([base_epoch] + wal_epochs)
        for epoch, wal_file, size, records, committed_bytes in logs:
            if epoch == self._epoch and committed_bytes < size:
                # Truncate garbage before this session appends: new commits
                # written after a bad frame would be unreadable at the next
                # recovery, and a valid-but-uncommitted tail would get
                # resurrected by a later commit marker.
                with open(wal_file, "r+b") as handle:
                    handle.truncate(committed_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            replay_records(records, catalog, registry)
            replayed.extend(records)
        # Seed the auto-checkpoint counter with the replayed chain: a
        # crash-looping workload that never reaches checkpoint_every fresh
        # commits per life would otherwise grow the WAL without bound.
        self.commits_since_checkpoint = count_commit_markers(replayed)
        stats["replayed_records"] = len(replayed)
        # Tables whose contents came purely from their segment (untouched
        # by WAL replay) are clean: the next checkpoint re-links them.
        self._segment_map = {
            key: (ref, version, segment)
            for key, (ref, version, segment) in loaded_tables.items()
            if ref() is not None and ref().version == version
        }
        if replayed and self._registry_record is not None:
            # WAL replay may have restored variables; re-stamp so a purely
            # replay-appended registry still qualifies for delta snapshots.
            stamp = registry.mutation_stamp()
            if stamp[1] > self._registry_record[0]:
                self._registry_record = None  # non-append replay: full rewrite
        self.recovery_ms = (time.perf_counter() - started) * 1e3
        stats["recovery_ms"] = round(self.recovery_ms, 3)
        return stats

    def _read_segment(self, name: str) -> bytes:
        if os.sep in name or name.startswith("."):
            raise RecoveryError(f"illegal segment name {name!r}")
        with open(os.path.join(self.path, name), "rb") as handle:
            data = handle.read()
        directive = _faults.failpoint("segment.read")
        if directive == "corrupt" and data:
            # Bit-rot simulation: flip the low bit of the last byte; the
            # segment checksum must catch it and recovery must fall back.
            data = data[:-1] + bytes([data[-1] ^ 0x01])
        elif directive in ("truncate", "short") and data:
            data = data[: len(data) // 2]
        return data

    def _sweep_stale_wal_files(self, floor: int) -> None:
        """Delete logs from epochs before ``floor`` (the oldest epoch any
        retained checkpoint artifact can replay from).  Normally the
        checkpoint sweep handles this, but a crash between the manifest
        rename and the sweep orphans superseded logs forever."""
        for epoch in self._list_wal_epochs():
            if epoch < floor:
                try:
                    os.remove(self._wal_path(epoch))
                except OSError:
                    pass

    def _sweep_orphan_files(self, chosen: Optional[Dict[str, Any]]) -> None:
        """Remove segments referenced by no retained manifest, plus stray
        ``*.tmp`` files -- the debris a crash mid-checkpoint leaves behind
        (segments written but never committed by a manifest rename).
        Conservative: if any retained manifest fails to decode, the sweep
        is skipped entirely rather than risk deleting a referenced file."""
        referenced: Set[str] = set()
        if chosen is not None:
            referenced |= manifest_segment_names(chosen)
        for _, path in self._list_manifests():
            try:
                with open(path, "rb") as handle:
                    referenced |= manifest_segment_names(
                        decode_manifest(handle.read())
                    )
            except (RecoveryError, OSError):
                return
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        for name in names:
            is_orphan_segment = (
                name.startswith("seg-")
                and name.endswith(segment_codec.SEGMENT_SUFFIX)
                and name not in referenced
            )
            if is_orphan_segment or name.endswith(".tmp"):
                try:
                    os.remove(os.path.join(self.path, name))
                except OSError:
                    pass

    # -- the WAL sink -------------------------------------------------------
    def append(self, records: Sequence[Sequence[Any]]) -> None:
        """Durably append a batch of records.

        Enqueues the encoded frames and waits until a leader has fsynced
        them (possibly together with other sessions' commits).  Returns
        only once the records are durable, and raises if they never
        became durable.
        """
        self._require_open()
        if not records:
            return
        buffer = b"".join(encode_frame(record) for record in records)
        commit_markers = count_commit_markers(records)
        cond = self._gc_cond
        with cond:
            self._gc_ticket += 1
            ticket = self._gc_ticket
            self._gc_queue.append((ticket, buffer, commit_markers))
            while self._gc_durable < ticket:
                if self._closed and ticket > self._gc_inflight_top:
                    # Our frames were dropped from the queue (or will never
                    # be picked up): this commit is definitively not
                    # durable.  In-flight tickets keep waiting -- their
                    # leader is mid-write and always completes.
                    self._gc_failures.pop(ticket, None)
                    raise DurabilityError("durable storage is closed")
                if self._gc_leader_running or not self._gc_queue:
                    cond.wait()
                    continue
                if self._closed:
                    # In flight with a live leader: wait for its notify.
                    cond.wait()
                    continue
                # Become the leader: drain the queue and flush it as one
                # write + fsync, outside the condition lock so later
                # commits can keep enqueueing for the next batch.
                self._gc_leader_running = True
                batch, self._gc_queue = self._gc_queue, []
                self._gc_inflight_top = batch[-1][0]
                error: Optional[BaseException] = None
                with _condition_released(cond):
                    try:
                        self._append_with_retry(
                            b"".join(chunk for _, chunk, _ in batch)
                        )
                    except BaseException as exc:
                        # Distributed below to EVERY ticket in the batch:
                        # a failed leader write rolls back all queued
                        # followers, not just the leader's own commit.
                        error = exc
                self._gc_leader_running = False
                top = batch[-1][0]
                if error is None:
                    committed = sum(markers for _, _, markers in batch)
                    self.commits_since_checkpoint += committed
                    self.commit_count += committed
                else:
                    for waiter_ticket, _, _ in batch:
                        self._gc_failures[waiter_ticket] = error
                self._gc_durable = max(self._gc_durable, top)
                cond.notify_all()
            failure = self._gc_failures.pop(ticket, None)
        if failure is not None:
            raise failure

    def _append_with_retry(self, buffer: bytes) -> None:
        """Write + fsync under the file mutex, absorbing transient I/O
        failures with bounded exponential backoff (:data:`WAL_RETRIES`
        retries, :data:`WAL_RETRY_BACKOFF` seconds doubling); each failed
        attempt has already been truncated away by :meth:`_write_durably`,
        so a retry is a clean re-append.  The backoff sleeps outside the mutex.  When the budget
        is spent the store degrades to read-only."""
        attempts = WAL_RETRIES + 1
        last: Optional[OSError] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(WAL_RETRY_BACKOFF * (2 ** (attempt - 1)))
            try:
                with self._file_mutex:
                    self._require_open()
                    self._require_writable()
                    self._write_durably(buffer)
                if attempt:
                    self.wal_retries += attempt
                return
            except OSError as exc:
                last = exc
        self.degrade(f"WAL append failed {attempts} times: {last}")
        raise DegradedError(
            f"durable store degraded to read-only after {attempts} failed "
            f"WAL appends: {last}"
        ) from last

    def _write_durably(self, buffer: bytes) -> None:
        """Append ``buffer`` to the WAL file and fsync it (caller holds the
        file mutex)."""
        _sanitizer.guard_blocking("fsync")
        handle = self._ensure_wal_handle()
        start = handle.tell()
        try:
            directive = _faults.failpoint("wal.write")
            if directive == "torn":
                # Simulate a torn append: half the buffer reaches the file
                # before the write "fails".  Recovery must drop the torn
                # frame; the repair path below truncates it for retries.
                handle.write(buffer[: len(buffer) // 2])
                handle.flush()
                raise OSError(
                    errno.EIO, "injected torn write at failpoint 'wal.write'"
                )
            handle.write(buffer)
            handle.flush()
            _faults.failpoint("wal.fsync")
            os.fsync(handle.fileno())
        except BaseException:
            # The caller treats this commit as failed and rolls back, so any
            # frames that did reach the file must not linger: a later
            # successful commit would fsync right after them, making the
            # rolled-back transaction durable (its commit marker is in the
            # batch).  Truncate back; if even that fails, poison the
            # manager so no further append can legitimize the tail.
            self._repair_failed_append(start)
            raise
        self.fsync_count += 1

    def _repair_failed_append(self, start: int) -> None:
        broken = self._wal_handle
        self._wal_handle = None
        try:
            if broken is not None:
                try:
                    broken.close()  # may flush stray buffered bytes...
                except OSError:
                    pass
            with open(self.wal_path, "r+b") as fix:
                fix.truncate(start)  # ...which this truncation removes
                fix.flush()
                os.fsync(fix.fileno())
        except OSError:
            self._closed = True

    def _ensure_wal_handle(self):
        if self._wal_handle is None:
            _faults.failpoint("wal.open")
            creating = not os.path.exists(self.wal_path)
            self._wal_handle = open(self.wal_path, "ab")
            if creating:
                # The file's *directory entry* must be durable too, or a
                # power loss can drop the whole log despite per-commit
                # fsyncs of the file itself.
                self._fsync_directory()
        return self._wal_handle

    # -- checkpointing -------------------------------------------------------
    def checkpoint(self, catalog: Catalog, registry: Any) -> str:
        """Write a checkpoint and rotate to a fresh WAL epoch.

        Single-phase convenience wrapper: callers that serialize writers
        themselves (the session facade) should instead run
        :meth:`prepare_checkpoint` under the store gate and
        :meth:`commit_checkpoint` after releasing it, so concurrent
        writers stall only for the O(dirty set) capture.
        """
        capture = self.prepare_checkpoint(catalog, registry)
        return self.commit_checkpoint(capture)

    def prepare_checkpoint(
        self, catalog: Catalog, registry: Any, timeout: Optional[float] = None
    ) -> _CheckpointCapture:
        """Phase 1 (caller holds the store gate): rotate the WAL to the next
        epoch and capture immutable snapshots of every *dirtied* table plus
        the registry delta.  Clean tables -- same Table object at the same
        version as the previous checkpoint -- are re-linked by reference.

        Raises :class:`DurabilityError` if another checkpoint is mid-write
        past ``timeout`` seconds.  On success the caller MUST invoke
        :meth:`commit_checkpoint`, which also releases the internal
        checkpoint mutex.
        """
        self._require_open()
        self._require_writable()
        if not self._checkpoint_lock.acquire(  # reprolint: disable=R001 -- two-phase handoff by design: commit_checkpoint()/abort path releases in its finally; callers are contractually bound to call it
            timeout=30.0 if timeout is None else max(timeout, 0.001)
        ):
            raise DurabilityError("another checkpoint is already in progress")
        try:
            self._require_open()
            self._require_writable()
            _faults.failpoint("checkpoint.prepare")
            capture = _CheckpointCapture()
            capture.started = time.perf_counter()
            with self._file_mutex:
                _faults.failpoint("wal.rotate")
                if self._wal_handle is not None:
                    self._wal_handle.close()
                    self._wal_handle = None
                capture.epoch = self._epoch + 1
                self._epoch = capture.epoch
                self.commits_since_checkpoint = 0
            capture.table_jobs = []
            capture.reused = []
            for entry in catalog.entries():
                table = entry.table
                key = table.name.lower()
                record = self._segment_map.get(key)
                if record is not None:
                    ref, version, segment = record
                    if ref() is table and version == table.version:
                        capture.reused.append((table.name, segment, ref, version))
                        continue
                dump = table.dump_columns()
                capture.table_jobs.append(
                    {
                        "name": table.name,
                        "kind": entry.kind,
                        "properties": dict(entry.properties),
                        "columns_meta": [
                            (c.name, c.type.name) for c in table.schema
                        ],
                        "snapshot": dump["snapshot"],
                        "tids": dump["tids"],
                        "next_tid": dump["next_tid"],
                        "ref": weakref.ref(table),
                        "version": table.version,
                    }
                )
            # Registry: reuse the recorded segment chain when untouched,
            # append a delta of variables past the recorded frontier when
            # every mutation since was an append (the repair-key common
            # case), and rewrite from scratch otherwise.
            stamp = registry.mutation_stamp()
            record = self._registry_record
            if record is not None and stamp[0] == record[0]:
                capture.registry_mode = "reuse"
                capture.registry_state = None
                capture.registry_segments = list(record[2])
                capture.registry_stamp = (record[0], record[1])
            elif record is not None and stamp[1] <= record[0]:
                capture.registry_mode = "delta"
                capture.registry_state = registry.dump_state(min_id=record[1])
                capture.registry_segments = list(record[2])
                capture.registry_stamp = (stamp[0], stamp[2])
            else:
                capture.registry_mode = "full"
                capture.registry_state = registry.dump_state()
                capture.registry_segments = []
                capture.registry_stamp = (stamp[0], stamp[2])
            return capture
        except BaseException:
            self._checkpoint_lock.release()
            raise

    def commit_checkpoint(self, capture: _CheckpointCapture) -> str:
        """Phase 2 (store gate released): encode and durably write the new
        segments and the manifest, then sweep artifacts older than the
        previous epoch.  Returns the manifest path.

        An I/O failure here (ENOSPC is the canonical case) removes the
        partially written artifacts and flips the store into read-only
        degraded mode: the previous manifest and the full WAL chain stay
        on disk, so everything acknowledged remains recoverable."""
        try:
            self._commit_written = []
            _faults.failpoint("checkpoint.prepared")
            return self._commit_columnar_checkpoint(capture)
        except OSError as exc:
            self._cleanup_failed_commit(capture)
            self.degrade(f"checkpoint commit failed: {exc}")
            raise DegradedError(
                f"checkpoint commit failed ({exc}); store degraded to "
                "read-only -- the previous checkpoint and WAL chain "
                "remain recoverable"
            ) from exc
        finally:
            self._checkpoint_lock.release()

    def _cleanup_failed_commit(self, capture: _CheckpointCapture) -> None:
        """Remove the partial artifacts of a failed commit, so the on-disk
        state is exactly the previous checkpoint plus the WAL chain."""
        target = self.manifest_path(capture.epoch)
        leftovers = list(self._commit_written)
        leftovers += [path + ".tmp" for path in self._commit_written]
        leftovers += [target, target + ".tmp"]
        for path in leftovers:
            try:
                os.remove(path)
            except OSError:
                pass
        self._commit_written = []

    def _commit_columnar_checkpoint(self, capture: _CheckpointCapture) -> str:
        self._require_open()
        written_bytes = 0
        reused = len(capture.reused)
        new_segment_map: Dict[str, Tuple[Any, int, str]] = {}
        table_entries: List[Tuple[str, str]] = []
        wrote_segment = False
        for name, segment, ref, version in capture.reused:
            table_entries.append((name, segment))
            new_segment_map[name.lower()] = (ref, version, segment)
        for job in capture.table_jobs:
            data = segment_codec.encode_table_segment(
                job["name"],
                job["kind"],
                job["properties"],
                job["columns_meta"],
                job["tids"],
                job["snapshot"].columns(),
                job["next_tid"],
            )
            segment = segment_codec.segment_name(data)
            if self._write_segment_file(segment, data):
                written_bytes += len(data)
                wrote_segment = True
            else:
                reused += 1  # content-hash re-link: identical bytes on disk
            table_entries.append((job["name"], segment))
            new_segment_map[job["name"].lower()] = (
                job["ref"], job["version"], segment
            )
        registry_segments = list(capture.registry_segments)
        if capture.registry_mode != "reuse":
            data = segment_codec.encode_registry_segment(capture.registry_state)
            segment = segment_codec.segment_name(data)
            if self._write_segment_file(segment, data):
                written_bytes += len(data)
                wrote_segment = True
            registry_segments.append(segment)
        if wrote_segment:
            self._fsync_directory()
        manifest_data = encode_manifest(
            capture.epoch,
            table_entries,
            registry_segments,
            capture.registry_stamp[1],
        )
        target = self.manifest_path(capture.epoch)
        with self._file_mutex:
            self._require_open()
            self._write_atomically(target, manifest_data, site="checkpoint.manifest")
        written_bytes += len(manifest_data)
        previous = self._current_artifact
        self._current_artifact = (
            capture.epoch,
            {segment for _, segment in table_entries} | set(registry_segments),
        )
        self._segment_map = new_segment_map
        self._registry_record = (
            capture.registry_stamp[0],
            capture.registry_stamp[1],
            registry_segments,
        )
        self._sweep_after_checkpoint(previous)
        self.checkpoint_ms = (time.perf_counter() - capture.started) * 1e3
        self.checkpoint_bytes = written_bytes
        self.tables_snapshotted = len(capture.table_jobs)
        self.segments_reused = reused
        self.checkpoints_total += 1
        return target

    def _write_segment_file(self, name: str, data: bytes) -> bool:
        """Write a content-addressed segment unless its bytes are already on
        disk; returns True when a new file was physically written."""
        target = os.path.join(self.path, name)
        if os.path.exists(target):
            return False
        self._commit_written.append(target)
        _faults.failpoint("segment.write")
        self._write_atomically(target, data, fsync_dir=False)
        return True

    def _write_atomically(
        self,
        target: str,
        data: bytes,
        fsync_dir: bool = True,
        site: Optional[str] = None,
    ) -> None:
        _sanitizer.guard_blocking("fsync")
        if site is not None:
            _faults.failpoint(f"{site}.write")
        tmp_path = target + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            if site is not None:
                _faults.failpoint("checkpoint.fsync")
            os.fsync(handle.fileno())
        if site is not None:
            _faults.failpoint(f"{site}.rename")
        os.replace(tmp_path, target)
        if fsync_dir:
            self._fsync_directory()

    def _sweep_after_checkpoint(
        self, previous: Optional[Tuple[int, Set[str]]]
    ) -> None:
        """Garbage-collect everything not needed by the new checkpoint or
        its immediate predecessor.  The predecessor manifest and every WAL
        epoch since it stay on disk until the *next* checkpoint: they are
        the fallback if the new checkpoint's segments turn out torn or
        corrupt at recovery."""
        assert self._current_artifact is not None
        epoch, referenced = self._current_artifact
        keep_manifest_epochs = {epoch}
        keep_segments = set(referenced)
        wal_floor = epoch
        if previous is not None:
            prev_epoch, prev_segments = previous
            wal_floor = min(wal_floor, prev_epoch)
            keep_manifest_epochs.add(prev_epoch)
            keep_segments |= prev_segments
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        # Two passes, superseded *manifests* first: if the sweep dies
        # midway, recovery must never find a manifest whose WAL chain has
        # already been partially deleted.
        for name in names:
            match = _MANIFEST_RE.match(name)
            if match and int(match.group(1)) not in keep_manifest_epochs:
                try:
                    os.remove(os.path.join(self.path, name))
                except OSError:
                    pass  # a stale artifact is harmless; the next sweep retries
        for name in names:
            path = os.path.join(self.path, name)
            try:
                if name.endswith(segment_codec.SEGMENT_SUFFIX) and name.startswith("seg-"):
                    if name not in keep_segments:
                        os.remove(path)
                elif name.endswith(".tmp"):
                    os.remove(path)
                elif name.startswith("wal.") and name.endswith(".log"):
                    try:
                        if int(name[4:-4]) < wal_floor:
                            os.remove(path)
                    except ValueError:
                        pass
            except OSError:
                pass

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- lifecycle ----------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise DurabilityError("durable storage is closed")

    def close(self) -> None:
        # Wake any group-commit waiters first: they must observe the close
        # and raise instead of sleeping forever on a leader that will never
        # run.  (An orderly shutdown quiesces sessions before closing, so
        # the queue is normally empty here.)
        with self._gc_cond:
            self._closed = True
            self._gc_queue.clear()
            self._gc_cond.notify_all()
        with self._file_mutex:
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None
            if self._lock_handle is not None:
                self._lock_handle.close()  # closing the fd releases the flock
                self._lock_handle = None
