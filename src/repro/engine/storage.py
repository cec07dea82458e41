"""Base table storage.

A :class:`Table` stores rows in a dict keyed by a stable tuple id, so
deletes and updates do not disturb other tuples' ids -- mirroring heap
tuple ids in PostgreSQL, which MayBMS relies on for the vertical
decomposition of attribute-level uncertainty ("an additional (system)
column is used for storing tuple ids", Section 2.1).

Type checking happens here, on insert, so relations flowing through query
plans do not pay per-row validation costs.

MVCC read snapshots: besides the latest-version snapshot cache, a table
retains a *chain* of versioned snapshots -- one entry per version some
in-flight read statement has **pinned** (:meth:`Table.pin_snapshot`).
The chain is bounded structurally: entries exist only while pinned, so
its length never exceeds the number of distinct versions concurrently
under read, and an unpinned non-current version is reclaimed eagerly on
the last :meth:`Table.unpin_snapshot`.  The :class:`SnapshotManager`
captures a transactionally consistent ``{table -> version}`` set across
all the tables one statement references (under one momentary shared
grant on exactly those tables, so the capture never splits a writer's
transaction), which is what lets read statements run without holding
table locks.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine import sanitizer as _sanitizer
from repro.engine.columnar import columns_to_rows
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.errors import StorageError


class Table:
    """A mutable base table with stable tuple ids."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._rows: Dict[int, tuple] = {}
        self._next_tid = 1
        # Snapshot cache: (version when built, base relation).  The version
        # counter bumps on every mutation, so unchanged tables hand out the
        # same immutable Relation on every read -- the zero-copy read path
        # the batch engine scans (its column view is cached on the
        # Relation itself).
        self._version = 0
        self._snapshot_cache: Optional[Tuple[int, Relation]] = None
        # MVCC version chain: version -> (relation, pin count).  Entries
        # exist only while some read statement holds a pin, so the chain
        # is bounded by the number of concurrently pinned versions;
        # unpinning the last reader of a non-current version reclaims it.
        self._pinned_versions: Dict[int, Tuple[Relation, int]] = {}
        self._pin_mutex = _sanitizer.wrap_lock("Table._pin_mutex")
        self._san = _sanitizer.get_sanitizer()

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every change.  Snapshot caches and the
        checkpoint dirty-table tracker key off it -- an unchanged version
        (on the same Table object) means bit-identical contents."""
        return self._version

    def tids(self) -> List[int]:
        return list(self._rows)

    def get(self, tid: int) -> tuple:
        try:
            return self._rows[tid]
        except KeyError:
            raise StorageError(f"table {self.name!r} has no tuple id {tid}") from None

    def rows(self) -> Iterator[tuple]:
        return iter(self._rows.values())

    def items(self) -> Iterator[Tuple[int, tuple]]:
        return iter(self._rows.items())

    def snapshot(self, alias: Optional[str] = None) -> Relation:
        """An immutable relation view of the current contents.

        Cached per table version: repeated reads of an unchanged table
        return the same Relation object (rows are already coerced tuples,
        so no per-row copying happens even on a cache miss).  Aliased
        snapshots share the cached row list and column view -- only the
        schema object differs.
        """
        with self._pin_mutex:
            base = self._current_snapshot()
        if alias:
            return base.with_schema(self.schema.with_qualifier(alias))
        return base

    def _current_snapshot(self) -> Relation:
        """Fill or reuse the snapshot cache.  Runs under ``_pin_mutex``: a
        capture's pin and a checkpoint's :meth:`dump_columns` may both
        arrive at an unfilled cache, and every reader of one version must
        get the same Relation object."""
        cached = self._snapshot_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        base = Relation.from_trusted_rows(self.schema, list(self._rows.values()))
        base.source = (self.name, self._version)
        self._snapshot_cache = (self._version, base)
        return base

    # -- MVCC pinning ---------------------------------------------------------
    def pin_snapshot(self) -> Tuple[int, Relation, bool]:
        """Pin the current version against reclamation.

        Returns ``(version, relation, fresh)`` where ``fresh`` says a new
        chain entry was created (False: an existing pin of the same
        version was reference-counted up, and the very same Relation
        object is returned -- which is what lets grouped-lineage caches
        and the parallel pool's payload cache be shared across statements
        pinned to the same version).  Callers must hold this table's lock
        (shared is enough) so no writer is mid-transaction on it; the pin
        mutex orders this against concurrent pins, :meth:`unpin_snapshot`
        calls from finishing readers, and a checkpoint filling the
        snapshot cache."""
        with self._pin_mutex:
            if self._san is not None:
                self._san.note_pin()
            version = self._version
            entry = self._pinned_versions.get(version)
            if entry is not None:
                relation, count = entry
                self._pinned_versions[version] = (relation, count + 1)
                return version, relation, False
            relation = self._current_snapshot()
            self._pinned_versions[version] = (relation, 1)
            return version, relation, True

    def unpin_snapshot(self, version: int) -> Tuple[bool, bool]:
        """Drop one pin on ``version``.

        Returns ``(dropped, reclaimed)``: ``dropped`` when the last pin
        went away and the chain entry was removed, ``reclaimed`` when
        that entry held a *non-current* version -- a genuinely old
        snapshot garbage-collected at statement end (the current
        version's relation also lives in the plain snapshot cache, so
        dropping its chain entry frees nothing)."""
        with self._pin_mutex:
            entry = self._pinned_versions.get(version)
            if entry is None:
                raise StorageError(
                    f"table {self.name!r} has no pinned snapshot at "
                    f"version {version}"
                )
            if self._san is not None:
                self._san.note_unpin()
            relation, count = entry
            if count > 1:
                self._pinned_versions[version] = (relation, count - 1)
                return False, False
            del self._pinned_versions[version]
            return True, version != self._version

    def pinned_version_count(self) -> int:
        """How many distinct versions the chain currently retains."""
        with self._pin_mutex:
            return len(self._pinned_versions)

    # -- mutation ----------------------------------------------------------------
    def _coerce(self, row: Sequence[Any]) -> tuple:
        if len(row) != len(self.schema):
            raise StorageError(
                f"table {self.name!r} expects {len(self.schema)} values, "
                f"got {len(row)}"
            )
        return tuple(
            column.type.coerce(value) for column, value in zip(self.schema, row)
        )

    def insert(self, row: Sequence[Any]) -> int:
        """Insert a row (after type coercion); returns its new tuple id."""
        coerced = self._coerce(row)
        tid = self._next_tid
        self._next_tid += 1
        self._version += 1
        self._rows[tid] = coerced
        return tid

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> List[int]:
        """Bulk insert: one coercion pass and one id range."""
        coerced_rows = [self._coerce(row) for row in rows]
        if not coerced_rows:
            return []
        first = self._next_tid
        tids = list(range(first, first + len(coerced_rows)))
        self._next_tid = first + len(coerced_rows)
        self._version += 1
        store = self._rows
        for tid, coerced in zip(tids, coerced_rows):
            store[tid] = coerced
        return tids

    def delete(self, tid: int) -> tuple:
        """Delete by tuple id; returns the removed row (for undo logs)."""
        return self._delete_known(tid, self.get(tid))

    def _delete_known(self, tid: int, row: tuple) -> tuple:
        """Delete a row whose value the caller already holds (saves the
        redundant ``get()`` on scan-driven bulk deletes)."""
        self._version += 1
        del self._rows[tid]
        return row

    def update(self, tid: int, row: Sequence[Any]) -> tuple:
        """Replace the row at ``tid``; returns the old row (for undo logs)."""
        return self._update_known(tid, self.get(tid), row)

    def _update_known(self, tid: int, old: tuple, row: Sequence[Any]) -> tuple:
        self._version += 1
        coerced = self._coerce(row)
        self._rows[tid] = coerced
        return old

    def restore(self, tid: int, row: Sequence[Any]) -> None:
        """Re-insert a row under a specific tuple id (transaction rollback)."""
        if tid in self._rows:
            raise StorageError(f"tuple id {tid} already present in {self.name!r}")
        coerced = self._coerce(row)
        self._version += 1
        self._rows[tid] = coerced
        self._next_tid = max(self._next_tid, tid + 1)

    def delete_where(self, predicate: Callable[[tuple], bool]) -> List[Tuple[int, tuple]]:
        """Delete all rows satisfying ``predicate``; returns (tid, row) pairs.

        The scan already has each row in hand, so deletion skips the
        per-tid ``get()`` lookup.
        """
        victims = [(tid, row) for tid, row in self._rows.items() if predicate(row)]
        for tid, row in victims:
            self._delete_known(tid, row)
        return victims

    def update_where(
        self,
        predicate: Callable[[tuple], bool],
        transform: Callable[[tuple], Sequence[Any]],
    ) -> List[Tuple[int, tuple]]:
        """Update all rows satisfying ``predicate``; returns (tid, old row)."""
        touched = []
        for tid, row in list(self._rows.items()):
            if predicate(row):
                old = self._update_known(tid, row, transform(row))
                touched.append((tid, old))
        return touched

    def truncate(self) -> List[Tuple[int, tuple]]:
        removed = list(self._rows.items())
        self._version += 1
        self._rows.clear()
        return removed

    # -- checkpoint serialization --------------------------------------------------
    def dump_columns(self) -> Dict[str, Any]:
        """Capture the table for a binary-columnar checkpoint segment.

        Returns the cached immutable snapshot relation (whose rows the
        encoder pivots column-wise *after* the store gate is released --
        the capture itself is O(rows) of C-level list building at most),
        the matching tuple ids, and the tid counter.  Tids must be
        preserved exactly: snapshot and lineage caches are keyed by
        (version, tid), and WAL redo records address rows by tid.
        The tid list and the snapshot iterate the same row dict, so they
        are positionally aligned as long as the table is not mutated in
        between -- the checkpoint holds the store gate across the capture
        (concurrent MVCC captures only pin; they mutate nothing here).
        """
        return {
            "snapshot": self.snapshot(),
            "tids": list(self._rows),
            "next_tid": self._next_tid,
        }

    def load_columns(
        self,
        tids: Sequence[int],
        columns: Sequence[Sequence[Any]],
        row_count: int,
        next_tid: int,
    ) -> None:
        """Recovery fast path: bulk-load decoded checkpoint columns into
        this (empty) table.

        Segment values were written from an already-typed table, so the
        per-row ``restore()``/coercion machinery is skipped entirely: rows
        are one ``zip`` pivot, the tid dict one ``dict(zip(...))``, and
        the resulting column views are handed straight to the batch
        engine by pre-seeding the snapshot cache -- the first scan after
        recovery reuses the decoded arrays zero-copy.
        """
        if self._rows:
            raise StorageError(
                f"cannot load checkpoint state into non-empty table {self.name!r}"
            )
        if len(columns) != len(self.schema):
            raise StorageError(
                f"segment for table {self.name!r} carries {len(columns)} "
                f"columns, schema expects {len(self.schema)}"
            )
        rows = columns_to_rows(columns, row_count)
        if len(rows) != row_count or len(tids) != row_count:
            raise StorageError(
                f"segment for table {self.name!r} is torn: "
                f"{len(tids)} tids / {len(rows)} rows, expected {row_count}"
            )
        self._rows = dict(zip(tids, rows))
        if len(self._rows) != row_count:
            raise StorageError(f"segment for table {self.name!r} repeats tuple ids")
        top = max(tids) + 1 if tids else 1
        self._next_tid = max(int(next_tid), top)
        self._version += 1
        snapshot = Relation.from_trusted_rows(self.schema, rows)
        snapshot._columns.columns = tuple(columns)
        snapshot.source = (self.name, self._version)
        self._snapshot_cache = (self._version, snapshot)


# -- MVCC snapshot management ---------------------------------------------------


class PinnedVersionSet:
    """The immutable ``{table -> version}`` capture one read statement
    executes against.

    Produced by :meth:`SnapshotManager.capture` and released by
    :meth:`SnapshotManager.release` at statement end.  Holds, per
    referenced table (lower-cased name): the catalog entry at capture
    time and the pinned snapshot relation -- so the statement reads the
    same transactionally consistent version set even while writers
    commit, and even if a table is dropped or replaced mid-statement.
    """

    __slots__ = ("pins",)

    def __init__(self, pins: Dict[str, Tuple[Any, int, Relation]]) -> None:
        #: name -> (catalog entry, pinned version, pinned relation)
        self.pins = pins

    @property
    def versions(self) -> Dict[str, int]:
        return {name: version for name, (_, version, _) in self.pins.items()}

    def lookup(self, name: str) -> Optional[Tuple[Any, Relation]]:
        """The pinned (catalog entry, relation) for ``name``, or None when
        the statement did not pin that table (e.g. it was created after
        the capture)."""
        pinned = self.pins.get(name.lower())
        if pinned is None:
            return None
        entry, _, relation = pinned
        return entry, relation

    def __len__(self) -> int:
        return len(self.pins)

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{name}@v{version}" for name, version in sorted(self.versions.items())
        )
        return f"<PinnedVersionSet {inside}>"


class SnapshotManager:
    """Captures, pins, and reclaims MVCC read snapshots across tables.

    One per store, shared by every session.  :meth:`capture` takes one
    atomic shared grant on exactly the tables the statement reads
    (:meth:`LockManager.acquire_shared_all`) for a *brief* moment -- long
    enough to read ``len(tables)`` version counters and pin their
    snapshots.  Writers hold their tables exclusively until their commit
    is durable (strict 2PL), so the grant sees a committed prefix and
    never half of a multi-table transaction; it waits only for writers of
    its own tables, never for the store gate (other tables' writers,
    checkpoints).  From then on the reader touches no locks at all:
    writers proceed under their exclusive 2PL table locks while the reader
    scans its pinned versions.  :meth:`release` drops the pins at
    statement end (success, error, or a killed reader session -- the
    dispatch path releases in a ``finally``), eagerly garbage-collecting
    versions no statement holds anymore.

    The catalog and lock manager are duck-typed constructor arguments
    (the catalog module imports this one, so the types cannot be named
    here without a cycle).
    """

    def __init__(self, catalog: Any, locks: Any) -> None:
        self.catalog = catalog
        self.locks = locks
        self._mutex = _sanitizer.wrap_lock("SnapshotManager._mutex")
        self._captures = 0
        self._capture_waits = 0
        self._capture_wait_s = 0.0
        self._pins_held = 0
        self._versions_retained = 0
        self._versions_reclaimed = 0
        #: Test seam: called with the fresh PinnedVersionSet after the
        #: grant is released and before the statement executes -- the only
        #: deterministic window in which a test can commit a concurrent
        #: write *between* the pin and the read.
        self.on_capture: Optional[Callable[[PinnedVersionSet], None]] = None

    def capture(
        self, names: Iterable[str], timeout: Optional[float] = None
    ) -> PinnedVersionSet:
        """Atomically pin the current version of every named table.

        Names that do not exist are skipped (the executor raises its
        usual ``TableNotFoundError`` when the statement actually reads
        them).  Raises :class:`~repro.errors.LockTimeout` when writers
        keep one of the tables busy past ``timeout`` -- the LockManager
        queues new writers behind this waiter, so a saturating write
        stream drains rather than starving the capture."""
        keys = sorted({n.lower() for n in names})
        started = time.perf_counter()
        waited = self.locks.acquire_shared_all(keys, timeout=timeout)
        wait_s = time.perf_counter() - started if waited else 0.0
        pins: Dict[str, Tuple[Any, int, Relation]] = {}
        fresh_entries = 0
        try:
            for name in keys:
                if not self.catalog.has_table(name):
                    continue
                entry = self.catalog.entry(name)
                version, relation, fresh = entry.table.pin_snapshot()
                pins[name] = (entry, version, relation)
                fresh_entries += int(fresh)
        except BaseException:
            for name, (entry, version, _) in pins.items():
                entry.table.unpin_snapshot(version)
            raise
        finally:
            for name in keys:
                self.locks.release_shared(name)
        with self._mutex:
            self._captures += 1
            self._capture_waits += int(waited)
            self._capture_wait_s += wait_s
            self._pins_held += len(pins)
            self._versions_retained += fresh_entries
        pinned = PinnedVersionSet(pins)
        hook = self.on_capture
        if hook is not None:
            try:
                hook(pinned)
            except BaseException:
                # The caller never saw the set -- releasing is on us.
                self.release(pinned)
                raise
        return pinned

    def release(self, pinned: PinnedVersionSet) -> None:
        """Drop the statement's pins; reclaim versions nobody holds."""
        dropped = 0
        reclaimed = 0
        for name, (entry, version, _) in pinned.pins.items():
            was_dropped, was_reclaimed = entry.table.unpin_snapshot(version)
            dropped += int(was_dropped)
            reclaimed += int(was_reclaimed)
        with self._mutex:
            self._pins_held -= len(pinned.pins)
            self._versions_retained -= dropped
            self._versions_reclaimed += reclaimed

    def stats(self) -> Dict[str, float]:
        """Snapshot counters: total captures, how many of them found a
        writer on one of their tables and the milliseconds they waited in
        total, pins currently held, versions currently retained in table
        chains, and old versions reclaimed so far.  Merged into
        ``durability_stats()`` and served by the wire protocol's ``stats``
        operation."""
        with self._mutex:
            return {
                "snapshot_captures": self._captures,
                "snapshot_capture_waits": self._capture_waits,
                "snapshot_capture_wait_ms": round(self._capture_wait_s * 1000.0, 3),
                "snapshot_pins_held": self._pins_held,
                "snapshot_versions_retained": self._versions_retained,
                "snapshot_versions_reclaimed": self._versions_reclaimed,
            }
