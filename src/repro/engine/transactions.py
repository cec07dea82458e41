"""Transactions: undo logging, table locks, and a write-ahead log.

The paper's Section 2.3 observes that because U-relations are ordinary
tables, "updates, concurrency control, and recovery cause surprisingly
little difficulty": an update to a probabilistic database is just an
update to its representation tables.  This module supplies the standard
machinery so that the claim can be exercised:

- :class:`Transaction` -- an undo journal over catalog tables; rollback
  replays inverse operations in reverse order.
- :class:`LockManager` -- table-granularity reader/writer locks (MayBMS
  inherits PostgreSQL's concurrency control; table locks are the simplest
  faithful equivalent for an in-memory engine), with shared->exclusive
  upgrade support and arrival-order granting.  Since the MVCC refactor,
  *read statements hold no table lock while they run*: they pin a version
  set through :class:`repro.engine.storage.SnapshotManager` (one momentary
  shared grant on the tables they read, then lock-free execution).  The
  LockManager serves writers (exclusive 2PL), explicit read-write
  transactions (strict 2PL, including shared read locks for
  read-your-writes), snapshot captures, and the store gate.  Timed-out
  acquisitions raise :class:`repro.errors.LockTimeout`.
- :class:`WriteAheadLog` -- a redo log of committed logical operations
  that can be replayed into an empty catalog to recover state.  When
  given a durable sink (:class:`repro.engine.durability.DurabilityManager`)
  every commit is flushed to the on-disk log before returning.

Redo records address rows by tuple id, not by value: tables may hold
duplicate rows, and value-matching replay can assign different tids than
the pre-crash state, which invalidates every (version, tid)-keyed snapshot
and lineage cache.  Variable registrations (``repair key`` / ``pick
tuples`` variables promoted by the statement that stores rows naming
them) are logged too -- a replayed catalog whose condition columns
reference variables with no distribution cannot answer ``conf()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.engine import sanitizer as _sanitizer
from repro.engine.catalog import Catalog, CatalogEntry
from repro.engine.columnar import int_array
from repro.engine.schema import Column, Schema
from repro.engine.storage import Table
from repro.engine.types import type_from_name
from repro.errors import ConditionError, LockTimeout, TransactionError, VariableError

#: Pseudo-table serializing checkpoints against in-flight writers: every
#: writing statement holds it shared (for the whole transaction, once the
#: transaction has written); a checkpoint's capture phase takes it
#: exclusive -- briefly -- so it never observes a half-applied statement.
#: Reads do not touch it.
STORE_GATE = "__store_gate__"


# -- undo records --------------------------------------------------------------


@dataclass
class _UndoInsert:
    table: Table
    tid: int

    def undo(self) -> None:
        self.table.delete(self.tid)


@dataclass
class _UndoDelete:
    table: Table
    tid: int
    row: tuple

    def undo(self) -> None:
        self.table.restore(self.tid, self.row)


@dataclass
class _UndoUpdate:
    table: Table
    tid: int
    old_row: tuple

    def undo(self) -> None:
        self.table.update(self.tid, self.old_row)


@dataclass
class _UndoCreateTable:
    catalog: Catalog
    name: str

    def undo(self) -> None:
        self.catalog.drop_table(self.name)


@dataclass
class _UndoDropTable:
    catalog: Catalog
    entry: CatalogEntry

    def undo(self) -> None:
        self.catalog.register(self.entry)


@dataclass
class _UndoRegisterVariable:
    registry: Any
    var: int
    registered: Set[int]

    def undo(self) -> None:
        self.registry.unregister(self.var)
        self.registered.discard(self.var)


class Transaction:
    """An explicit transaction over catalog tables.

    All mutations must flow through the transaction's methods to be
    undoable.  ``commit`` publishes redo records to the WAL (if any);
    ``rollback`` applies the undo journal in reverse.  Rows inserted into
    or updated in a U-relation table are admitted by one check
    (:meth:`_admit`): condition cells must be 64-bit integers, each value
    inside its variable's domain (``ConditionError`` otherwise), the
    statement-minted variables they name are promoted into the durable
    variable ``registry``, and a row naming an unknown variable is
    refused (``VariableError``).
    """

    def __init__(
        self,
        catalog: Catalog,
        wal: Optional["WriteAheadLog"] = None,
        registry: Any = None,
    ) -> None:
        self.catalog = catalog
        self.wal = wal
        self.registry = registry
        self._undo: List[Any] = []
        self._redo: List[Tuple[Any, ...]] = []
        #: The variables this transaction has promoted (and not undone).
        self._registered: Set[int] = set()
        self._state = "active"

    # -- state ------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self._state == "active"

    @property
    def is_dirty(self) -> bool:
        """Has this transaction applied any not-yet-committed mutation?
        (Checkpoints must not snapshot a store with dirty transactions.)"""
        return bool(self._undo)

    def _require_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction is {self._state}, not active")

    # -- mutations ----------------------------------------------------------
    def insert(self, table_name: str, row: Sequence[Any]) -> int:
        self._require_active()
        table = self._admit(self.catalog.entry(table_name), (row,))
        tid = table.insert(row)
        self._undo.append(_UndoInsert(table, tid))
        self._redo.append(("insert", table_name, tid, list(table.get(tid))))
        return tid

    def insert_many(
        self, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> List[int]:
        self._require_active()
        table = self._admit(self.catalog.entry(table_name), rows)
        tids = table.insert_many(rows)
        for tid in tids:
            self._undo.append(_UndoInsert(table, tid))
            self._redo.append(("insert", table_name, tid, list(table.get(tid))))
        return tids

    def delete(self, table_name: str, tid: int) -> tuple:
        self._require_active()
        table = self.catalog.table(table_name)
        row = table.delete(tid)
        self._undo.append(_UndoDelete(table, tid, row))
        self._redo.append(("delete_row", table_name, tid))
        return row

    def update(self, table_name: str, tid: int, row: Sequence[Any]) -> tuple:
        self._require_active()
        table = self._admit(self.catalog.entry(table_name), (row,))
        old = table.update(tid, row)
        self._undo.append(_UndoUpdate(table, tid, old))
        self._redo.append(("update_row", table_name, tid, list(table.get(tid))))
        return old

    def delete_where(self, table_name: str, predicate: Callable[[tuple], bool]) -> int:
        self._require_active()
        table = self.catalog.table(table_name)
        victims = table.delete_where(predicate)
        for tid, row in victims:
            self._undo.append(_UndoDelete(table, tid, row))
            self._redo.append(("delete_row", table_name, tid))
        return len(victims)

    def update_where(
        self,
        table_name: str,
        predicate: Callable[[tuple], bool],
        transform: Callable[[tuple], Sequence[Any]],
    ) -> List[Tuple[int, tuple]]:
        """Row-at-a-time scan (not ``Table.update_where``) so every applied
        update is journaled before the next transform runs -- a transform
        raising mid-scan leaves only undoable changes behind."""
        self._require_active()
        entry = self.catalog.entry(table_name)
        table = entry.table
        touched: List[Tuple[int, tuple]] = []
        for tid, row in list(table.items()):
            if predicate(row):
                new = transform(row)
                self._admit(entry, (new,))
                old = table.update(tid, new)
                self._undo.append(_UndoUpdate(table, tid, old))
                self._redo.append(
                    ("update_row", table_name, tid, list(table.get(tid)))
                )
                touched.append((tid, old))
        return touched

    def truncate(self, table_name: str) -> List[Tuple[int, tuple]]:
        self._require_active()
        table = self.catalog.table(table_name)
        removed = table.truncate()
        for tid, row in removed:
            self._undo.append(_UndoDelete(table, tid, row))
        self._redo.append(("truncate", table_name))
        return removed

    def create_table(
        self,
        name: str,
        schema: Schema,
        kind: str = "standard",
        properties: Optional[Dict[str, Any]] = None,
    ) -> CatalogEntry:
        self._require_active()
        entry = self.catalog.create_table(name, schema, kind, properties)
        self._undo.append(_UndoCreateTable(self.catalog, name))
        self._redo.append(
            (
                "create_table",
                name,
                [(c.name, c.type.name) for c in schema],
                kind,
                dict(properties or {}),
            )
        )
        return entry

    def drop_table(self, name: str) -> None:
        self._require_active()
        entry = self.catalog.drop_table(name)
        assert entry is not None
        self._undo.append(_UndoDropTable(self.catalog, entry))
        self._redo.append(("drop_table", name))

    def register_variable(
        self,
        registry: Any,
        var: int,
        name: str,
        distribution: Mapping[int, float],
    ) -> None:
        """Promote a statement-minted variable (``repair key`` / ``pick
        tuples``) into the durable ``registry``, undoably: rollback
        releases it, and the registration reaches the WAL in this
        transaction's committed unit, ahead of the rows naming it -- also
        when another transaction promoted it first, as either may roll back."""
        self._require_active()
        if var in self._registered:
            return
        registry.promote(var, distribution, name)
        self._registered.add(var)
        self._undo.append(_UndoRegisterVariable(registry, var, self._registered))
        self._redo.append(
            ("register_variable", int(var), name, sorted(distribution.items()))
        )

    def _admit(self, entry: CatalogEntry, rows: Sequence[Sequence[Any]]) -> Table:
        """The table ``rows`` go into, once their condition cells have been
        checked and the variables they name promoted, when it is a
        U-relation table (see the class docstring).  Nothing is written
        before every row passes."""
        if not entry.is_urelation or not rows:
            return entry.table
        if any(len(row) != len(entry.table.schema) for row in rows):
            return entry.table  # which refuses the row (StorageError)
        props = entry.properties
        base, arity = int(props.get("payload_arity", 0)), int(props.get("cond_arity", 0))
        # The condition pairs of repro.core.urelation: a variable id, then
        # its value, after the payload.
        variables: List[Any] = []
        values: List[Any] = []
        for position in range(base, base + 2 * arity):
            cells = [row[position] for row in rows]
            mirror = int_array(cells, len(cells))
            if mirror is None:
                bad = next(v for v in cells if int_array([v], 1) is None)
                raise ConditionError(
                    f"condition column {entry.table.schema[position].name} of "
                    f"{entry.table.name} cannot hold "
                    f"{'NULL' if bad is None else repr(bad)}: conditions are "
                    "pairs of 64-bit integers"
                )
            (values if (position - base) % 2 else variables).append(mirror)
        registry = self.registry
        if registry is None:
            return entry.table
        ids, vals = np.concatenate(variables), np.concatenate(values)
        minted = registry.minted(ids.tolist())
        # Domain sizes: registered variables' from the registry, minted
        # ones' from their distributions; 0 marks an unknown id.
        widths = registry.widths(ids)
        if minted:
            minted_ids = np.array([var for var, _, _ in minted])
            minted_widths = np.array([len(d) for _, _, d in minted])
            at = np.searchsorted(minted_ids, ids).clip(max=len(minted) - 1)
            widths = np.where(minted_ids[at] == ids, minted_widths[at], widths)
        unknown = np.flatnonzero(widths == 0)
        if len(unknown):
            raise VariableError(f"row names unknown variable id {ids[unknown[0]]}")
        outside = np.flatnonzero((vals < 0) | (vals >= widths))
        if len(outside):
            i = outside[0]
            raise ConditionError(
                f"condition value {vals[i]} of variable {ids[i]} in "
                f"{entry.table.name} is outside its domain 0..{widths[i] - 1}"
            )
        for var, name, distribution in minted:
            self.register_variable(registry, var, name, distribution)
        return entry.table

    # -- savepoints ----------------------------------------------------------
    def savepoint(self) -> Tuple[int, int]:
        """Mark the current undo/redo high-water marks.  Used for
        statement-level atomicity inside an explicit transaction: a failed
        statement rolls back to its savepoint without aborting the whole
        transaction."""
        self._require_active()
        return (len(self._undo), len(self._redo))

    def rollback_to(self, mark: Tuple[int, int]) -> None:
        """Undo every mutation recorded after ``mark`` (in reverse) and
        drop its redo records; earlier work is untouched."""
        self._require_active()
        undo_mark, redo_mark = mark
        while len(self._undo) > undo_mark:
            self._undo.pop().undo()
        del self._redo[redo_mark:]

    # -- termination ---------------------------------------------------------
    def commit(self) -> None:
        self._require_active()
        if self.wal is not None and self._redo:
            self.wal.append_committed(self._redo)
        self._undo.clear()
        self._redo.clear()
        self._state = "committed"

    def rollback(self) -> None:
        self._require_active()
        for record in reversed(self._undo):
            record.undo()
        self._undo.clear()
        self._redo.clear()
        self._state = "aborted"


@dataclass(eq=False)
class _LockRequest:
    """One not-yet-granted request in :class:`LockManager`'s arrival queue."""

    ident: int
    keys: Tuple[str, ...]
    exclusive: bool


class LockManager:
    """Table-granularity shared/exclusive locks with upgrade support.

    A multiple-readers / single-writer scheme under one mutex and one
    condition variable.  Holds are tracked per thread, so a thread holding a
    shared lock may call :meth:`acquire_exclusive` to *upgrade*: its own
    shared holds are discounted from the reader count it waits on (the
    naive scheme deadlocks forever on its own reader).  If two threads
    holding shared locks both try to upgrade the same table, the second
    request fails fast with :class:`TransactionError` instead of
    deadlocking -- each would wait on the other's shared hold.

    Conflicting requests on one table are granted in **arrival order**:
    a request waits while an earlier, still-waiting request wants the same
    table in a conflicting mode (shared never conflicts with shared), so
    neither a stream of shared holders -- writers each taking the store
    gate shared -- starves a CHECKPOINT's exclusive gate request, nor does
    a thread that releases and immediately re-requests a table overtake
    the threads already waiting for it.  Two kinds of request go ahead of
    the queue and wait for actual holders only, because an earlier waiter
    may (through further waiters) be waiting on *them*: a thread
    re-entering or upgrading a key it already holds, and a thread that
    already holds some table lock -- an explicit transaction in its growing
    phase.  Everything queued ahead of such a transaction can end up
    waiting for a table it wrote: a multi-table :meth:`acquire_shared_all`
    directly, a lock-less writer by queueing behind that request.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: notified whenever a hold is released or a request leaves the queue
        self._changed = threading.Condition(self._mutex)
        #: table -> {thread ident -> number of shared holds}
        self._readers: Dict[str, Dict[int, int]] = {}
        #: table -> thread ident holding it exclusively (absent when free)
        self._writer: Dict[str, int] = {}
        #: waiting requests in arrival order, pending upgrades first
        self._queue: List[_LockRequest] = []
        #: runtime concurrency sanitizer (None unless REPRO_SANITIZE=1);
        #: logical grants are noted record-only -- violations surface at
        #: end of test, never by raising out of a granted acquisition
        self._san = _sanitizer.get_sanitizer()

    @staticmethod
    def _san_node(key: str) -> str:
        return "lockmgr:__store_gate__" if key == STORE_GATE else "lockmgr:<table>"

    def _holds(self, key: str, ident: int) -> bool:
        return self._writer.get(key) == ident or ident in self._readers.get(key, ())

    def _holds_table_lock(self, ident: int) -> bool:
        return any(
            key != STORE_GATE and self._holds(key, ident)
            for key in (*self._writer, *self._readers)
        )

    def _grantable(self, request: _LockRequest) -> bool:
        me = request.ident
        for key in request.keys:
            if self._writer.get(key, me) != me:
                return False
            if request.exclusive and any(
                ident != me for ident in self._readers.get(key, ())
            ):
                return False
        for earlier in self._queue:
            if earlier is request:
                break
            if not (earlier.exclusive or request.exclusive):
                continue  # shared never conflicts with shared
            if any(
                key in earlier.keys and not self._holds(key, me)
                for key in request.keys
            ):
                # An earlier waiter wants one of our keys (and not one we
                # merely re-enter): wait our turn, unless that waiter may
                # in turn be waiting for a table we hold.
                return self._holds_table_lock(me)
        return True

    def _acquire(
        self, keys: Tuple[str, ...], exclusive: bool, timeout: Optional[float]
    ) -> bool:
        """Queue a request for ``keys`` and block until it is granted as a
        whole; returns whether it had to wait."""
        request = _LockRequest(threading.get_ident(), keys, exclusive)
        me = request.ident
        mode = "exclusive" if exclusive else "shared"
        with self._mutex:
            if exclusive and me in self._readers.get(keys[0], ()):
                # An upgrade goes first: earlier waiters wait on our hold.
                if any(
                    q.exclusive and q.keys == keys and self._holds(keys[0], q.ident)
                    for q in self._queue
                ):
                    # Both upgraders would wait on each other's shared hold.
                    raise TransactionError(
                        f"lock upgrade deadlock on {keys[0]!r}: another "
                        "thread holding a shared lock is already upgrading; "
                        "release the shared lock and retry"
                    )
                self._queue.insert(0, request)
            else:
                self._queue.append(request)
            try:
                waited = not self._grantable(request)
                if waited:
                    if not self._changed.wait_for(
                        lambda: self._grantable(request), timeout=timeout
                    ):
                        raise LockTimeout(
                            f"timeout acquiring {mode} lock on "
                            + ", ".join(repr(key) for key in keys)
                        )
                for key in keys:
                    if exclusive:
                        self._writer[key] = me
                    else:
                        holders = self._readers.setdefault(key, {})
                        holders[me] = holders.get(me, 0) + 1
                    if self._san is not None:
                        self._san.note_acquired(self._san_node(key), mode=mode)
            finally:
                # Whoever queued behind this request must re-check, whether
                # it was granted or timed out.
                self._queue.remove(request)
                self._changed.notify_all()
        return waited

    def acquire_shared(self, table_name: str, timeout: Optional[float] = None) -> None:
        self._acquire((table_name.lower(),), False, timeout)

    def acquire_shared_all(
        self, keys: Sequence[str], timeout: Optional[float] = None
    ) -> bool:
        """One atomic shared grant on every table in ``keys`` (distinct
        lower-case names, as :meth:`release_shared` sees them): granted at the
        first instant none of them has a writer (and no earlier request
        for one of them is still waiting), holding nothing meanwhile -- a
        loop of :meth:`acquire_shared` calls would hold one table while
        waiting for the next and deadlock against a transaction that
        wrote the second and now wants the first.  Release each name with
        :meth:`release_shared`.  Returns whether the grant had to wait."""
        return self._acquire(tuple(keys), False, timeout)

    def release_shared(self, table_name: str, ident: Optional[int] = None) -> None:
        """Release one shared hold.  ``ident`` names the owning thread when
        the release happens on a different thread (session cleanup after
        its worker thread exited); defaults to the calling thread."""
        key = table_name.lower()
        me = ident if ident is not None else threading.get_ident()
        with self._mutex:
            holders = self._readers.get(key, {})
            count = holders.get(me, 0)
            if count <= 0:
                raise TransactionError(f"shared lock on {table_name!r} not held")
            if count == 1:
                del holders[me]
                if not holders:
                    del self._readers[key]
            else:
                holders[me] = count - 1
            if self._san is not None:
                self._san.note_released(self._san_node(key), ident=me)
            self._changed.notify_all()

    def acquire_exclusive(self, table_name: str, timeout: Optional[float] = None) -> None:
        self._acquire((table_name.lower(),), True, timeout)

    def release_exclusive(self, table_name: str, ident: Optional[int] = None) -> None:
        """Release the exclusive lock; ``ident`` as in :meth:`release_shared`."""
        key = table_name.lower()
        me = ident if ident is not None else threading.get_ident()
        with self._mutex:
            if self._writer.get(key) != me:
                raise TransactionError(f"exclusive lock on {table_name!r} not held")
            del self._writer[key]
            if self._san is not None:
                self._san.note_released(self._san_node(key), ident=me)
            self._changed.notify_all()


class WriteAheadLog:
    """A redo log of committed logical operations.

    Records are (op, *args) tuples using only plain Python values, so the
    log serializes to the durable on-disk format (length-prefixed,
    CRC-checksummed JSON frames -- see :mod:`repro.engine.durability`).
    :meth:`replay` rebuilds catalog *and registry* state from scratch,
    which is what crash recovery amounts to for this engine.

    Record vocabulary::

        ("begin",) / ("commit",)                    -- commit unit markers
        ("create_table", name, columns, kind, properties)
        ("drop_table", name)
        ("insert", name, tid, row)                  -- row pinned to its tid
        ("delete_row", name, tid)
        ("update_row", name, tid, new_row)
        ("truncate", name)
        ("register_variable", var, name, [[value, p], ...])

    When ``sink`` is given, every commit unit is written and fsynced
    before :meth:`append_committed` returns, and nothing is kept in
    memory.  Variable registrations travel only in the redo records of
    the transaction that stores rows naming them: a SELECT's ``repair
    key`` / ``pick tuples`` variables live in its statement scope and are
    never logged.

    The log is thread-safe: one WAL is shared by every session of a
    multi-session store, and concurrent commits must not interleave their
    records inside each other's begin..commit units.  The mutex only
    guards the in-memory record list -- the durable ``sink.append`` runs
    outside it, so concurrent commits can coalesce in the sink's group
    committer instead of serializing on the WAL.
    """

    def __init__(self, sink: Optional[Any] = None) -> None:
        self._records: List[Tuple[Any, ...]] = []
        self._mutex = threading.Lock()
        self.sink = sink

    def append_committed(self, records: Sequence[Tuple[Any, ...]]) -> None:
        unit: List[Tuple[Any, ...]] = [("begin",)]
        unit.extend(tuple(r) for r in records)
        unit.append(("commit",))
        if self.sink is not None:
            # Outside the mutex, so concurrent commits group-commit in the
            # sink.
            self.sink.append(unit)
            return
        with self._mutex:
            self._records.extend(unit)

    def flush(self) -> None:
        """A no-op: :meth:`append_committed` hands every unit to the
        durable sink before returning, so nothing is ever pending.  An
        in-memory log keeps its records (they ARE the log, and
        :meth:`replay` / ``MayBMS.recover()`` read them back)."""

    def __len__(self) -> int:
        with self._mutex:
            return len(self._records)

    def records(self) -> List[Tuple[Any, ...]]:
        with self._mutex:
            return list(self._records)

    def replay(
        self,
        catalog: Optional[Catalog] = None,
        registry: Optional[Any] = None,
    ) -> Catalog:
        """Rebuild a catalog (and optionally a registry) by replaying every
        committed operation."""
        catalog = catalog if catalog is not None else Catalog()
        replay_records(self.records(), catalog, registry)
        return catalog


def replay_records(
    records: Sequence[Sequence[Any]],
    catalog: Catalog,
    registry: Optional[Any] = None,
) -> None:
    """Apply logical redo records to a catalog / variable registry.

    Shared by in-memory WAL replay and on-disk crash recovery (the durable
    scanner yields the same record shapes, with JSON lists in place of
    tuples).  Rows are re-inserted under their logged tids via
    :meth:`Table.restore`, so the recovered tid assignment is identical to
    the pre-crash one even on tables with duplicate rows.
    """
    for record in records:
        op = record[0]
        if op in ("begin", "commit"):
            continue
        if op == "create_table":
            _, name, columns, kind, properties = record
            schema = Schema(
                Column(col_name, type_from_name(type_name))
                for col_name, type_name in columns
            )
            catalog.create_table(name, schema, kind, dict(properties))
        elif op == "drop_table":
            catalog.drop_table(record[1])
        elif op == "insert":
            _, name, tid, row = record
            catalog.table(name).restore(int(tid), row)
        elif op == "delete_row":
            _, name, tid = record
            catalog.table(name).delete(int(tid))
        elif op == "update_row":
            _, name, tid, new = record
            catalog.table(name).update(int(tid), new)
        elif op == "truncate":
            catalog.table(record[1]).truncate()
        elif op == "register_variable":
            _, var, var_name, distribution = record
            if registry is not None:
                registry.restore(int(var), distribution, var_name)
        else:
            raise TransactionError(f"unknown WAL record {record!r}")
