"""The MayBMS session facade.

A :class:`MayBMS` object is "the database": a catalog of tables (standard
and U-relations), the registry of independent random variables (the world
table), a SQL executor, and transaction machinery (undo log + write-ahead
log + table locks).  Typical use::

    db = MayBMS()
    db.execute("create table ft (player text, init text, final text, p float)")
    db.execute("insert into ft values ('Bryant', 'F', 'F', 0.8), ...")
    result = db.query('''
        select player, final, conf() as p
        from (repair key player, init in ft weight by p) r
        group by player, final
    ''')
    print(result.pretty())

One store also serves **many concurrent sessions** (the paper builds
MayBMS inside PostgreSQL precisely so concurrent clients get storage,
concurrency control, and recovery for free).  :meth:`MayBMS.session`
spawns a :class:`Session` sharing the catalog, variable registry, lock
manager, and write-ahead log, but with its own transaction state and
executor, so reader sessions run concurrently with a writer:

    store = MayBMS(path="/data/db")
    writer = store.session()
    reader = store.session(read_only=True)

Writing statements acquire table locks through the shared
:class:`~repro.engine.transactions.LockManager`: exclusive for tables
they write (auto-commit statements release at statement end; explicit
transactions hold them to commit/rollback -- strict two-phase locking,
including shared read locks inside an explicit transaction for
read-your-writes).  **Read statements hold no table locks while they
run**: they execute against an immutable pinned version set captured by
the store's :class:`~repro.engine.storage.SnapshotManager` (MVCC snapshot
reads) under one momentary shared grant on the tables they read -- a
multi-second ``conf()`` scan never blocks a writer, a reader waits only
for writers of its own tables, and a saturating write stream never
starves readers.  Under a durable store,
concurrent commits coalesce in the group committer
(:class:`~repro.engine.durability.DurabilityManager`): one fsync makes a
whole batch of commits durable.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import faults as _faults
from repro.core.confidence.dispatch import DispatchPolicy
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.engine.catalog import KIND_STANDARD, KIND_URELATION, Catalog
from repro.engine.durability import DurabilityManager
from repro.engine import sanitizer as _sanitizer
from repro.engine.relation import Relation
from repro.engine.storage import SnapshotManager
from repro.engine.transactions import (
    STORE_GATE,
    LockManager,
    Transaction,
    WriteAheadLog,
)
from repro.errors import (
    AnalysisError,
    DegradedError,
    DurabilityError,
    TransactionError,
)
from repro.sql import ast_nodes as ast
from repro.sql.analyzer import referenced_tables
from repro.sql.executor import Executor, StatementResult
from repro.sql.parser import parse_statement, parse_statements

QueryOutput = Union[Relation, URelation]


class _SessionBase:
    """Behaviour shared by the root :class:`MayBMS` facade and the
    lightweight :class:`Session` objects it spawns: SQL entry points,
    transaction control, statement-scoped lock acquisition, and table
    accessors.  Subclasses provide the shared state (catalog, registry,
    locks, WAL) and ``self._store`` (the owning :class:`MayBMS`)."""

    catalog: Catalog
    registry: VariableRegistry
    locks: LockManager
    wal: WriteAheadLog
    executor: Executor
    read_only: bool
    lock_timeout: float

    # -- confidence tuning ----------------------------------------------------
    @property
    def confidence_policy(self) -> DispatchPolicy:
        """The dispatcher policy in force (see :mod:`repro.core.confidence.dispatch`)."""
        return self.executor.dispatcher.policy

    #: Sentinel for set_confidence_strategy: "keep the current budget"
    #: (None itself is meaningful -- it means "never degrade to Monte
    #: Carlo").
    _KEEP_BUDGET = object()

    def set_confidence_strategy(
        self, strategy: str, exact_budget: object = _KEEP_BUDGET
    ) -> None:
        """Re-tune the confidence dispatcher mid-session.

        ``exact_budget`` is left unchanged unless given; pass ``None``
        explicitly to remove the budget (conf() never degrades to Monte
        Carlo)."""
        current = self.executor.dispatcher.policy
        if exact_budget is _SessionBase._KEEP_BUDGET:
            exact_budget = current.exact_budget
        self.executor.dispatcher.set_policy(
            DispatchPolicy(
                strategy=strategy,
                exact_budget=exact_budget,  # type: ignore[arg-type]
                epsilon=current.epsilon,
                delta=current.delta,
            )
        )

    # -- SQL entry points ------------------------------------------------------
    def execute(self, sql: str) -> StatementResult:
        """Execute a single SQL statement (any kind)."""
        statement = parse_statement(sql)
        return self._dispatch(statement)

    def execute_script(self, sql: str) -> List[StatementResult]:
        """Execute a semicolon-separated batch."""
        return [self._dispatch(s) for s in parse_statements(sql)]

    def query(self, sql: str) -> Relation:
        """Execute a query that must produce a t-certain relation."""
        result = self.execute(sql)
        if not isinstance(result.output, Relation):
            raise AnalysisError(
                "query did not produce a t-certain relation; use "
                "uncertain_query() for U-relation results"
            )
        return result.output

    def uncertain_query(self, sql: str) -> URelation:
        """Execute a query that must produce an uncertain relation."""
        result = self.execute(sql)
        if not isinstance(result.output, URelation):
            raise AnalysisError(
                "query produced a t-certain relation; use query() instead"
            )
        return result.output

    def _dispatch(self, statement: ast.Statement) -> StatementResult:
        self._require_open()
        if isinstance(statement, ast.TransactionStatement):
            action = statement.action
            if action == "begin":
                self.begin()
            elif action == "commit":
                self.commit()
            else:
                self.rollback()
            return StatementResult()
        reads, writes = referenced_tables(statement)
        if self.read_only and (writes or isinstance(statement, ast.Checkpoint)):
            raise TransactionError(
                "session is read-only; open a read-write session for "
                "DML, DDL, and CHECKPOINT"
            )
        store = self._store
        if writes and store.storage is not None and store.storage.degraded:
            # Fail the write before it does any work (and before it takes
            # any locks): a degraded store keeps serving reads only.
            raise DegradedError(
                "durable store is in read-only degraded mode: "
                f"{store.storage.degraded_reason}"
            )
        pinned = None
        acquired: List[Tuple[str, str]] = []
        if reads and not writes and not self.in_transaction:
            # MVCC read path: pin a transactionally consistent version set
            # under one momentary shared grant on the tables read, then run
            # entirely without table locks.  Writers keep exclusive 2PL;
            # statements inside an explicit transaction keep strict 2PL
            # above so read-your-writes still holds.
            pinned = store.snapshots.capture(reads, timeout=self.lock_timeout)
        else:
            acquired = self._acquire_statement_locks(reads, writes)
        try:
            with self.executor.pinned_versions(pinned):
                result = self.executor.execute(statement)
        finally:
            if pinned is not None:
                store.snapshots.release(pinned)
            if not self.in_transaction:
                self._release_locks(acquired)
        if not self.in_transaction:
            store._maybe_checkpoint()
        return result

    # -- locking ----------------------------------------------------------------
    def _acquire_statement_locks(
        self, reads: Set[str], writes: Set[str]
    ) -> List[Tuple[str, str]]:
        """Take the locks one statement needs: the store gate (shared) when
        it writes, then table locks in sorted order (shared for reads,
        exclusive for writes, upgrading in place when the session already
        holds shared).  Returns what was newly acquired, so a failed
        acquisition or an auto-commit statement can release exactly that.
        Locks persist in ``self._held_locks`` for the duration of an
        explicit transaction (strict two-phase locking)."""
        if not reads and not writes:
            return []
        acquired: List[Tuple[str, str]] = []
        try:
            if writes:
                self._acquire_one(STORE_GATE, "shared", acquired)
            for name in sorted(reads | writes):
                mode = "exclusive" if name in writes else "shared"
                self._acquire_one(name, mode, acquired)
        except BaseException:
            self._release_locks(acquired)
            raise
        return acquired

    def _acquire_one(
        self, name: str, mode: str, acquired: List[Tuple[str, str]]
    ) -> None:
        held = self._held_locks.get(name)
        held_mode = held[0] if held else None
        if held_mode in ("exclusive", "both"):
            return  # exclusive covers everything
        me = threading.get_ident()
        if mode == "shared":
            if held_mode == "shared":
                return
            self.locks.acquire_shared(name, timeout=self.lock_timeout)
            self._held_locks[name] = ("shared", me)
            acquired.append((name, "shared"))
        else:
            # Upgrades shared -> exclusive when this session holds shared
            # (the LockManager discounts our own hold and fails fast on
            # competing upgrades instead of deadlocking).
            self.locks.acquire_exclusive(name, timeout=self.lock_timeout)
            self._held_locks[name] = (
                "both" if held_mode == "shared" else "exclusive",
                me,
            )
            acquired.append((name, "exclusive"))

    def _release_locks(self, acquired: List[Tuple[str, str]]) -> None:
        for name, mode in reversed(acquired):
            held = self._held_locks.get(name)
            ident = held[1] if held else None
            if mode == "exclusive":
                self.locks.release_exclusive(name, ident)
                if held is not None and held[0] == "both":
                    self._held_locks[name] = ("shared", ident)
                else:
                    self._held_locks.pop(name, None)
            else:
                self.locks.release_shared(name, ident)
                self._held_locks.pop(name, None)

    def _release_all_locks(self) -> None:
        """Release everything this session holds.  Locks are released under
        their acquiring thread's identity, so a session abandoned by its
        worker thread can still be cleaned up from the store's thread.
        Best-effort: a hold the manager no longer recognizes (two
        same-thread sessions shared one thread-keyed lock) must not abort
        the cleanup of the remaining locks."""
        for name, (mode, ident) in reversed(list(self._held_locks.items())):
            try:
                if mode in ("exclusive", "both"):
                    self.locks.release_exclusive(name, ident)
                if mode in ("shared", "both"):
                    self.locks.release_shared(name, ident)
            except TransactionError:
                pass
        self._held_locks.clear()

    def _require_open(self) -> None:
        pass  # the root facade stays permissive; Session overrides

    # -- transactions -------------------------------------------------------------
    def _current_transaction(self) -> Optional[Transaction]:
        return self._transaction if self.in_transaction else None

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None and self._transaction.is_active

    def begin(self) -> Transaction:
        self._require_open()
        if self.read_only:
            raise TransactionError(
                "read-only sessions do not support transactions"
            )
        if self.in_transaction:
            raise TransactionError("a transaction is already in progress")
        self._transaction = Transaction(self.catalog, self.wal, self.registry)
        return self._transaction

    def commit(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        assert self._transaction is not None
        self._transaction.commit()
        self._transaction = None
        self._release_all_locks()
        self._store._maybe_checkpoint()

    def rollback(self) -> None:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        assert self._transaction is not None
        self._transaction.rollback()
        self._transaction = None
        self._release_all_locks()

    @property
    def transaction(self) -> Transaction:
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        assert self._transaction is not None
        return self._transaction

    # -- programmatic table management ------------------------------------------------
    def create_table_from_relation(self, name: str, relation: Relation) -> None:
        """Register a standard table holding a copy of ``relation``
        (WAL-logged and lock-protected like any other DML)."""
        self._programmatic_write(
            name,
            lambda txn: (
                txn.create_table(name, relation.schema.unqualified(), KIND_STANDARD),
                txn.insert_many(name, relation.rows),
            ),
        )

    def create_table_from_urelation(self, name: str, urel: URelation) -> None:
        """Register a U-relation (wide encoding) as a catalog table
        (WAL-logged and lock-protected like any other DML).  A held query
        result (``uncertain_query``) promotes the variables its rows name."""

        def build(txn: Transaction) -> None:
            txn.create_table(
                name,
                urel.relation.schema.unqualified(),
                KIND_URELATION,
                properties={
                    "payload_arity": urel.payload_arity,
                    "cond_arity": urel.cond_arity,
                },
            )
            txn.insert_many(name, urel.relation.rows)

        self._programmatic_write(name, build)

    def _programmatic_write(self, name: str, build) -> None:
        self._require_open()
        if self.read_only:
            raise TransactionError("session is read-only")
        acquired = self._acquire_statement_locks(set(), {name.lower()})
        try:
            with self.executor.write_transaction() as txn:
                build(txn)
        finally:
            if not self.in_transaction:
                self._release_locks(acquired)

    def table(self, name: str) -> Relation:
        """Snapshot of a standard table's contents."""
        return self.catalog.entry(name).table.snapshot()

    def urelation(self, name: str) -> URelation:
        """A stored U-relation, reconstructed with this session's registry."""
        entry = self.catalog.entry(name)
        if not entry.is_urelation:
            raise AnalysisError(f"table {name!r} is not a U-relation")
        return URelation(
            entry.table.snapshot(),
            int(entry.properties["payload_arity"]),
            int(entry.properties["cond_arity"]),
            self.registry,
        )

    def tables(self) -> List[str]:
        return self.catalog.table_names()

    # -- durability ----------------------------------------------------------------
    @property
    def is_durable(self) -> bool:
        return self._store.storage is not None

    def checkpoint(self) -> bool:
        """Write a durable snapshot (catalog + variable registry) and
        rotate the write-ahead log.  Returns False for in-memory sessions
        (nothing to persist).  Raises inside an open transaction: the
        snapshot would capture uncommitted state.  Waits (up to the lock
        timeout) for concurrent writers to commit -- the store gate
        guarantees the snapshot never contains another session's
        uncommitted changes."""
        if self._store.storage is None:
            return False
        if self.in_transaction:
            raise TransactionError(
                "cannot checkpoint inside an open transaction"
            )
        return self._store._gated_checkpoint(self.lock_timeout)

    def durability_stats(self) -> Optional[Dict[str, object]]:
        """Durability counters of the underlying store (checkpoint_ms,
        checkpoint_bytes, tables_snapshotted, segments_reused, recovery_ms,
        fsync/commit totals), or None for in-memory sessions.  Also served
        over the wire protocol (``op: "stats"``) so a
        :class:`repro.client.Client` can observe them remotely."""
        storage = self._store.storage
        if storage is None:
            return None
        stats = storage.stats()
        stats.update(self._store.snapshots.stats())
        san = _sanitizer.get_sanitizer()
        if san is not None:
            stats.update(san.stats())
        return stats

    @property
    def degraded(self) -> bool:
        """Whether the durable store dropped into read-only degraded mode
        (ENOSPC mid-checkpoint, WAL appends failing past the bounded
        retry).  Always False for in-memory sessions.  The reason string
        is in ``durability_stats()['degraded_reason']``."""
        storage = self._store.storage
        return storage is not None and storage.degraded

    def fault_stats(self) -> Optional[Dict[str, object]]:
        """Counters of the process-global fault-injection registry
        (:mod:`repro.faults`): armed sites, per-site hit and fired
        totals, and the trigger seed.  None unless faults are armed
        (``MayBMS(faults=...)``, ``REPRO_FAULTS``, or the server's
        ``faults`` wire op)."""
        return _faults.stats()

    def snapshot_stats(self) -> Dict[str, float]:
        """MVCC snapshot counters of the store's
        :class:`~repro.engine.storage.SnapshotManager`:
        ``snapshot_captures`` (pinned version sets taken),
        ``snapshot_capture_waits`` / ``snapshot_capture_wait_ms`` (captures
        that found a writer on one of their tables, and how long they
        waited for it in total), ``snapshot_pins_held`` (per-table pins
        currently held by in-flight read statements),
        ``snapshot_versions_retained``
        (distinct superseded versions kept alive right now), and
        ``snapshot_versions_reclaimed`` (superseded versions freed when
        their last pin dropped).  Available for in-memory stores too,
        unlike :meth:`durability_stats`; also served over the wire
        protocol's ``stats`` operation."""
        return self._store.snapshots.stats()

    def sanitizer_stats(self) -> Optional[Dict[str, int]]:
        """Counters of the runtime concurrency sanitizer
        (:mod:`repro.engine.sanitizer`), or None unless the process runs
        with ``REPRO_SANITIZE=1``: lock-order cycles, locks held across
        fsync, pin leak totals, and the live pin gauge.  Also served over the wire protocol's
        ``stats`` operation."""
        san = _sanitizer.get_sanitizer()
        if san is None:
            return None
        return san.stats()

    # -- introspection ----------------------------------------------------------------
    def sys_tables(self) -> Relation:
        return self.catalog.sys_tables()

    def sys_columns(self) -> Relation:
        return self.catalog.sys_columns()


class MayBMS(_SessionBase):
    """A probabilistic database store, which is also its root session.

    - ``seed`` drives every Monte-Carlo draw of the session (``aconf`` and
      the dispatcher's fallback), so approximate results are reproducible;
      defaults to the ``REPRO_SEED`` environment variable, then 0.
      ``aconf`` derives a per-group sample stream from the seed
      (:func:`repro.core.confidence.dklr.aconf_unit_seed`), so its
      estimates are a pure function of the seed and the data.
    - ``confidence_strategy`` tunes the cost-based confidence dispatcher:
      ``"auto"`` (the default; one budgeted ws-tree run per independent
      lineage component, labelled closed-form / sprout / exact, and Monte
      Carlo when the budget blows) or a forced
      ``"sprout"`` / ``"exact"`` / ``"monte-carlo"``.  Defaults to the
      ``REPRO_CONF_STRATEGY`` environment variable, then ``"auto"``.
    - ``exact_budget`` caps the exact engine's ws-tree subproblems per
      component below a non-root elimination before ``conf()`` degrades
      to an (ε,δ) estimate; None means never degrade.
    - ``path`` makes the session durable: committed statements are
      appended to an on-disk write-ahead log (fsynced per commit) under
      that directory, and reopening ``MayBMS(path=...)`` recovers the
      catalog *and the variable registry* — a recovered session answers
      ``conf()`` over repair-key tables bit-identically.  Defaults to the
      ``REPRO_DB_PATH`` environment variable; unset/empty means in-memory.
    - ``checkpoint_every`` (durable sessions): automatically write a
      snapshot checkpoint and rotate the WAL after this many commits
      (``REPRO_CHECKPOINT_EVERY``, default 256; 0 disables).  ``CHECKPOINT``
      is also a SQL statement, and :meth:`checkpoint` forces one.
      Concurrent commits of a durable store coalesce into one fsync
      performed by a group leader; a single committer still gets one
      fsync per commit, and every commit blocks until durable.
    - ``lock_timeout``: seconds a statement waits for a table lock before
      failing with :class:`TransactionError` (``REPRO_LOCK_TIMEOUT``,
      default 30).  The timeout is the deadlock backstop for explicit
      transactions that acquire locks in conflicting orders.
    - ``faults``: arm deterministic fault injection (a
      ``"site=action@trigger,..."`` spec string or a ``{site: action}``
      mapping; see :mod:`repro.faults`) before the store opens, so even
      recovery-time failpoints fire.  Seeded with ``seed``; test/torture
      use only -- disarmed failpoints cost nothing.

    :meth:`session` spawns additional concurrent sessions over this
    store; see the module docstring.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        confidence_strategy: Optional[str] = None,
        exact_budget: Optional[int] = DispatchPolicy.exact_budget,
        path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        lock_timeout: Optional[float] = None,
        faults: Optional[Union[str, Dict[str, str]]] = None,
    ):
        if seed is None:
            seed = int(os.environ.get("REPRO_SEED", "0"))
        if faults:
            # Arm fault injection BEFORE storage opens, so recovery-time
            # failpoints (recovery.manifest.read, segment.read/decode)
            # fire during this constructor's own recovery pass.  The spec
            # syntax and site catalog live in :mod:`repro.faults`;
            # REPRO_FAULTS covers the environment surface.
            _faults.arm(faults, seed=seed)
        if confidence_strategy is None:
            confidence_strategy = os.environ.get("REPRO_CONF_STRATEGY", "auto")
        if path is None:
            path = os.environ.get("REPRO_DB_PATH") or None
        elif not path:
            # An explicit empty path forces an in-memory session even when
            # REPRO_DB_PATH is set (used by recover()).
            path = None
        if checkpoint_every is None:
            checkpoint_every = int(os.environ.get("REPRO_CHECKPOINT_EVERY", "256"))
        if lock_timeout is None:
            lock_timeout = float(os.environ.get("REPRO_LOCK_TIMEOUT", "30"))
        self.seed = seed
        self.path = path
        self.checkpoint_every = checkpoint_every
        self.lock_timeout = lock_timeout
        self.read_only = False
        self.catalog = Catalog()
        self.registry = VariableRegistry()
        self.locks = LockManager()
        self.snapshots = SnapshotManager(self.catalog, self.locks)
        self._store = self
        self._sessions: List["Session"] = []
        self._session_mutex = _sanitizer.wrap_lock("MayBMS._session_mutex")
        self.storage: Optional[DurabilityManager] = None
        if path is not None:
            self.storage = DurabilityManager(path)
            self.recovery_stats = self.storage.recover_into(
                self.catalog, self.registry
            )
        self.wal = WriteAheadLog(sink=self.storage)
        policy = DispatchPolicy(
            strategy=confidence_strategy, exact_budget=exact_budget
        )
        self.executor = Executor(
            self.catalog,
            self.registry,
            random.Random(seed),
            confidence_policy=policy,
            wal=self.wal,
            transaction_supplier=self._current_transaction,
            checkpoint_hook=self.checkpoint,
            base_seed=seed,
        )
        self._transaction: Optional[Transaction] = None
        self._held_locks: Dict[str, Tuple[str, int]] = {}
        self._closed = False

    # -- concurrent sessions ---------------------------------------------------
    def session(
        self,
        read_only: bool = False,
        seed: Optional[int] = None,
        confidence_strategy: Optional[str] = None,
    ) -> "Session":
        """Open a new session over this store.

        The session shares the catalog, variable registry, lock manager,
        durable storage, and write-ahead log, but has its own transaction
        state, RNG, and confidence dispatcher -- so concurrent sessions
        interleave safely (statement-scoped table locks) and approximate
        answers stay reproducible per session.  ``read_only`` sessions
        reject DML, DDL, CHECKPOINT, and transactions, and can never
        block a checkpoint.  Close sessions before closing the store.
        """
        if self._closed:
            raise TransactionError("store is closed")
        session = Session(
            self,
            read_only=read_only,
            seed=self.seed if seed is None else seed,
            confidence_strategy=confidence_strategy,
        )
        with self._session_mutex:
            self._sessions.append(session)
        return session

    def sessions(self) -> List["Session"]:
        """The currently open sessions spawned from this store."""
        with self._session_mutex:
            return [s for s in self._sessions if not s._closed]

    # -- durability ----------------------------------------------------------------
    def _gated_checkpoint(self, timeout: float) -> bool:
        """Checkpoint in two phases: *capture* under the store gate
        (exclusive -- no statement can be mid-write, so the capture is
        transactionally consistent), then *encode + write + fsync* after
        the gate is released.  The exclusive stall writers observe is only
        the WAL rotation plus snapshot-pinning of the tables dirtied since
        the last checkpoint -- O(dirty set), not O(database) -- while the
        expensive serialization runs concurrently with new commits.  Times
        out with :class:`TransactionError` if writers keep the gate busy
        (the LockManager queues new writers behind a waiting checkpointer,
        so a saturating write stream drains rather than starving it).

        Two writer shapes escape the gate and are checked explicitly once
        it is held: a writer session living on the *checkpointing thread*
        (the LockManager keys ownership by thread, so its gate hold looks
        like our own and the exclusive acquire succeeds as an upgrade),
        and a *programmatic* transaction (``db.begin()`` +
        ``db.transaction.insert(...)``) which never takes statement locks
        at all.  Any session with a dirty open transaction fails the
        checkpoint instead of corrupting it."""
        self.locks.acquire_exclusive(STORE_GATE, timeout=timeout)
        capture = None
        try:
            with self._session_mutex:
                holders = [self] + list(self._sessions)
            for holder in holders:
                transaction = holder._transaction
                if (
                    transaction is not None
                    and transaction.is_active
                    and transaction.is_dirty
                ):
                    raise TransactionError(
                        "cannot checkpoint: a session has an open "
                        "transaction with uncommitted writes"
                    )
            assert self.storage is not None
            capture = self.storage.prepare_checkpoint(
                self.catalog, self.registry, timeout=timeout
            )
        finally:
            self.locks.release_exclusive(STORE_GATE)
        self.storage.commit_checkpoint(capture)
        return True

    def _maybe_checkpoint(self) -> None:
        if (
            self.storage is not None
            and self.checkpoint_every
            and self.storage.commits_since_checkpoint >= self.checkpoint_every
        ):
            try:
                # Best effort with a short gate timeout: under write load
                # another commit will retrigger soon enough.
                self._gated_checkpoint(min(self.lock_timeout, 1.0))
            except (TransactionError, DurabilityError):
                # Gate busy, or another checkpoint mid-write: the user's
                # statement already committed; never fail it for this.
                pass

    def close(self) -> None:
        """Close spawned sessions, roll back an open transaction, write a
        final checkpoint (durable stores), and release file handles.
        Idempotent."""
        if self._closed:
            return
        with self._session_mutex:
            open_sessions = list(self._sessions)
        for session in open_sessions:
            session.close()
        if self.in_transaction:
            self.rollback()
        self._release_all_locks()
        if self.storage is not None:
            # Skip the snapshot when nothing committed since the last one:
            # close() on a read-only session must not pay O(database size).
            if self.storage.commits_since_checkpoint > 0 and not self.storage.degraded:
                try:
                    self.checkpoint()
                except DegradedError:
                    pass
            self.storage.close()
        self._closed = True

    def __enter__(self) -> "MayBMS":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- recovery ----------------------------------------------------------------
    def recover(self) -> "MayBMS":
        """Crash recovery: a fresh session rebuilt from this session's
        in-memory write-ahead log.

        Only meaningful for in-memory sessions -- a durable session's WAL
        records are dropped from memory once flushed to disk (the on-disk
        log is the source of truth), so replaying them here would silently
        produce an empty database.  Durable sessions recover by reopening
        ``MayBMS(path=...)``; calling this instead raises.

        Tables are replayed from the WAL; the variable registry is restored
        from the WAL's ``register_variable`` records.  For logs predating
        variable logging (hand-built WALs), the registry is reconstructed
        from the inline probability columns of the recovered U-relations --
        the wide encoding is self-describing (see
        :func:`repro.core.urelation.rebuild_registry`).
        """
        from repro.core.urelation import rebuild_registry

        if self.storage is not None:
            raise DurabilityError(
                "recover() replays the in-memory WAL, which durable "
                "sessions truncate on flush; reopen MayBMS(path=...) to "
                "recover from disk instead"
            )
        policy = self.executor.dispatcher.policy
        recovered = MayBMS(
            seed=self.seed,
            confidence_strategy=policy.strategy,
            exact_budget=policy.exact_budget,
            path="",
        )
        self.wal.replay(recovered.catalog, recovered.registry)
        if not self.wal.has_variable_records():
            urelations = []
            for entry in recovered.catalog.entries():
                if entry.is_urelation:
                    urelations.append(
                        URelation(
                            entry.table.snapshot(),
                            int(entry.properties["payload_arity"]),
                            int(entry.properties["cond_arity"]),
                            recovered.registry,
                        )
                    )
            rebuild_registry(urelations, recovered.registry)
        return recovered


class Session(_SessionBase):
    """A lightweight concurrent session over a shared :class:`MayBMS` store.

    Created by :meth:`MayBMS.session`.  Shares the store's catalog,
    variable registry, locks, durable storage, and WAL; owns its
    transaction state, statement locks, RNG, and confidence dispatcher.
    ``read_only`` sessions reject DML/DDL/CHECKPOINT/transactions.
    """

    def __init__(
        self,
        store: MayBMS,
        read_only: bool = False,
        seed: Optional[int] = None,
        confidence_strategy: Optional[str] = None,
    ):
        self._store = store
        self.catalog = store.catalog
        self.registry = store.registry
        self.locks = store.locks
        self.wal = store.wal
        self.read_only = read_only
        self.lock_timeout = store.lock_timeout
        self.seed = store.seed if seed is None else seed
        base = store.confidence_policy
        policy = DispatchPolicy(
            strategy=(
                base.strategy if confidence_strategy is None else confidence_strategy
            ),
            exact_budget=base.exact_budget,
            epsilon=base.epsilon,
            delta=base.delta,
        )
        self.executor = Executor(
            self.catalog,
            self.registry,
            random.Random(self.seed),
            confidence_policy=policy,
            wal=self.wal,
            transaction_supplier=self._current_transaction,
            checkpoint_hook=self.checkpoint,
            base_seed=self.seed,
        )
        self._transaction: Optional[Transaction] = None
        self._held_locks: Dict[str, Tuple[str, int]] = {}
        self._closed = False

    def _require_open(self) -> None:
        if self._closed:
            raise TransactionError("session is closed")

    def close(self) -> None:
        """Roll back any open transaction, release held locks, and detach
        from the store.  Idempotent."""
        if self._closed:
            return
        if self.in_transaction:
            self.rollback()
        self._release_all_locks()
        self._closed = True
        with self._store._session_mutex:
            try:
                self._store._sessions.remove(self)
            except ValueError:
                pass

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
