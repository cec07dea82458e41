"""Tests for transactions, locks, and the write-ahead log.

The paper's Section 2.3 claim under test: because U-relations are plain
tables, updates / concurrency control / recovery work with standard
machinery.
"""

import threading
import time

import pytest

from repro.engine.catalog import KIND_URELATION, Catalog
from repro.engine.schema import Schema
from repro.engine.transactions import LockManager, Transaction, WriteAheadLog
from repro.engine.types import FLOAT, INTEGER, TEXT
from repro.errors import TransactionError


@pytest.fixture
def catalog():
    c = Catalog()
    c.create_table("t", Schema.of(("x", INTEGER), ("s", TEXT)))
    c.table("t").insert((1, "a"))
    c.table("t").insert((2, "b"))
    return c


def _wait_for_queue(locks, length):
    """Block until ``length`` requests are waiting in the lock manager."""
    deadline = time.monotonic() + 5
    while len(locks._queue) < length:
        assert time.monotonic() < deadline, "request never started waiting"
        time.sleep(0.001)


class TestTransactionRollback:
    def test_rollback_insert(self, catalog):
        txn = Transaction(catalog)
        txn.insert("t", (3, "c"))
        assert len(catalog.table("t")) == 3
        txn.rollback()
        assert len(catalog.table("t")) == 2

    def test_rollback_delete_restores_row_and_tid(self, catalog):
        txn = Transaction(catalog)
        txn.delete("t", 1)
        txn.rollback()
        assert catalog.table("t").get(1) == (1, "a")

    def test_rollback_update(self, catalog):
        txn = Transaction(catalog)
        txn.update("t", 1, (99, "z"))
        txn.rollback()
        assert catalog.table("t").get(1) == (1, "a")

    def test_rollback_create_table(self, catalog):
        txn = Transaction(catalog)
        txn.create_table("fresh", Schema.of(("y", INTEGER)))
        txn.rollback()
        assert not catalog.has_table("fresh")

    def test_rollback_drop_table(self, catalog):
        txn = Transaction(catalog)
        txn.drop_table("t")
        assert not catalog.has_table("t")
        txn.rollback()
        assert catalog.has_table("t")
        assert len(catalog.table("t")) == 2

    def test_rollback_mixed_operations_in_reverse(self, catalog):
        txn = Transaction(catalog)
        tid = txn.insert("t", (3, "c"))
        txn.update("t", tid, (4, "d"))
        txn.delete("t", 1)
        txn.rollback()
        table = catalog.table("t")
        assert len(table) == 2
        assert table.get(1) == (1, "a")

    def test_delete_where(self, catalog):
        txn = Transaction(catalog)
        count = txn.delete_where("t", lambda row: row[0] > 1)
        assert count == 1
        txn.rollback()
        assert len(catalog.table("t")) == 2


class TestTransactionStates:
    def test_commit_then_mutation_rejected(self, catalog):
        txn = Transaction(catalog)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("t", (5, "e"))

    def test_double_commit_rejected(self, catalog):
        txn = Transaction(catalog)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_commit_keeps_changes(self, catalog):
        txn = Transaction(catalog)
        txn.insert("t", (3, "c"))
        txn.commit()
        assert len(catalog.table("t")) == 3


class TestWriteAheadLog:
    def test_replay_rebuilds_catalog(self, catalog):
        wal = WriteAheadLog()
        txn = Transaction(catalog, wal)
        txn.create_table("u", Schema.of(("a", INTEGER), ("p", FLOAT)))
        txn.insert("u", (1, 0.5))
        txn.insert("u", (2, 0.7))
        txn.commit()

        recovered = wal.replay()
        assert recovered.has_table("u")
        assert len(recovered.table("u")) == 2

    def test_replay_preserves_urelation_kind(self, catalog):
        wal = WriteAheadLog()
        txn = Transaction(catalog, wal)
        txn.create_table(
            "uu",
            Schema.of(("a", INTEGER), ("_v0", INTEGER), ("_d0", INTEGER), ("_p0", FLOAT)),
            kind=KIND_URELATION,
            properties={"payload_arity": 1, "cond_arity": 1},
        )
        txn.insert("uu", (1, 1, 0, 0.5))
        txn.commit()
        recovered = wal.replay()
        entry = recovered.entry("uu")
        assert entry.is_urelation
        assert entry.properties["cond_arity"] == 1

    def test_rolled_back_transaction_not_logged(self, catalog):
        wal = WriteAheadLog()
        txn = Transaction(catalog, wal)
        txn.create_table("gone", Schema.of(("a", INTEGER)))
        txn.rollback()
        assert len(wal) == 0
        assert not wal.replay().has_table("gone")

    def test_replay_applies_updates_and_deletes(self, catalog):
        wal = WriteAheadLog()
        txn = Transaction(catalog, wal)
        txn.create_table("v", Schema.of(("a", INTEGER)))
        tid = txn.insert("v", (1,))
        txn.update("v", tid, (2,))
        other = txn.insert("v", (3,))
        txn.delete("v", other)
        txn.commit()
        recovered = wal.replay()
        assert list(recovered.table("v").rows()) == [(2,)]


class TestWalReplayFidelity:
    """Regression tests: replay used to lose probabilistic state (variable
    registrations were never logged) and to match deleted/updated rows by
    value, which diverges on duplicate rows."""

    def test_replay_restores_variable_registry(self, catalog):
        from repro.core.variables import VariableRegistry

        wal = WriteAheadLog()
        registry = VariableRegistry()
        var = registry.scope().mint([{0: 0.2, 1: 0.8}])
        txn = Transaction(catalog, wal)
        txn.register_variable(registry, var, "choice", {0: 0.2, 1: 0.8})
        txn.commit()

        recovered_registry = VariableRegistry()
        wal.replay(registry=recovered_registry)
        assert recovered_registry.distribution(var) == {0: 0.2, 1: 0.8}
        assert recovered_registry.name(var) == "choice"
        # next-id advances past restored variables: no id collisions.
        assert recovered_registry.fresh({0: 1.0}) == var + 1

    def test_replay_deletes_by_tid_on_duplicate_rows(self, catalog):
        wal = WriteAheadLog()
        txn = Transaction(catalog, wal)
        txn.create_table("dup", Schema.of(("x", INTEGER)))
        first = txn.insert("dup", (7,))
        second = txn.insert("dup", (7,))
        third = txn.insert("dup", (7,))
        txn.delete("dup", second)
        txn.update("dup", third, (8,))
        txn.commit()

        recovered = wal.replay()
        assert list(recovered.table("dup").items()) == [
            (first, (7,)), (third, (8,)),
        ]

    def test_replay_preserves_tid_counter_across_delete(self, catalog):
        wal = WriteAheadLog()
        txn = Transaction(catalog, wal)
        txn.create_table("v", Schema.of(("x", INTEGER)))
        tid = txn.insert("v", (1,))
        txn.delete("v", tid)
        txn.commit()
        recovered = wal.replay()
        # A post-recovery insert must not reuse the deleted tid.
        assert recovered.table("v").insert((2,)) == tid + 1

    def test_replay_truncate(self, catalog):
        wal = WriteAheadLog()
        txn = Transaction(catalog, wal)
        txn.create_table("v", Schema.of(("x", INTEGER)))
        txn.insert("v", (1,))
        txn.truncate("v")
        txn.insert("v", (2,))
        txn.commit()
        recovered = wal.replay()
        assert list(recovered.table("v").rows()) == [(2,)]


class TestBulkTransactionMethods:
    def test_insert_many_rollback(self, catalog):
        txn = Transaction(catalog)
        txn.insert_many("t", [(3, "c"), (4, "d")])
        assert len(catalog.table("t")) == 4
        txn.rollback()
        assert len(catalog.table("t")) == 2

    def test_update_where_rollback(self, catalog):
        txn = Transaction(catalog)
        txn.update_where("t", lambda row: row[0] == 1, lambda row: (99, row[1]))
        assert catalog.table("t").get(1) == (99, "a")
        txn.rollback()
        assert catalog.table("t").get(1) == (1, "a")

    def test_truncate_rollback(self, catalog):
        txn = Transaction(catalog)
        txn.truncate("t")
        assert len(catalog.table("t")) == 0
        txn.rollback()
        assert sorted(catalog.table("t").rows()) == [(1, "a"), (2, "b")]


class TestLockManager:
    def test_shared_locks_coexist(self):
        locks = LockManager()
        locks.acquire_shared("t")
        locks.acquire_shared("t")
        locks.release_shared("t")
        locks.release_shared("t")

    def test_exclusive_blocks_shared(self):
        locks = LockManager()
        locks.acquire_exclusive("t")
        grabbed = []

        def reader():
            locks.acquire_shared("t", timeout=5)
            grabbed.append(True)
            locks.release_shared("t")

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=0.2)
        assert not grabbed  # still blocked
        locks.release_exclusive("t")
        thread.join(timeout=5)
        assert grabbed

    def test_shared_blocks_exclusive_until_released(self):
        locks = LockManager()
        locks.acquire_shared("t")
        acquired = []

        def writer():
            locks.acquire_exclusive("t", timeout=5)
            acquired.append(True)
            locks.release_exclusive("t")

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=0.2)
        assert not acquired
        locks.release_shared("t")
        thread.join(timeout=5)
        assert acquired

    def test_locks_are_per_table(self):
        locks = LockManager()
        locks.acquire_exclusive("a")
        locks.acquire_exclusive("b")  # no deadlock: different tables
        locks.release_exclusive("a")
        locks.release_exclusive("b")

    def test_release_unheld_raises(self):
        locks = LockManager()
        with pytest.raises(TransactionError):
            locks.release_shared("t")
        with pytest.raises(TransactionError):
            locks.release_exclusive("t")

    def test_timeout(self):
        locks = LockManager()
        locks.acquire_exclusive("t")
        result = []

        def waiter():
            try:
                locks.acquire_shared("t", timeout=0.05)
                result.append("acquired")
            except TransactionError:
                result.append("timeout")

        thread = threading.Thread(target=waiter)
        thread.start()
        thread.join(timeout=5)
        assert result == ["timeout"]
        locks.release_exclusive("t")

    def test_shared_to_exclusive_upgrade(self):
        """Regression: a thread holding a shared lock used to deadlock
        forever in acquire_exclusive, waiting on its own reader count."""
        locks = LockManager()
        locks.acquire_shared("t")
        locks.acquire_exclusive("t", timeout=1)  # must not block on itself
        locks.release_exclusive("t")
        locks.release_shared("t")
        # The table is fully free again afterwards.
        locks.acquire_exclusive("t", timeout=1)
        locks.release_exclusive("t")

    def test_upgrade_waits_for_other_readers(self):
        locks = LockManager()
        upgraded = []
        reader_holding = threading.Event()
        release_reader = threading.Event()

        def other_reader():
            locks.acquire_shared("t", timeout=5)
            reader_holding.set()
            release_reader.wait(timeout=5)
            locks.release_shared("t")

        def upgrader():
            locks.acquire_shared("t", timeout=5)
            locks.acquire_exclusive("t", timeout=5)
            upgraded.append(True)
            locks.release_exclusive("t")
            locks.release_shared("t")

        reader = threading.Thread(target=other_reader)
        reader.start()
        assert reader_holding.wait(timeout=5)
        thread = threading.Thread(target=upgrader)
        thread.start()
        thread.join(timeout=0.2)
        assert not upgraded  # still waiting on the other reader's hold
        release_reader.set()
        reader.join(timeout=5)
        thread.join(timeout=5)
        assert upgraded

    def test_competing_upgrades_fail_fast(self):
        """Two shared holders both upgrading would deadlock on each other;
        the second request must raise instead of hanging."""
        locks = LockManager()
        locks.acquire_shared("t")  # main thread holds shared
        started = threading.Event()
        outcome = []

        def first_upgrader():
            locks.acquire_shared("t", timeout=5)
            started.set()
            try:
                locks.acquire_exclusive("t", timeout=5)
                outcome.append("upgraded")
                locks.release_exclusive("t")
            except TransactionError:
                outcome.append("error")
            locks.release_shared("t")

        thread = threading.Thread(target=first_upgrader)
        thread.start()
        assert started.wait(timeout=5)
        # Main also holds shared and now competes for the upgrade.
        with pytest.raises(TransactionError, match="upgrade deadlock"):
            locks.acquire_exclusive("t", timeout=5)
        # Main backs off: releasing its shared hold unblocks the winner.
        locks.release_shared("t")
        thread.join(timeout=5)
        assert outcome == ["upgraded"]

    def test_new_readers_queue_behind_pending_upgrade(self):
        """A pending upgrade must not be starved by a stream of new
        readers: late shared requests queue behind it."""
        import time

        locks = LockManager()
        locks.acquire_shared("t")  # main's hold keeps the upgrade pending
        worker_ready = threading.Event()
        release_worker = threading.Event()

        def worker():
            locks.acquire_shared("t", timeout=5)
            worker_ready.set()
            try:
                locks.acquire_exclusive("t", timeout=5)  # waits on main
                release_worker.wait(timeout=5)
                locks.release_exclusive("t")
            finally:
                locks.release_shared("t")

        blocked = []

        def late_reader():
            try:
                locks.acquire_shared("t", timeout=0.05)
                blocked.append("acquired")
                locks.release_shared("t")
            except TransactionError:
                blocked.append("timeout")

        thread = threading.Thread(target=worker)
        thread.start()
        assert worker_ready.wait(timeout=5)
        time.sleep(0.05)  # let the worker enter its upgrade wait
        reader = threading.Thread(target=late_reader)
        reader.start()
        reader.join(timeout=5)
        assert blocked == ["timeout"]  # queued behind the upgrader
        locks.release_shared("t")  # main backs off; worker upgrades
        release_worker.set()
        thread.join(timeout=5)

    def test_reader_unblocks_after_upgrade_timeout(self):
        """When a pending upgrade times out, readers queued behind it must
        be woken -- clearing the marker without notify_all left them
        blocked even though shared access was admissible again."""
        import time

        locks = LockManager()
        locks.acquire_shared("t")  # main's hold makes the upgrade pend
        events = []
        upgrader_holding = threading.Event()
        let_upgrader_finish = threading.Event()

        def upgrader():
            locks.acquire_shared("t", timeout=5)
            upgrader_holding.set()
            try:
                locks.acquire_exclusive("t", timeout=0.2)
            except TransactionError:
                events.append("upgrade-timeout")
            # Keep the shared hold: the queued reader must be woken by the
            # timeout cleanup itself, not by this thread's release.
            let_upgrader_finish.wait(timeout=5)
            locks.release_shared("t")

        def late_reader():
            locks.acquire_shared("t", timeout=5)
            events.append("reader-acquired")
            locks.release_shared("t")

        upgrade_thread = threading.Thread(target=upgrader)
        upgrade_thread.start()
        assert upgrader_holding.wait(timeout=5)
        time.sleep(0.05)  # let the upgrader enter its wait
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        reader_thread.join(timeout=5)
        assert events == ["upgrade-timeout", "reader-acquired"]
        let_upgrader_finish.set()
        upgrade_thread.join(timeout=5)
        locks.release_shared("t")

    def test_conflicting_requests_granted_in_arrival_order(self):
        """Regression: a thread that released and re-requested a table
        re-acquired it before any waiter woke, starving the waiters."""
        locks = LockManager()
        locks.acquire_exclusive("t")
        order = []

        def writer(tag):
            locks.acquire_exclusive("t", timeout=5)
            order.append(tag)
            locks.release_exclusive("t")

        waiter = threading.Thread(target=writer, args=("waiter",))
        waiter.start()
        _wait_for_queue(locks, 1)
        locks.release_exclusive("t")
        writer("releaser")  # back at once: must queue behind the waiter
        waiter.join(timeout=5)
        assert order == ["waiter", "releaser"]

    def test_shared_all_holds_nothing_while_it_waits(self):
        locks = LockManager()
        locks.acquire_exclusive("b")  # a transaction that wrote b ...
        granted = []

        def capture():
            granted.append(locks.acquire_shared_all(["b", "a"], timeout=5))
            locks.release_shared("a")
            locks.release_shared("b")

        thread = threading.Thread(target=capture)
        thread.start()
        _wait_for_queue(locks, 1)
        # ... now takes a: the waiting multi-table request neither holds a
        # nor holds back a thread that already owns a table lock.
        locks.acquire_exclusive("a", timeout=0.5)
        assert not granted
        locks.release_exclusive("a")
        locks.release_exclusive("b")
        thread.join(timeout=5)
        assert granted == [True]  # granted as a whole, after a wait

    def test_waiting_shared_all_holds_back_new_writers(self):
        """A write stream on one of its tables must not starve a
        multi-table request: a thread that holds no table lock yet queues
        behind it."""
        locks = LockManager()
        locks.acquire_exclusive("b")
        events = []

        def capture():
            locks.acquire_shared_all(["a", "b"], timeout=5)
            events.append("capture")
            locks.release_shared("a")
            locks.release_shared("b")

        def new_writer():
            locks.acquire_exclusive("a", timeout=5)
            events.append("writer")
            locks.release_exclusive("a")

        first = threading.Thread(target=capture)
        first.start()
        _wait_for_queue(locks, 1)
        second = threading.Thread(target=new_writer)
        second.start()
        _wait_for_queue(locks, 2)
        assert events == []
        locks.release_exclusive("b")
        first.join(timeout=5)
        second.join(timeout=5)
        assert events == ["capture", "writer"]

    def test_growing_transaction_skips_writer_queued_behind_shared_all(self):
        """The exception has to be transitive: a lock-less writer queued
        behind a multi-table request waits, through it, for the
        transaction that holds b -- so that transaction must not queue
        behind the writer either."""
        locks = LockManager()
        locks.acquire_exclusive("b")
        events = []

        def capture():
            locks.acquire_shared_all(["a", "b"], timeout=5)
            events.append("capture")
            locks.release_shared("a")
            locks.release_shared("b")

        def new_writer():
            locks.acquire_exclusive("a", timeout=5)
            events.append("writer")
            locks.release_exclusive("a")

        threads = []
        for length, target in enumerate((capture, new_writer), start=1):
            threads.append(threading.Thread(target=target))
            threads[-1].start()
            _wait_for_queue(locks, length)
        locks.acquire_exclusive("a", timeout=0.5)  # a is free: no wait
        assert events == []
        locks.release_exclusive("a")
        locks.release_exclusive("b")
        for thread in threads:
            thread.join(timeout=5)
        assert events == ["capture", "writer"]

    def test_concurrent_counter_with_exclusive_lock(self, catalog):
        """Many writers incrementing a row stay serializable under the lock."""
        locks = LockManager()
        table = catalog.table("t")

        def bump():
            for _ in range(50):
                locks.acquire_exclusive("t", timeout=10)
                try:
                    x, s = table.get(1)
                    table.update(1, (x + 1, s))
                finally:
                    locks.release_exclusive("t")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert table.get(1)[0] == 1 + 200
