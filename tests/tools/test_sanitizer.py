"""Runtime concurrency sanitizer tests.

The unit tests drive a standalone :class:`ConcurrencySanitizer` (never the
process singleton, so they cannot pollute the autouse ``_sanitizer_guard``
teardown).  The integration tests flip ``REPRO_SANITIZE=1`` for real engine
objects and reset the singleton afterwards.
"""

import threading

import pytest

from repro.db import MayBMS
from repro.engine.sanitizer import (
    ConcurrencySanitizer,
    SanitizedLock,
    get_sanitizer,
    reset_sanitizer,
    wrap_lock,
)
from repro.errors import SanitizerError


@pytest.fixture
def san():
    return ConcurrencySanitizer()


# -- lock-order cycle detection ------------------------------------------------


class TestCycleDetection:
    def test_inverted_two_lock_order_raises(self, san):
        """Two locks taken in deliberately inverted order: A->B then B->A."""
        lock_a = SanitizedLock("A", threading.Lock(), san)
        lock_b = SanitizedLock("B", threading.Lock(), san)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with pytest.raises(SanitizerError, match="lock-order cycle"):
                lock_a.acquire()
            # the failed acquire rolled itself back: B is still cleanly held
        assert san.stats()["sanitizer_cycles"] == 1
        assert san.stats()["sanitizer_lock_nodes"] == 2

    def test_transitive_cycle_through_third_lock(self, san):
        # A->B and B->C observed; C->A closes a 3-cycle no pairwise check sees.
        san.note_acquired("A")
        san.note_acquired("B")
        san.note_released("B")
        san.note_released("A")
        san.note_acquired("B")
        san.note_acquired("C")
        san.note_released("C")
        san.note_released("B")
        san.note_acquired("C")
        message = san.note_acquired("A")
        assert message is not None and "C" in message and "A" in message

    def test_consistent_order_is_clean(self, san):
        for _ in range(3):
            san.note_acquired("A")
            san.note_acquired("B")
            san.note_released("B")
            san.note_released("A")
        assert san.note_acquired("A") is None
        assert san.note_acquired("B") is None
        san.note_released("B")
        san.note_released("A")
        assert san.stats()["sanitizer_cycles"] == 0

    def test_shared_holds_do_not_create_edges(self, san):
        # Writers hold the store gate *shared* while taking exclusive table
        # locks; a checkpoint takes the gate *exclusive* with no table locks.
        # Shared holds must not graph, or this legal pattern looks cyclic.
        san.note_acquired("lockmgr:__store_gate__", mode="shared")
        assert san.note_acquired("lockmgr:<table>") is None
        san.note_released("lockmgr:<table>")
        san.note_released("lockmgr:__store_gate__")
        san.note_acquired("lockmgr:<table>")
        assert san.note_acquired("lockmgr:__store_gate__", mode="shared") is None
        san.note_released("lockmgr:__store_gate__")
        san.note_released("lockmgr:<table>")
        assert san.stats()["sanitizer_cycles"] == 0

    def test_reentrant_acquire_is_not_an_edge(self, san):
        lock = SanitizedLock("R", threading.RLock(), san)
        with lock:
            with lock:
                pass
        assert san.stats()["sanitizer_cycles"] == 0

    def test_foreign_ident_release(self, san):
        # LockManager grants can be released by a different thread (commit
        # worker): balances are keyed by the owning ident, not the caller.
        san.note_acquired("lockmgr:<table>", ident=4242)
        san.note_released("lockmgr:<table>", ident=4242)
        san.note_acquired("lockmgr:<table>", ident=4242)
        san.note_released("lockmgr:<table>", ident=4242)
        san.assert_clean()


# -- blocking-region guards ----------------------------------------------------


class TestBlockingGuards:
    def test_fsync_under_ordinary_lock_flags(self, san):
        san.note_acquired("SnapshotManager._mutex")
        message = san.blocking("fsync")
        assert message is not None and "SnapshotManager._mutex" in message
        assert san.stats()["sanitizer_fsync_violations"] == 1

    def test_fsync_allowlist(self, san):
        san.note_acquired("DurabilityManager._file_mutex")
        san.note_acquired("DurabilityManager._checkpoint_lock")
        assert san.blocking("fsync") is None

    def test_fsync_under_shared_gate_allowed_exclusive_flagged(self, san):
        san.note_acquired("lockmgr:__store_gate__", mode="shared")
        assert san.blocking("fsync") is None
        san.note_released("lockmgr:__store_gate__")
        san.note_acquired("lockmgr:__store_gate__", mode="exclusive")
        assert san.blocking("fsync") is not None


# -- resource balances ---------------------------------------------------------


class TestBalances:
    def test_pin_leak_fails_assert_clean(self, san):
        san.note_pin()
        san.note_pin()
        san.note_unpin()
        with pytest.raises(SanitizerError, match="pinned snapshot"):
            san.assert_clean()
        # assert_clean resets the balance so the next check starts clean
        san.assert_clean()

    def test_unpin_underflow_is_a_violation(self, san):
        san.note_unpin()
        with pytest.raises(SanitizerError, match="without matching pin"):
            san.assert_clean()

    def test_balanced_usage_is_clean(self, san):
        san.note_pin(3)
        san.note_unpin(3)
        san.assert_clean()
        assert san.stats()["sanitizer_violations_total"] == 0


# -- condition wrapping --------------------------------------------------------


class TestConditionWrapping:
    def test_wait_observed_as_release_and_reacquire(self, san):
        backing = SanitizedLock("cond", threading.Lock(), san, raise_inline=False)
        cond = threading.Condition(backing)
        released_during_wait = []

        def waker():
            with cond:
                # if wait() had not released, this acquire would deadlock;
                # record what the sanitizer thinks the waiter holds
                released_during_wait.append(san.stats()["sanitizer_lock_nodes"])
                cond.notify_all()

        with cond:
            threading.Thread(target=waker).start()
            assert cond.wait(timeout=5.0)
        assert released_during_wait  # the waker ran while we waited
        san.assert_clean()


# -- enablement plumbing -------------------------------------------------------


@pytest.fixture
def sanitized_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    reset_sanitizer()
    yield
    reset_sanitizer()


class TestEnablement:
    def test_disabled_returns_bare_primitives(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        reset_sanitizer()
        assert get_sanitizer() is None
        assert isinstance(wrap_lock("X"), type(threading.Lock()))

    def test_enabled_wraps_and_singleton_is_shared(self, sanitized_env):
        lock = wrap_lock("X")
        assert isinstance(lock, SanitizedLock)
        assert get_sanitizer() is get_sanitizer()

    def test_engine_end_to_end_clean_under_sanitizer(self, sanitized_env, tmp_path):
        """A durable store with MVCC reads and a checkpoint runs clean: no
        cycles, no blocking violations, balanced pins."""
        db = MayBMS(path=str(tmp_path / "store"), seed=7)
        try:
            assert isinstance(db._session_mutex, SanitizedLock)
            values = ", ".join(
                f"({g}, {k}, {1 + (g + k) % 3})" for g in range(4) for k in range(8)
            )
            db.execute_script(
                "create table t (g integer, k integer, w float);"
                f"insert into t values {values}"
            )
            rows = db.query(
                "select g, conf() as c from (repair key g, k in t weight by w) r"
                " group by g"
            ).rows
            assert len(rows) == 4
            db.checkpoint()
            stats = db.durability_stats()
            assert stats["sanitizer_violations_total"] == 0
            assert stats["sanitizer_pins_active"] == 0
            assert stats["sanitizer_lock_nodes"] > 0
            assert db.sanitizer_stats() == get_sanitizer().stats()
            get_sanitizer().assert_clean()
        finally:
            db.close()

    def test_sanitizer_group_served_over_the_wire(self, sanitized_env, tmp_path):
        from repro.client import Client
        from repro.server import MayBMSServer

        server = MayBMSServer(path=str(tmp_path / "store")).start()
        try:
            with Client("127.0.0.1", server.port) as client:
                client.execute("create table t (a integer, p float)")
                client.execute("insert into t values (1, 0.5), (2, 0.9)")
                groups = client.server_stats()
        finally:
            server.close()
        san = groups["sanitizer"]
        assert san["sanitizer_violations_total"] == 0
        assert san["sanitizer_pins_active"] == 0
        assert san["sanitizer_lock_nodes"] > 0

    def test_sanitizer_stats_none_when_disabled(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        reset_sanitizer()
        db = MayBMS(seed=3)
        try:
            assert db.sanitizer_stats() is None
            assert db.durability_stats() is None  # in-memory session
        finally:
            db.close()
