"""Runtime concurrency sanitizer for the lock/MVCC/WAL stack.

Enabled with ``REPRO_SANITIZE=1``.  When on, the engine wraps its
synchronisation primitives (:func:`wrap_lock` / :func:`wrap_condition`) and
notes logical :class:`~repro.engine.transactions.LockManager` grants, so the
sanitizer can:

- record the runtime lock-acquisition-order graph and detect cycles
  (potential deadlocks) the moment the second edge direction appears;
- flag locks held across ``fsync`` (:func:`guard_blocking`), with a small
  allowlist for locks whose job *is* to serialise it (the WAL file mutex,
  the checkpoint handoff lock, and shared-mode logical locks held by a
  committing writer);
- track the MVCC pin/unpin balance, so leaks surface as a nonzero gauge.

Violations raise :class:`~repro.errors.SanitizerError` when running under
pytest (``PYTEST_CURRENT_TEST`` is set); otherwise they only increment
counters, which :meth:`ConcurrencySanitizer.stats` exposes and
``MayBMS.durability_stats()`` / the server ``stats`` op merge in.  The
static mirror of this check is reprolint rule R002 against the committed
lock-hierarchy manifest (``tools/reprolint/lock_hierarchy.json``).

Everything here is dormant (plain ``threading`` primitives, no wrapping)
unless ``REPRO_SANITIZE`` is set, so production paths pay nothing.
"""

from __future__ import annotations

# reprolint: disable-file=R002 -- this module wraps *foreign* locks: its lock
# receivers (self._lock delegation, the singleton guard) have no static lock
# identity; the hierarchy is enforced on the wrapped engine locks themselves.

import os
import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import SanitizerError

__all__ = [
    "ConcurrencySanitizer",
    "SanitizedLock",
    "enabled",
    "get_sanitizer",
    "reset_sanitizer",
    "wrap_lock",
    "wrap_condition",
    "guard_blocking",
]

_MAX_VIOLATIONS = 64

# Locks that legitimately serialise an fsync: the WAL file mutex exists to
# order durable writes, and the checkpoint lock spans the whole two-phase
# checkpoint write by design.
_FSYNC_ALLOWED = {
    "DurabilityManager._file_mutex",
    "DurabilityManager._checkpoint_lock",
}
_GATE_NODE = "lockmgr:__store_gate__"


def enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def _in_pytest() -> bool:
    return "PYTEST_CURRENT_TEST" in os.environ


class _Hold:
    __slots__ = ("name", "mode", "count")

    def __init__(self, name: str, mode: str):
        self.name = name
        self.mode = mode
        self.count = 1


class ConcurrencySanitizer:
    """Process-wide concurrency invariant checker.

    All mutation happens under ``self._mutex`` and never calls back into
    engine code, so instrumenting the engine's own locks cannot deadlock
    the sanitizer.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        # thread ident -> stack of holds (LockManager grants may be
        # released by a foreign thread, hence the explicit ident keying)
        self._held: Dict[int, List[_Hold]] = {}
        self._edges: Dict[str, Set[str]] = {}
        self._edge_sites: Dict[Tuple[str, str], str] = {}
        self._violations: List[str] = []
        self._counters: Dict[str, int] = {
            "cycles": 0,
            "fsync_violations": 0,
            "pin_leaks": 0,
        }
        self._pins = 0

    # -- lock acquisition graph ---------------------------------------------
    def note_acquired(
        self,
        name: str,
        mode: str = "exclusive",
        ident: Optional[int] = None,
    ) -> Optional[str]:
        """Record that the calling (or ``ident``) thread now holds ``name``.

        Returns a violation message if this acquisition closes a cycle in
        the acquisition-order graph, else None.  The caller decides whether
        to raise (wrapped locks do under pytest; logical LockManager notes
        are record-only and surface via :meth:`assert_clean`).
        """
        tid = ident if ident is not None else threading.get_ident()
        with self._mutex:
            stack = self._held.setdefault(tid, [])
            for hold in stack:
                if hold.name == name:
                    hold.count += 1
                    if mode == "exclusive":
                        hold.mode = "exclusive"
                    return None
            message: Optional[str] = None
            # Only exclusive-mode holds participate in the order graph:
            # shared holds (e.g. the store gate taken shared by every
            # writer) cannot close a wait cycle on their own, and graphing
            # them reports false inversions for legal shared-after-exclusive
            # patterns inside explicit transactions.
            if mode == "exclusive":
                for hold in stack:
                    if hold.mode != "exclusive":
                        continue
                    edge = (hold.name, name)
                    if name not in self._edges.get(hold.name, set()):
                        path = self._path(name, hold.name)
                        if path is not None:
                            message = (
                                "lock-order cycle: held %r while acquiring %r, but the "
                                "reverse order was already observed (%s)"
                                % (hold.name, name, " -> ".join(path + [name]))
                            )
                    self._edges.setdefault(hold.name, set()).add(name)
                    self._edge_sites.setdefault(edge, "thread-%d" % tid)
            stack.append(_Hold(name, mode))
            if message is not None:
                self._record("cycles", message)
            return message

    def note_released(self, name: str, ident: Optional[int] = None) -> None:
        tid = ident if ident is not None else threading.get_ident()
        with self._mutex:
            stack = self._held.get(tid)
            if not stack:
                return
            for idx in range(len(stack) - 1, -1, -1):
                if stack[idx].name == name:
                    stack[idx].count -= 1
                    if stack[idx].count <= 0:
                        del stack[idx]
                    if not stack:
                        self._held.pop(tid, None)
                    return

    def _path(self, src: str, dst: str) -> Optional[List[str]]:
        """Shortest edge path src -> ... -> dst, or None (caller holds mutex)."""
        if src == dst:
            return [src]
        frontier = [[src]]
        seen = {src}
        while frontier:
            next_frontier: List[List[str]] = []
            for path in frontier:
                for nxt in sorted(self._edges.get(path[-1], ())):
                    if nxt == dst:
                        return path + [dst]
                    if nxt not in seen:
                        seen.add(nxt)
                        next_frontier.append(path + [nxt])
            frontier = next_frontier
        return None

    # -- blocking-region checks ----------------------------------------------
    def blocking(self, kind: str) -> Optional[str]:
        """Check the calling thread holds no disallowed locks across a
        blocking region (``kind``: 'fsync', the one the engine guards)."""
        tid = threading.get_ident()
        with self._mutex:
            stack = self._held.get(tid, [])
            offenders = [
                hold.name for hold in stack if not self._fsync_allowed(hold)
            ]
            if not offenders:
                return None
            message = "lock(s) held across %s: %s" % (kind, ", ".join(sorted(offenders)))
            self._record("fsync_violations", message)
            return message

    @staticmethod
    def _fsync_allowed(hold: _Hold) -> bool:
        if hold.name.startswith("lockmgr:"):
            # A committing writer fsyncs while holding its shared gate slot
            # and exclusive table locks; only an *exclusive* store gate (a
            # checkpoint's capture window) must never fsync.  An MVCC
            # capture's shared table grant is dropped before the statement
            # runs, so it never reaches a blocking region.
            return not (hold.name == _GATE_NODE and hold.mode == "exclusive")
        return hold.name in _FSYNC_ALLOWED

    # -- resource balances -----------------------------------------------------
    def note_pin(self, count: int = 1) -> None:
        with self._mutex:
            self._pins += count

    def note_unpin(self, count: int = 1) -> None:
        with self._mutex:
            self._pins -= count
            if self._pins < 0:
                self._record(
                    "pin_leaks",
                    "unpin_snapshot without matching pin_snapshot (balance %d)" % self._pins,
                )
                self._pins = 0

    # -- reporting -------------------------------------------------------------
    def _record(self, counter: str, message: str) -> None:
        """Caller holds ``self._mutex``."""
        self._counters[counter] = self._counters.get(counter, 0) + 1
        if len(self._violations) < _MAX_VIOLATIONS:
            self._violations.append(message)

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            active_pins = self._pins
            return {
                "sanitizer_cycles": self._counters["cycles"],
                "sanitizer_fsync_violations": self._counters["fsync_violations"],
                "sanitizer_pin_leaks": self._counters["pin_leaks"],
                "sanitizer_pins_active": active_pins,
                "sanitizer_lock_nodes": len(
                    set(self._edges) | {n for targets in self._edges.values() for n in targets}
                ),
                "sanitizer_violations_total": sum(self._counters.values()),
            }

    def drain_violations(self) -> List[str]:
        with self._mutex:
            drained, self._violations = self._violations, []
            return drained

    def assert_clean(self) -> None:
        """Raise if any violation was recorded, or the pin balance leaked.

        Intended for end-of-test fixtures: resets the violation list (but
        not the edge graph -- order knowledge accumulates across tests).
        """
        with self._mutex:
            problems = list(self._violations)
            self._violations = []
            if self._pins > 0:
                problems.append("pinned snapshot versions leaked: %d still pinned" % self._pins)
                self._counters["pin_leaks"] += 1
                self._pins = 0
        if problems:
            raise SanitizerError(
                "concurrency sanitizer found %d violation(s):\n  %s"
                % (len(problems), "\n  ".join(problems))
            )


class SanitizedLock:
    """Wraps a ``threading.Lock``/``RLock`` to note acquisitions/releases.

    ``raise_inline=False`` defers violations to :meth:`assert_clean` (used
    for Condition-backing locks, where raising from inside ``wait()`` would
    corrupt the condition's own bookkeeping).
    """

    def __init__(
        self,
        name: str,
        lock,
        sanitizer: ConcurrencySanitizer,
        raise_inline: bool = True,
    ):
        self.name = name
        self._lock = lock
        self._san = sanitizer
        self._raise_inline = raise_inline

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)  # reprolint: disable=R001 -- delegation: SanitizedLock IS the lock; release pairing is its caller's contract
        if acquired:
            message = self._san.note_acquired(self.name)
            if message and self._raise_inline and _in_pytest():
                self._san.note_released(self.name)
                self._lock.release()
                raise SanitizerError(message)
        return acquired

    def release(self) -> None:
        self._san.note_released(self.name)
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()


_singleton: Optional[ConcurrencySanitizer] = None
_singleton_mutex = threading.Lock()


def get_sanitizer() -> Optional[ConcurrencySanitizer]:
    """The process-wide sanitizer, or None when REPRO_SANITIZE is off."""
    if not enabled():
        return None
    global _singleton
    if _singleton is None:
        with _singleton_mutex:
            if _singleton is None:
                _singleton = ConcurrencySanitizer()
    return _singleton


def reset_sanitizer() -> None:
    """Drop the process-wide sanitizer (test isolation)."""
    global _singleton
    with _singleton_mutex:
        _singleton = None


def wrap_lock(name: str, lock=None, raise_inline: bool = True):
    """Return ``lock`` (default: a fresh Lock) wrapped for sanitizing, or the
    bare lock when the sanitizer is off."""
    if lock is None:
        lock = threading.Lock()
    sanitizer = get_sanitizer()
    if sanitizer is None:
        return lock
    return SanitizedLock(name, lock, sanitizer, raise_inline=raise_inline)


def wrap_condition(name: str) -> "threading.Condition":
    """A Condition whose backing lock is sanitized (when enabled), so
    ``wait()`` is observed as release + re-acquire."""
    sanitizer = get_sanitizer()
    if sanitizer is None:
        return threading.Condition()
    backing = SanitizedLock(name, threading.Lock(), sanitizer, raise_inline=False)
    return threading.Condition(backing)


def guard_blocking(kind: str) -> None:
    """Assert the calling thread holds no disallowed locks across a blocking
    region.  No-op when the sanitizer is off; raises under pytest."""
    sanitizer = get_sanitizer()
    if sanitizer is None:
        return
    message = sanitizer.blocking(kind)
    if message and _in_pytest():
        raise SanitizerError(message)
