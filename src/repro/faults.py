"""Deterministic fault injection: failpoints for the durability stack.

Every production-shaped failure surface of the engine -- the fsynced WAL,
two-phase checkpoints, content-addressed segments, and the socket
server -- carries named *failpoint* sites::

    from repro import faults
    ...
    faults.failpoint("wal.fsync")          # raising site
    directive = faults.failpoint("segment.read")   # cooperative site

A site is a **no-op unless armed**: :func:`failpoint` is one global load
and an ``is None`` test when nothing is armed, so production paths pay
nothing measurable.  Arming installs a process-global
:class:`FaultRegistry` holding one *spec* per site; when a site's
deterministic trigger fires, the registry either raises (``error`` /
``enospc`` / ``fault``), hard-kills the process (``crash`` -- the moral
equivalent of ``kill -9``), sleeps (``delay:<ms>``), or returns a
*directive string* that the site itself interprets (``torn`` writes,
``corrupt`` / ``truncate`` reads, ``drop`` connections).  Sites that
ignore directives treat them as raising ``fault``.

Spec syntax (also the ``REPRO_FAULTS`` environment variable)::

    REPRO_FAULTS="wal.fsync=error@3,segment.write=enospc%0.01"

    site=action            fire on every hit
    site=action@N          fire exactly once, on the Nth hit
    site=action/K          fire on every Kth hit
    site=action%P          fire each hit with probability P (seeded)

Actions: ``error`` (``OSError(EIO)``), ``enospc`` (``OSError(ENOSPC)``),
``fault`` (:class:`~repro.errors.FaultInjected`), ``crash``
(``os._exit(137)``, no cleanup -- simulates power loss), ``exit``
(``os._exit(1)``), ``delay:<ms>`` (sleep in 10 ms slices so statement
timeouts can interrupt), and the cooperative directives ``torn``,
``corrupt``, ``truncate``, ``drop``, ``short``.

Probabilistic triggers draw from one :class:`random.Random` seeded like
``REPRO_SEED`` (explicitly via :func:`arm`, or ``REPRO_FAULTS_SEED``),
so a failing torture run replays bit-identically from its printed seed.

Arming surfaces: ``REPRO_FAULTS`` (read at import, so a server started
as a child process inherits armed faults through the environment),
``MayBMS(faults=...)``, and the server's ``faults`` wire operation
(subprocess tests arm a live server without restarting it).  Per-site
hit/fired counters are exported by :func:`stats` and merged into the
server ``stats`` op, so a test can prove a listed site actually fired.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from typing import Any, Dict, Optional, Union

from repro.errors import FaultInjected

#: Directive actions a cooperative site interprets itself; the registry
#: returns them from :func:`failpoint` instead of raising.
DIRECTIVES = frozenset({"torn", "corrupt", "truncate", "drop", "short"})

#: The failpoint catalog: every site compiled into the engine, with the
#: failure it simulates.  Tests iterate this to prove each site fires.
SITES = {
    "wal.open": "opening the write-ahead log file fails",
    "wal.write": "WAL append fails (torn: half the buffer reaches disk)",
    "wal.fsync": "fsync of appended WAL frames fails",
    "wal.rotate": "WAL rotation during checkpoint prepare fails",
    "checkpoint.prepare": "checkpoint capture under the store gate fails",
    "checkpoint.prepared": "between prepare and commit (crash window)",
    "checkpoint.fsync": "fsync of a checkpoint artifact fails",
    "checkpoint.manifest.write": "writing the manifest tmp file fails",
    "checkpoint.manifest.rename": "atomic manifest rename fails",
    "segment.write": "writing a column segment fails (e.g. ENOSPC)",
    "segment.read": "segment read fails (corrupt: bit flip; truncate)",
    "segment.decode": "segment payload decode fails",
    "recovery.manifest.read": "reading a checkpoint manifest fails",
    "wire.send": "connection drops mid-response (drop/torn) or errors",
    "wire.recv": "connection drops mid-request",
    "server.reply.delay": "server delays a statement reply (delay:<ms>)",
}


class _Spec:
    """One armed site: an action plus a deterministic trigger."""

    __slots__ = ("site", "action", "argument", "trigger", "operand", "spent")

    def __init__(
        self,
        site: str,
        action: str,
        argument: float,
        trigger: str,
        operand: float,
    ):
        self.site = site
        self.action = action
        self.argument = argument  # delay milliseconds
        self.trigger = trigger  # "always" | "nth" | "every" | "prob"
        self.operand = operand
        self.spent = False  # "nth" fires exactly once

    def describe(self) -> str:
        suffix = {
            "always": "",
            "nth": f"@{int(self.operand)}",
            "every": f"/{int(self.operand)}",
            "prob": f"%{self.operand:g}",
        }[self.trigger]
        action = self.action
        if action == "delay":
            action = f"delay:{self.argument:g}"
        return f"{action}{suffix}"


def parse_spec(text: str) -> Dict[str, _Spec]:
    """Parse a ``site=action@trigger,...`` spec string.

    Raises :class:`ValueError` on unknown sites, actions, or malformed
    triggers -- arming must fail loudly, a typo that silently arms
    nothing would let a torture run pass vacuously.
    """
    specs: Dict[str, _Spec] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"fault spec {part!r} is not site=action[...]")
        site, _, rest = part.partition("=")
        site = site.strip()
        if site not in SITES:
            raise ValueError(
                f"unknown failpoint site {site!r} (see repro.faults.SITES)"
            )
        rest = rest.strip()
        trigger, operand = "always", 0.0
        for marker, name in (("@", "nth"), ("/", "every"), ("%", "prob")):
            if marker in rest:
                rest, _, raw = rest.partition(marker)
                try:
                    operand = float(raw)
                except ValueError:
                    raise ValueError(
                        f"fault trigger {marker}{raw!r} on {site!r} is not a number"
                    ) from None
                trigger = name
                break
        action, argument = rest, 0.0
        if action.startswith("delay"):
            action, _, raw = action.partition(":")
            argument = float(raw) if raw else 10.0
        known = {"error", "enospc", "fault", "crash", "exit", "delay"} | DIRECTIVES
        if action not in known:
            raise ValueError(f"unknown fault action {action!r} on {site!r}")
        if trigger == "nth" and operand < 1:
            raise ValueError(f"@N trigger on {site!r} needs N >= 1")
        if trigger == "every" and operand < 1:
            raise ValueError(f"/K trigger on {site!r} needs K >= 1")
        if trigger == "prob" and not 0.0 <= operand <= 1.0:
            raise ValueError(f"%P trigger on {site!r} needs P in [0, 1]")
        specs[site] = _Spec(site, action, argument, trigger, operand)
    return specs


class FaultRegistry:
    """Armed failpoints plus per-site hit accounting.

    Thread-safe: sites fire from server connection threads and the
    group commit leader.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._mutex = threading.Lock()
        self._specs: Dict[str, _Spec] = {}
        self._hits: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    # -- arming -------------------------------------------------------------
    def arm(self, spec: Union[str, Dict[str, str]]) -> None:
        """Add (or replace) armed sites from a spec string or mapping."""
        if isinstance(spec, dict):
            spec = ",".join(f"{site}={action}" for site, action in spec.items())
        parsed = parse_spec(spec)
        with self._mutex:
            self._specs.update(parsed)

    def disarm(self, site: Optional[str] = None) -> None:
        with self._mutex:
            if site is None:
                self._specs.clear()
            else:
                self._specs.pop(site, None)

    def armed_sites(self) -> Dict[str, str]:
        with self._mutex:
            return {site: spec.describe() for site, spec in self._specs.items()}

    # -- firing -------------------------------------------------------------
    def hit(self, site: str) -> Optional[str]:
        """Record one hit of ``site``; fire its armed action if triggered.

        Returns a directive string for cooperative actions, ``None``
        otherwise; raises for the error-shaped actions.
        """
        with self._mutex:
            count = self._hits.get(site, 0) + 1
            self._hits[site] = count
            spec = self._specs.get(site)
            if spec is None or not self._triggered(spec, count):
                return None
            self._fired[site] = self._fired.get(site, 0) + 1
            action, argument = spec.action, spec.argument
        return self._perform(site, action, argument)

    def _triggered(self, spec: _Spec, count: int) -> bool:
        if spec.trigger == "nth":
            if spec.spent or count < int(spec.operand):
                return False
            spec.spent = True
            return True
        if spec.trigger == "every":
            return count % int(spec.operand) == 0
        if spec.trigger == "prob":
            return self._rng.random() < spec.operand
        return True

    @staticmethod
    def _perform(site: str, action: str, argument: float) -> Optional[str]:
        if action in DIRECTIVES:
            return action
        if action == "error":
            raise OSError(errno.EIO, f"injected I/O error at failpoint {site!r}")
        if action == "enospc":
            raise OSError(
                errno.ENOSPC, f"injected ENOSPC at failpoint {site!r}"
            )
        if action == "fault":
            raise FaultInjected(f"injected fault at failpoint {site!r}")
        if action == "crash":
            os._exit(137)  # kill -9 semantics: no atexit, no flushing
        if action == "exit":
            os._exit(1)
        if action == "delay":
            # Sliced sleep: a statement-timeout async abort lands between
            # bytecodes, which a single long C-level sleep would outlast.
            deadline = time.monotonic() + argument / 1000.0
            while time.monotonic() < deadline:
                time.sleep(0.01)
            return None
        raise FaultInjected(f"unhandled fault action {action!r} at {site!r}")

    # -- accounting ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._mutex:
            return {
                "seed": self.seed,
                "armed": {s: spec.describe() for s, spec in self._specs.items()},
                "hits": dict(self._hits),
                "fired": dict(self._fired),
            }


#: The process-global registry; ``None`` means every failpoint is free.
_ACTIVE: Optional[FaultRegistry] = None


def failpoint(site: str) -> Optional[str]:
    """The fault injection site.  Free (one global load + ``is None``)
    unless a registry is armed; see the module docstring for semantics."""
    registry = _ACTIVE
    if registry is None:
        return None
    return registry.hit(site)


def arm(spec: Union[str, Dict[str, str]], seed: Optional[int] = None) -> FaultRegistry:
    """Arm the process-global registry (creating it if needed)."""
    global _ACTIVE
    registry = _ACTIVE
    if registry is None or (seed is not None and registry.seed != int(seed)):
        registry = FaultRegistry(seed=0 if seed is None else seed)
    registry.arm(spec)
    _ACTIVE = registry
    return registry


def disarm() -> None:
    """Disarm everything; failpoints return to their free no-op path."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultRegistry]:
    return _ACTIVE


def stats() -> Optional[Dict[str, Any]]:
    """The active registry's counters, or None when disarmed."""
    registry = _ACTIVE
    if registry is None:
        return None
    return registry.stats()


def _arm_from_environment() -> None:
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return
    seed = int(os.environ.get("REPRO_FAULTS_SEED", os.environ.get("REPRO_SEED", "0")))
    arm(spec, seed=seed)


# Import-time arming makes REPRO_FAULTS reach a server started as a child
# process: it imports this module with the parent's environment, so its
# sites are armed without any plumbing.
_arm_from_environment()
