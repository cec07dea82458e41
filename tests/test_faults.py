"""Deterministic fault injection: registry semantics and site coverage.

The second half is the failpoint *catalog audit*: every site listed in
:data:`repro.faults.SITES` must provably fire under a real workload.  A site that is
compiled into the engine but never hit would let torture runs pass
vacuously, so ``test_catalog_is_fully_covered`` fails the suite whenever
a new site is added without coverage here.
"""

import errno
import os
import subprocess
import sys

import pytest

from repro import MayBMS, faults
from repro.client import Client
from repro.errors import FaultInjected
from repro.faults import FaultRegistry, parse_spec
from serving import serve


class TestSpecParsing:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint site"):
            parse_spec("wal.fsnyc=error")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            parse_spec("wal.fsync=explode")

    def test_malformed_trigger_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_spec("wal.fsync=error@soon")

    def test_invalid_operands_rejected(self):
        with pytest.raises(ValueError, match="@N"):
            parse_spec("wal.fsync=error@0")
        with pytest.raises(ValueError, match="/K"):
            parse_spec("wal.fsync=error/0")
        with pytest.raises(ValueError, match="P in"):
            parse_spec("wal.fsync=error%1.5")

    def test_describe_round_trips(self):
        spec = "wal.fsync=error@3,segment.write=enospc%0.25,wire.send=drop/2"
        registry = FaultRegistry()
        registry.arm(spec)
        assert registry.armed_sites() == {
            "wal.fsync": "error@3",
            "segment.write": "enospc%0.25",
            "wire.send": "drop/2",
        }

    def test_dict_arming(self):
        registry = FaultRegistry()
        registry.arm({"wal.fsync": "error@2", "segment.read": "corrupt"})
        assert set(registry.armed_sites()) == {"wal.fsync", "segment.read"}


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        registry = FaultRegistry()
        registry.arm("wal.fsync=fault@3")
        assert registry.hit("wal.fsync") is None
        assert registry.hit("wal.fsync") is None
        with pytest.raises(FaultInjected):
            registry.hit("wal.fsync")
        for _ in range(5):
            assert registry.hit("wal.fsync") is None  # spent
        stats = registry.stats()
        assert stats["hits"]["wal.fsync"] == 8
        assert stats["fired"]["wal.fsync"] == 1

    def test_every_kth_fires_periodically(self):
        registry = FaultRegistry()
        registry.arm("wal.fsync=fault/3")
        fired = []
        for i in range(1, 10):
            try:
                registry.hit("wal.fsync")
            except FaultInjected:
                fired.append(i)
        assert fired == [3, 6, 9]

    def test_error_actions_carry_errno(self):
        registry = FaultRegistry()
        registry.arm("wal.fsync=error,segment.write=enospc")
        with pytest.raises(OSError) as eio:
            registry.hit("wal.fsync")
        assert eio.value.errno == errno.EIO
        with pytest.raises(OSError) as enospc:
            registry.hit("segment.write")
        assert enospc.value.errno == errno.ENOSPC

    def test_directives_returned_not_raised(self):
        registry = FaultRegistry()
        registry.arm("segment.read=corrupt,wire.send=drop@1")
        assert registry.hit("segment.read") == "corrupt"
        assert registry.hit("wire.send") == "drop"

    def test_delay_returns_quickly_for_zero(self):
        registry = FaultRegistry()
        registry.arm("wal.fsync=delay:0")
        assert registry.hit("wal.fsync") is None

    def test_probabilistic_trigger_replays_from_seed(self):
        def pattern(seed):
            registry = FaultRegistry(seed=seed)
            registry.arm("wal.fsync=fault%0.4")
            out = []
            for _ in range(64):
                try:
                    registry.hit("wal.fsync")
                    out.append(0)
                except FaultInjected:
                    out.append(1)
            return out

        assert pattern(42) == pattern(42)
        assert pattern(42) != pattern(43)  # astronomically unlikely to tie
        assert 1 in pattern(42)  # P=0.4 over 64 draws fires at least once

    def test_unarmed_site_counts_hits_only(self):
        registry = FaultRegistry()
        registry.arm("wal.fsync=fault@99")
        assert registry.hit("segment.read") is None
        assert registry.stats()["hits"]["segment.read"] == 1
        assert "segment.read" not in registry.stats()["fired"]


class TestModuleArming:
    def test_disarmed_failpoint_is_none(self):
        faults.disarm()
        assert faults.failpoint("wal.fsync") is None
        assert faults.stats() is None
        assert faults.active() is None

    def test_arm_then_disarm(self):
        faults.arm("wal.fsync=fault@1")
        with pytest.raises(FaultInjected):
            faults.failpoint("wal.fsync")
        assert faults.stats()["fired"]["wal.fsync"] == 1
        faults.disarm()
        assert faults.failpoint("wal.fsync") is None

    def test_arm_accumulates_sites(self):
        faults.arm("wal.fsync=fault@5")
        faults.arm("segment.read=corrupt")
        assert set(faults.active().armed_sites()) == {
            "wal.fsync", "segment.read",
        }
        faults.disarm()

    def test_environment_arms_spawned_interpreter(self):
        """REPRO_FAULTS is read at import time, which is exactly how a
        server started as a child process inherits armed faults."""
        env = dict(os.environ)
        env["REPRO_FAULTS"] = "wal.fsync=error@3"
        env["REPRO_FAULTS_SEED"] = "7"
        env["PYTHONPATH"] = "src"
        code = (
            "from repro import faults\n"
            "registry = faults.active()\n"
            "assert registry is not None, 'env did not arm'\n"
            "assert registry.armed_sites() == {'wal.fsync': 'error@3'}\n"
            "assert registry.seed == 7\n"
            "print('armed-ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr
        assert "armed-ok" in proc.stdout

    def test_maybms_faults_parameter_arms(self, tmp_path):
        with MayBMS(path=str(tmp_path / "db"), faults="wal.fsync=fault@999") as db:
            db.execute("create table t (x integer)")
            stats = db.fault_stats()
            assert stats["armed"] == {"wal.fsync": "fault@999"}
            assert stats["hits"].get("wal.fsync", 0) >= 1
        faults.disarm()


# -- site coverage: every entry in faults.SITES must fire somewhere below --

DURABILITY_SITES = [
    "wal.open", "wal.write", "wal.fsync", "wal.rotate",
    "checkpoint.prepare", "checkpoint.prepared", "checkpoint.fsync",
    "checkpoint.manifest.write", "checkpoint.manifest.rename",
    "segment.write", "segment.read", "segment.decode",
    "recovery.manifest.read",
]
WIRE_SITES = ["wire.send", "wire.recv", "server.reply.delay"]


class TestSiteCoverage:
    def test_catalog_is_fully_covered(self):
        covered = set(DURABILITY_SITES + WIRE_SITES)
        assert covered == set(faults.SITES), (
            "failpoint catalog and coverage tests diverged: "
            f"uncovered={set(faults.SITES) - covered} "
            f"stale={covered - set(faults.SITES)}"
        )

    def test_durability_sites_fire(self, tmp_path):
        """A full durable life cycle (open, append, checkpoint, reopen)
        passes through every durability failpoint; delay:0 observes each
        hit without perturbing the run."""
        faults.arm({site: "delay:0" for site in DURABILITY_SITES})
        path = str(tmp_path / "db")
        db = MayBMS(path=path, checkpoint_every=0)
        db.execute("create table t (k integer, p float)")
        db.execute("insert into t values (1, 0.5), (2, 0.25)")
        db.checkpoint()
        db.execute("insert into t values (3, 0.75)")
        db.close()
        reopened = MayBMS(path=path)
        assert reopened.query("select k from t order by k").rows == [
            (1,), (2,), (3,)
        ]
        reopened.close()
        hits = faults.stats()["hits"]
        fired = faults.stats()["fired"]
        for site in DURABILITY_SITES:
            assert hits.get(site, 0) >= 1, f"site {site} never hit: {hits}"
            assert fired.get(site, 0) >= 1, f"site {site} never fired: {fired}"
        faults.disarm()

    def test_wire_sites_fire(self):
        faults.arm({site: "delay:0" for site in WIRE_SITES})
        with serve(port=0) as server:
            with Client(server.host, server.port) as client:
                assert client.ping()
        hits = faults.stats()["hits"]
        for site in WIRE_SITES:
            assert hits.get(site, 0) >= 1, f"site {site} never hit: {hits}"
        faults.disarm()
