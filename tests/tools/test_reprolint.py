"""Fixture tests for the reprolint rule catalog (R001..R006, R004 retired).

Each rule gets at least one positive fixture (code shaped like the real
violation the rule was written for -- these fail the lint before the
corresponding fix/suppression) and a negative fixture (the fixed shape).
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from tools.reprolint import all_rules, lint_paths, lint_source, load_manifest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def lint(source, codes, path="<fixture>", manifest=None):
    rules = {c: r for c, r in all_rules().items() if c in codes}
    return lint_source(
        textwrap.dedent(source),
        path=path,
        rules=rules,
        manifest=manifest if manifest is not None else {"ranks": {}},
    )


def codes_of(violations):
    return [v.code for v in violations]


# -- R001: paired lock release -------------------------------------------------


def test_r001_flags_acquire_without_release_on_all_paths():
    # The shape of the original group-commit leader: release mid-body,
    # re-acquire in a finally -- the acquire has no paired release.
    found = lint(
        """
        def leader(self):
            cond = self._gc_cond
            with cond:
                cond.release()
                try:
                    flush()
                finally:
                    cond.acquire()
        """,
        {"R001"},
    )
    assert codes_of(found) == ["R001"]


def test_r001_flags_release_only_in_except_handler():
    # Release on the error path only: the success path leaks the lock
    # (the two-phase checkpoint handoff -- needs an explicit suppression).
    found = lint(
        """
        def prepare(self):
            self._checkpoint_lock.acquire()
            try:
                capture()
            except BaseException:
                self._checkpoint_lock.release()
                raise
        """,
        {"R001"},
    )
    assert codes_of(found) == ["R001"]


def test_r001_accepts_release_in_finally():
    found = lint(
        """
        def slot(self):
            if not self._statement_gate.acquire(blocking=False):
                raise Busy()
            try:
                serve()
            finally:
                self._statement_gate.release()
        """,
        {"R001"},
    )
    assert found == []


def test_r001_accepts_with_statement():
    found = lint(
        """
        def work(self):
            with self._mutex:
                mutate()
        """,
        {"R001"},
    )
    assert found == []


def test_r001_inline_suppression():
    found = lint(
        """
        def reacquire(cond):
            cond.acquire()  # reprolint: disable=R001 -- scoped-release pair
        """,
        {"R001"},
    )
    assert found == []


def test_r001_ignores_non_lock_receivers():
    found = lint(
        """
        def work(self):
            self.resource.acquire()
        """,
        {"R001"},
    )
    assert found == []


# -- R002: lock hierarchy ------------------------------------------------------

_R002_MANIFEST = {"ranks": {"_outer_lock": 10, "_inner_lock": 20}}


def test_r002_flags_rank_inversion():
    found = lint(
        """
        def forwards(self):
            with self._outer_lock:
                with self._inner_lock:
                    pass

        def backwards(self):
            with self._inner_lock:
                with self._outer_lock:
                    pass
        """,
        {"R002"},
        path="fixtures/engine/bad.py",
        manifest=_R002_MANIFEST,
    )
    assert any("rank" in v.message for v in found)
    # the two opposite edges also form a cycle
    assert any("cycle" in v.message for v in found)


def test_r002_accepts_manifest_order():
    found = lint(
        """
        def forwards(self):
            with self._outer_lock:
                with self._inner_lock:
                    pass
        """,
        {"R002"},
        path="fixtures/engine/good.py",
        manifest=_R002_MANIFEST,
    )
    assert found == []


def test_r002_flags_unknown_lock_node():
    found = lint(
        """
        def work(self):
            with self._mystery_lock:
                pass
        """,
        {"R002"},
        path="fixtures/engine/unknown.py",
        manifest=_R002_MANIFEST,
    )
    assert len(found) == 1 and "manifest" in found[0].message


def test_r002_scoped_release_wrapper_removes_hold():
    # with _condition_released(cond): the condition is NOT held inside, so
    # no inner-lock edge (and no inversion) is recorded.
    found = lint(
        """
        def leader(self):
            cond = self._inner_lock
            with cond:
                with _condition_released(cond):
                    with self._outer_lock:
                        pass
        """,
        {"R002"},
        path="fixtures/engine/wrapper.py",
        manifest=_R002_MANIFEST,
    )
    assert found == []


def test_r002_alias_resolution():
    found = lint(
        """
        def work(self):
            inner = self._inner_lock
            with inner:
                with self._outer_lock:
                    pass
        """,
        {"R002"},
        path="fixtures/engine/alias.py",
        manifest=_R002_MANIFEST,
    )
    assert any("rank" in v.message for v in found)


def test_r002_ignores_files_outside_engine_and_db():
    found = lint(
        """
        def work(self):
            with self._mystery_lock:
                pass
        """,
        {"R002"},
        path="fixtures/client/other.py",
        manifest=_R002_MANIFEST,
    )
    assert found == []


def test_r002_lockmanager_calls_map_to_logical_nodes():
    manifest = {"ranks": {"lockmgr:__store_gate__": 10, "lockmgr:<table>": 20}}
    found = lint(
        """
        STORE_GATE = "__store_gate__"

        def backwards(self, name):
            self.locks.acquire_exclusive(name)
            self.locks.acquire_shared(STORE_GATE)
        """,
        {"R002"},
        path="fixtures/engine/lockmgr.py",
        manifest=manifest,
    )
    assert any("rank" in v.message for v in found)


# -- R003: determinism bans ----------------------------------------------------


def test_r003_flags_unseeded_rng_and_global_draws():
    found = lint(
        """
        import random

        def sample(self):
            rng = random.Random()
            return random.random()
        """,
        {"R003"},
        path="fixtures/core/confidence/bad.py",
    )
    assert codes_of(found) == ["R003", "R003"]


def test_r003_flags_time_and_id_seeds_and_set_iteration():
    found = lint(
        """
        import random, time

        def shard(self, groups):
            seed = fnv_mix(id(self.registry))
            t = time.time()
            for group in set(groups):
                assign(group)
            return seed, t
        """,
        {"R003"},
        path="fixtures/core/confidence/shard.py",
    )
    messages = " | ".join(v.message for v in found)
    assert "id()" in messages
    assert "time.time" in messages
    assert "unordered set" in messages


def test_r003_accepts_seeded_deterministic_code():
    found = lint(
        """
        import random, time

        def sample(self, seed, groups):
            rng = random.Random(seed)
            started = time.perf_counter()
            for group in sorted(set(groups)):
                assign(group)
            return rng, started
        """,
        {"R003"},
        path="fixtures/core/confidence/good.py",
    )
    assert found == []


def test_r003_only_applies_to_bit_identical_paths():
    found = lint(
        """
        import random

        def jitter():
            return random.random()
        """,
        {"R003"},
        path="fixtures/server/retry.py",
    )
    assert found == []


# -- R005: pin/unpin balance ---------------------------------------------------


def test_r005_flags_pin_without_cleanup_unpin():
    found = lint(
        """
        def capture(self, tables):
            pins = []
            for table in tables:
                pins.append(table.pin_snapshot())
            return pins
        """,
        {"R005"},
    )
    assert codes_of(found) == ["R005"]


def test_r005_accepts_unpin_in_error_handler():
    # The SnapshotManager.capture shape: pins hand over to the caller on
    # success, the except handler unpins on error exits.
    found = lint(
        """
        def capture(self, tables):
            pins = {}
            try:
                for name, table in tables:
                    pins[name] = table.pin_snapshot()
            except BaseException:
                for name, (version, _, _) in pins.items():
                    table.unpin_snapshot(version)
                raise
            return pins
        """,
        {"R005"},
    )
    assert found == []


def test_r005_accepts_unpin_in_finally():
    found = lint(
        """
        def read(self, table):
            version, relation, _ = table.pin_snapshot()
            try:
                return scan(relation)
            finally:
                table.unpin_snapshot(version)
        """,
        {"R005"},
    )
    assert found == []


# -- R006: swallowed failures --------------------------------------------------


def test_r006_flags_bare_except():
    found = lint(
        """
        def risky():
            try:
                work()
            except:
                pass
        """,
        {"R006"},
    )
    assert codes_of(found) == ["R006"]


def test_r006_accepts_named_handler():
    found = lint(
        """
        def attempt(self):
            try:
                return self.store.read()
            except OSError:
                return None
        """,
        {"R006"},
    )
    assert found == []


def test_r006_accepts_reraising_handler():
    # A named handler that cleans up and re-raises is fine; the same
    # handler written bare is not -- it runs the cleanup for
    # KeyboardInterrupt/SystemExit too, and hides which failures it meant.
    reraising = """
        def attempt(self):
            try:
                return self.store.read()
            except {caught}:
                self.store.reset()
                raise
        """
    assert lint(reraising.format(caught="OSError"), {"R006"}) == []
    found = lint(reraising.replace("except {caught}:", "except:"), {"R006"})
    assert codes_of(found) == ["R006"]


# -- engine-wide checks --------------------------------------------------------


def test_rule_catalog_codes():
    assert sorted(all_rules()) == ["R001", "R002", "R003", "R005", "R006"]


def test_repository_src_tree_is_lint_clean():
    result = lint_paths([os.path.join(REPO_ROOT, "src")])
    assert result.violations == [], "\n".join(v.render() for v in result.violations)
    assert result.checked_files > 40


def test_committed_manifest_ranks_are_unique_and_documented():
    manifest = load_manifest()
    ranks = manifest["ranks"]
    assert len(set(ranks.values())) == len(ranks), "ranks must be strict"
    assert set(manifest["nodes"]) == set(ranks)


def test_file_level_suppression():
    found = lint(
        """
        # reprolint: disable-file=R006 -- fixture
        def risky():
            try:
                work()
            except:
                pass
        """,
        {"R006"},
    )
    assert found == []


# -- CLI -----------------------------------------------------------------------


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def test_cli_exit_zero_and_json_on_clean_tree():
    proc = _run_cli("--format", "json", "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["violations"] == []
    assert payload["checked_files"] > 40


def test_cli_exit_one_on_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f():\n    try:\n        g()\n    except:\n        pass\n")
    proc = _run_cli(str(bad))
    assert proc.returncode == 1
    assert "R006" in proc.stdout


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for code in ("R001", "R002", "R003", "R005", "R006"):
        assert code in proc.stdout
