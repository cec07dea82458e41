"""Process-parallel confidence (engine/parallel.py): differential
serial == parallel answers across worker counts, the component-shard
path, seeded Monte-Carlo determinism, the cost gate, worker-crash
degradation, shared-memory hygiene, and the SQL-level facade wiring.
"""

import os
import random
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory

import pytest

from repro.core import aggregates as agg
from repro.core.conditions import Condition
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.core.urelation import URelation, condition_columns, encode_condition
from repro.core.variables import VariableRegistry
from repro.db import MayBMS
from repro.engine.parallel import (
    ParallelConfidencePool,
    _greedy_shards,
    _unit_seed,
)
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER

COND_ARITY = 3
SCHEMA = Schema([Column("g", INTEGER)] + condition_columns(COND_ARITY))


def _group_workload(registry, rng, groups=12, vars_per_group=5, clauses=6):
    """Many small groups: exercises the group-shard strategy with a mix of
    closed-form / SPROUT / exact dispatch decisions."""
    rows = []
    for g in range(groups):
        vars_ = [
            registry.fresh_boolean(rng.uniform(0.2, 0.8))
            for _ in range(vars_per_group)
        ]
        for _ in range(clauses):
            atoms = [(v, 1) for v in rng.sample(vars_, 3)]
            rows.append(
                (g,) + encode_condition(Condition.of(atoms), COND_ARITY, registry)
            )
    return URelation(Relation(SCHEMA, rows), 1, COND_ARITY, registry)


def _component_workload(registry, rng, groups=2, islands=4):
    """Few groups whose lineages split into several variable-disjoint
    islands: exercises the component-shard strategy."""
    rows = []
    for g in range(groups):
        for _ in range(islands):
            vars_ = [
                registry.fresh_boolean(rng.uniform(0.2, 0.8)) for _ in range(3)
            ]
            for _ in range(4):
                atoms = [(v, 1) for v in rng.sample(vars_, 2)]
                rows.append(
                    (g,)
                    + encode_condition(Condition.of(atoms), COND_ARITY, registry)
                )
    return URelation(Relation(SCHEMA, rows), 1, COND_ARITY, registry)


def _serial(urel, policy=None):
    dispatcher = ConfidenceDispatcher(urel.registry, policy or DispatchPolicy())
    return list(agg.conf(urel, ["g"], dispatcher=dispatcher).rows)


def _parallel(urel, pool, policy=None):
    dispatcher = ConfidenceDispatcher(urel.registry, policy or DispatchPolicy())
    return list(
        agg.conf(urel, ["g"], dispatcher=dispatcher, parallel=pool).rows
    )


class TestDifferential:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_group_path_bit_identical(self, workers):
        registry = VariableRegistry()
        urel = _group_workload(registry, random.Random(7))
        expected = _serial(urel)
        with ParallelConfidencePool(workers=workers, min_rows=0, base_seed=3) as pool:
            got = _parallel(urel, pool)
            stats = pool.stats()
        assert stats["parallel_queries"] == 1, stats
        assert stats["parallel_group_shards"] >= 2
        assert got == expected  # bit-identical, not approximately

    @pytest.mark.parametrize("workers", [2, 4])
    def test_component_path_bit_identical(self, workers):
        registry = VariableRegistry()
        urel = _component_workload(registry, random.Random(11))
        # exact_budget=None: the exact engine never defects to Monte Carlo,
        # so every component answer is deterministic and comparable.
        policy = DispatchPolicy(exact_budget=None)
        expected = _serial(urel, policy)
        with ParallelConfidencePool(workers=workers, min_rows=0, base_seed=3) as pool:
            got = _parallel(urel, pool, policy)
            stats = pool.stats()
            path = pool.last_call["path"]
        assert stats["parallel_queries"] == 1, stats
        assert path == "components"
        assert got == expected

    def test_monte_carlo_deterministic_across_worker_counts(self):
        registry = VariableRegistry()
        urel = _group_workload(registry, random.Random(5))
        policy = DispatchPolicy(strategy="monte-carlo", epsilon=0.4, delta=0.2)
        answers = []
        for workers in (1, 2, 4):
            with ParallelConfidencePool(
                workers=workers, min_rows=0, base_seed=42
            ) as pool:
                answers.append(_parallel(urel, pool, policy))
                assert pool.stats()["parallel_queries"] == 1
        assert answers[0] == answers[1] == answers[2]

    def test_base_seed_changes_monte_carlo_answers(self):
        registry = VariableRegistry()
        urel = _group_workload(registry, random.Random(5))
        policy = DispatchPolicy(strategy="monte-carlo", epsilon=0.4, delta=0.2)
        with ParallelConfidencePool(workers=2, min_rows=0, base_seed=1) as pool:
            one = _parallel(urel, pool, policy)
        with ParallelConfidencePool(workers=2, min_rows=0, base_seed=2) as pool:
            two = _parallel(urel, pool, policy)
        assert one != two


class TestArrayPassThenPool:
    """Tree-shaped groups are answered from the condition columns before
    the pool is asked; it gets the declined groups, and serial and sharded
    answers stay bit-identical."""

    @staticmethod
    def _mixed(registry, rng):
        crossing = _group_workload(registry, rng, groups=8)
        rows = list(crossing.relation.rows)
        for g in range(8, 14):
            root = registry.fresh_boolean(0.6)
            for _ in range(4):
                atoms = [(root, 1), (registry.fresh_boolean(rng.uniform(0.2, 0.8)), 1)]
                rows.append(
                    (g,) + encode_condition(Condition.of(atoms), COND_ARITY, registry)
                )
        rng.shuffle(rows)
        return URelation(Relation(SCHEMA, rows), 1, COND_ARITY, registry)

    def test_conf_shards_only_the_declined_groups(self):
        pytest.importorskip("numpy")
        registry = VariableRegistry()
        urel = self._mixed(registry, random.Random(3))
        expected = _serial(urel)
        with ParallelConfidencePool(workers=2, min_rows=0, base_seed=3) as pool:
            got = _parallel(urel, pool)
            stats = pool.stats()
        assert got == expected
        assert stats["parallel_queries"] == 1 and stats["parallel_units"] == 8, stats

    @pytest.mark.parametrize("workers", [1, 3])
    def test_aconf_streams_keep_their_group_numbers(self, workers):
        registry = VariableRegistry()
        urel = self._mixed(registry, random.Random(4))
        # A budget of one sub-problem: the crossing groups go to Monte Carlo.
        policy = DispatchPolicy(exact_budget=1)

        def run(pool):
            dispatcher = ConfidenceDispatcher(registry, policy)
            return agg.aconf(
                urel, 0.3, 0.2, ["g"], dispatcher=dispatcher, parallel=pool, base_seed=5
            ).rows

        expected = run(None)
        with ParallelConfidencePool(workers=workers, min_rows=0, base_seed=5) as pool:
            assert run(pool) == expected
            assert pool.stats()["parallel_aconf_queries"] == 1


class TestCostGate:
    def test_small_relation_stays_serial(self):
        registry = VariableRegistry()
        urel = _group_workload(registry, random.Random(7), groups=3, clauses=2)
        with ParallelConfidencePool(workers=2, min_rows=10_000) as pool:
            assert not pool.eligible(urel)
            got = _parallel(urel, pool)
            stats = pool.stats()
        assert stats["parallel_queries"] == 0
        assert stats["parallel_gated_serial"] >= 1
        assert got == _serial(urel)

    def test_certain_relation_ineligible(self):
        registry = VariableRegistry()
        relation = Relation(Schema([Column("g", INTEGER)]), [(1,), (2,)])
        urel = URelation(relation, 1, 0, registry)
        with ParallelConfidencePool(workers=2, min_rows=0) as pool:
            assert not pool.eligible(urel)

    def test_single_group_forced_strategy_stays_serial(self):
        registry = VariableRegistry()
        urel = _group_workload(registry, random.Random(7), groups=1)
        policy = DispatchPolicy(strategy="exact")
        with ParallelConfidencePool(workers=2, min_rows=0) as pool:
            got = _parallel(urel, pool, policy)
            stats = pool.stats()
        assert stats["parallel_queries"] == 0
        assert stats["parallel_gated_serial"] >= 1
        assert got == _serial(urel, policy)


class TestLifecycle:
    def test_worker_crash_degrades_to_serial_then_recovers(self):
        registry = VariableRegistry()
        urel = _group_workload(registry, random.Random(7))
        expected = _serial(urel)
        with ParallelConfidencePool(workers=2, min_rows=0) as pool:
            assert _parallel(urel, pool) == expected  # warm the executor
            victims = list(pool._executor._processes)
            os.kill(victims[0], signal.SIGKILL)
            time.sleep(0.1)
            # The broken pool degrades to serial: same answer, no raise.
            assert _parallel(urel, pool) == expected
            crashed = pool.stats()
            assert crashed["parallel_worker_crashes"] >= 1
            # A fresh executor replaces the broken one on the next query.
            assert _parallel(urel, pool) == expected
            assert pool.stats()["parallel_queries"] >= 2

    def test_shutdown_unlinks_every_segment(self):
        registry = VariableRegistry()
        urel = _group_workload(registry, random.Random(7))
        pool = ParallelConfidencePool(workers=2, min_rows=0)
        _parallel(urel, pool)
        _parallel(urel, pool)
        pool.shutdown()
        assert pool.segment_history  # the queries did publish segments
        for name in pool.segment_history:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_shutdown_is_idempotent_and_blocks_reuse(self):
        registry = VariableRegistry()
        urel = _group_workload(registry, random.Random(7))
        pool = ParallelConfidencePool(workers=1, min_rows=0)
        pool.shutdown()
        pool.shutdown()
        assert not pool.eligible(urel)

    def test_no_resource_tracker_leak_warnings(self, tmp_path):
        """Run a pool to completion in a subprocess and assert the
        interpreter exits without resource_tracker leak warnings."""
        script = tmp_path / "leakcheck.py"
        script.write_text(
            "import random, sys\n"
            "sys.path.insert(0, {src!r})\n"
            "from repro.db import MayBMS\n"
            "def main():\n"
            "    db = MayBMS(seed=1, parallel_workers=2, parallel_min_rows=1,\n"
            "                confidence_strategy='exact')\n"
            "    db.execute('create table t (g integer, k integer, w float)')\n"
            "    rows = ', '.join(f'({{i % 5}}, {{i}}, 1.0)' for i in range(50))\n"
            "    db.execute('insert into t values ' + rows)\n"
            "    db.execute('create table u as repair key g, k in t weight by w')\n"
            "    db.execute('select g, conf() as p from u group by g')\n"
            "    assert db.parallel_stats()['parallel_queries'] == 1\n"
            "    db.close()\n"
            "if __name__ == '__main__':\n"
            "    main()\n".format(
                src=os.path.join(
                    os.path.dirname(
                        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
                    ),
                    "src",
                )
            )
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


class TestFacade:
    @staticmethod
    def _build(**kwargs):
        # Forced exact: under "auto" the array pass answers these
        # one-atom-per-row groups before the pool is asked.
        db = MayBMS(seed=11, confidence_strategy="exact", **kwargs)
        db.execute("create table t (g integer, k integer, w float)")
        values = [
            f"({g}, {k}, {1 + (g * 7 + k * 3) % 5})"
            for g in range(10)
            for k in range(12)
        ]
        db.execute("insert into t values " + ", ".join(values))
        db.execute("create table u as repair key g, k in t weight by w")
        return db

    QUERY = "select g, conf() as p from u group by g order by g"

    def test_sql_conf_matches_serial_and_traces(self):
        with self._build() as serial, self._build(
            parallel_workers=2, parallel_min_rows=1
        ) as par:
            expected = serial.execute(self.QUERY).relation.rows
            got = par.execute(self.QUERY).relation.rows
            assert got == expected
            stats = par.parallel_stats()
            assert stats["parallel_queries"] == 1, stats
            explain = "\n".join(
                row[0]
                for row in par.execute("explain " + self.QUERY).relation.rows
            )
            assert "parallel: 2 workers" in explain, explain
            pool = par.parallel_pool
        # context exit closed the store: the pool must be down too
        assert pool._executor is None
        assert par.parallel_stats() is not None  # stats survive close

    def test_sessions_share_the_store_pool(self):
        with self._build(parallel_workers=2, parallel_min_rows=1) as db:
            session = db.session()
            session.execute(self.QUERY)
            assert session.parallel_stats()["parallel_queries"] == 1
            db.execute(self.QUERY)
            assert db.parallel_stats()["parallel_queries"] == 2
            session.close()

    def test_serial_store_has_no_pool(self):
        with MayBMS(seed=1) as db:
            assert db.parallel_pool is None
            assert db.parallel_stats() is None

    def test_env_default_enables_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_ROWS", "77")
        with MayBMS(seed=1) as db:
            assert db.parallel_pool is not None
            assert db.parallel_pool.workers == 3
            assert db.parallel_pool.min_rows == 77


class TestShardingPrimitives:
    def test_greedy_shards_cover_all_units_once(self):
        weights = [5, 1, 9, 2, 2, 7, 1, 1]
        shards = _greedy_shards(weights, 3)
        flat = sorted(unit for shard in shards for unit in shard)
        assert flat == list(range(len(weights)))
        loads = sorted(sum(weights[u] for u in shard) for shard in shards)
        assert loads[-1] <= loads[0] + 9  # LPT keeps the spread bounded

    def test_greedy_shards_drop_empty(self):
        assert _greedy_shards([4], 8) == [[0]]

    def test_unit_seed_is_stable_and_distinct(self):
        assert _unit_seed(42, 3) == _unit_seed(42, 3)
        seeds = {_unit_seed(42, g, c) for g in range(20) for c in range(-1, 5)}
        assert len(seeds) == 20 * 6
        assert _unit_seed(1, 3) != _unit_seed(2, 3)


class TestAdaptiveGate:
    """The adaptive parallel_min_rows gate: every sharded call feeds its
    encode-vs-worker-CPU split to _observe_gate, which doubles the
    effective gate when coordinator encode time dominated (sharding was
    overhead) and halves it when worker compute dominated, clamped to
    [max(64, min_rows/8), min_rows*16]."""

    def test_encode_dominated_observations_raise_gate(self):
        pool = ParallelConfidencePool(workers=2, min_rows=1024)
        try:
            assert pool.adaptive
            pool._observe_gate(encode_ms=50.0, cpu_ms=5.0)
            assert pool._min_rows_effective == 2048
            assert not pool.operator_eligible(1500)
            for _ in range(10):  # clamp at min_rows * 16
                pool._observe_gate(encode_ms=50.0, cpu_ms=5.0)
            assert pool._min_rows_effective == 1024 * 16
            assert pool.stats()["parallel_gate_adaptations"] == 4
        finally:
            pool.shutdown()

    def test_compute_dominated_observations_lower_gate(self):
        pool = ParallelConfidencePool(workers=2, min_rows=1024)
        try:
            pool._observe_gate(encode_ms=1.0, cpu_ms=100.0)
            assert pool._min_rows_effective == 512
            assert pool.operator_eligible(512)
            for _ in range(10):  # clamp at max(64, min_rows / 8)
                pool._observe_gate(encode_ms=1.0, cpu_ms=100.0)
            assert pool._min_rows_effective == 128
        finally:
            pool.shutdown()

    def test_balanced_observations_leave_gate_alone(self):
        pool = ParallelConfidencePool(workers=2, min_rows=1024)
        try:
            pool._observe_gate(encode_ms=10.0, cpu_ms=20.0)
            assert pool._min_rows_effective == 1024
            assert pool.stats()["parallel_gate_adaptations"] == 0
        finally:
            pool.shutdown()

    def test_env_escape_hatch_pins_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_ADAPTIVE", "0")
        pool = ParallelConfidencePool(workers=2, min_rows=1024)
        try:
            assert not pool.adaptive
            pool._observe_gate(encode_ms=100.0, cpu_ms=1.0)
            assert pool._min_rows_effective == 1024
            assert pool.stats()["parallel_gate_adaptations"] == 0
        finally:
            pool.shutdown()

    def test_forced_parallel_gate_never_adapts(self):
        # min_rows < 64 means "always shard" (tests and benchmarks):
        # adaptation must not re-gate forced-parallel pools.
        for forced in (0, 1):
            pool = ParallelConfidencePool(workers=2, min_rows=forced)
            try:
                assert not pool.adaptive
                pool._observe_gate(encode_ms=100.0, cpu_ms=1.0)
                assert pool._min_rows_effective == forced
            finally:
                pool.shutdown()

    def test_assigning_min_rows_resets_effective_gate(self):
        pool = ParallelConfidencePool(workers=2, min_rows=1024)
        try:
            pool._observe_gate(encode_ms=50.0, cpu_ms=5.0)
            assert pool._min_rows_effective == 2048
            pool.min_rows = 1  # in-place re-tune, as tests do
            assert pool._min_rows_effective == 1
            assert not pool.adaptive
            assert pool.operator_eligible(2)
        finally:
            pool.shutdown()
