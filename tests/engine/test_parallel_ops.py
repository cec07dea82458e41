"""Parallel relational execution (engine/parallel.py beyond conf()):
differential serial == parallel answers for sharded scans, partitioned
hash joins, deterministic aconf, and esum/ecount across worker counts,
plus EXPLAIN shard-plan rendering, the worker payload cache, the new
per-operator counters, and worker-crash degradation on the new paths.
"""

import os
import random
import signal
import time

import pytest

from repro.core import aggregates as agg
from repro.core.conditions import Condition
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.core.urelation import URelation, condition_columns, encode_condition
from repro.core.variables import VariableRegistry
from repro.db import MayBMS
from repro.engine import planner
from repro.engine.parallel import ParallelExecutionPool
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER

pytestmark = pytest.mark.usefixtures("batch_engine")


@pytest.fixture
def batch_engine():
    """The parallel scan/join paths are batch-engine operators; pin the
    default engine so the suite behaves the same under REPRO_ENGINE=row
    (aconf/esum/ecount shard at the aggregate layer, engine-independent,
    but the differential queries still plan scans)."""
    with planner.forced_engine(planner.BATCH_ENGINE):
        yield


def _build(**kwargs):
    db = MayBMS(seed=11, **kwargs)
    db.execute("create table t (g integer, k integer, w float)")
    values = [
        f"({g}, {k}, {1 + (g * 7 + k * 3) % 5})"
        for g in range(10)
        for k in range(20)
    ]
    db.execute("insert into t values " + ", ".join(values))
    db.execute("create table d (g integer, label text)")
    db.execute(
        "insert into d values " + ", ".join(f"({g}, 'g{g}')" for g in range(10))
    )
    db.execute("create table u as repair key g, k in t weight by w")
    return db


COND_ARITY = 3
COND_SCHEMA = Schema([Column("g", INTEGER)] + condition_columns(COND_ARITY))


def _mc_workload(registry, rng, groups=8, vars_per_group=6, clauses=8):
    """Many 3-of-6 DNF groups: no closed form, forced onto Monte Carlo."""
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
    return URelation(Relation(COND_SCHEMA, rows), 1, COND_ARITY, registry)


def _mc_aconf(urel, base_seed, pool=None):
    dispatcher = ConfidenceDispatcher(
        urel.registry, DispatchPolicy(strategy="monte-carlo")
    )
    return list(
        agg.aconf(
            urel,
            0.4,
            0.2,
            ["g"],
            dispatcher=dispatcher,
            parallel=pool,
            base_seed=base_seed,
        ).rows
    )


SCAN_QUERY = "select g, k, w * 2 as w2 from t where k % 2 = 0 order by g, k"
JOIN_QUERY = (
    "select t.g, d.label, t.k from t, d "
    "where t.g = d.g and t.k < 5 order by t.g, t.k"
)
ACONF_QUERY = "select g, aconf(0.05, 0.05) as p from u group by g order by g"
ESUM_QUERY = "select g, esum(w) as s from u group by g order by g"
ECOUNT_QUERY = "select g, ecount() as c from u group by g order by g"


class TestDifferentialOps:
    """Every sharded operator must equal serial execution bit-for-bit --
    not approximately -- at any worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_scan_bit_identical(self, workers):
        with _build() as serial, _build(
            parallel_workers=workers, parallel_min_rows=1
        ) as par:
            expected = serial.execute(SCAN_QUERY).relation.rows
            got = par.execute(SCAN_QUERY).relation.rows
            assert got == expected
            stats = par.parallel_stats()
            assert stats["parallel_scan_queries"] >= 1, stats
            assert stats["parallel_scan_shards"] >= 2, stats

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_partitioned_join_bit_identical(self, workers):
        with _build() as serial, _build(
            parallel_workers=workers, parallel_min_rows=1
        ) as par:
            expected = serial.execute(JOIN_QUERY).relation.rows
            got = par.execute(JOIN_QUERY).relation.rows
            assert got == expected
            stats = par.parallel_stats()
            assert stats["parallel_join_queries"] >= 1, stats
            assert stats["parallel_join_shards"] >= 2, stats

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_aconf_bit_identical(self, workers):
        # The serial store answers aconf through the same deterministic
        # per-group sample streams (aconf_unit_seed), so the sharded
        # estimates must match it exactly, not within (epsilon, delta).
        # Forced Monte Carlo: under "auto" the array pass answers these
        # groups exactly and no sample stream would run.
        with _build(confidence_strategy="monte-carlo") as serial, _build(
            parallel_workers=workers,
            parallel_min_rows=1,
            confidence_strategy="monte-carlo",
        ) as par:
            expected = serial.execute(ACONF_QUERY).relation.rows
            got = par.execute(ACONF_QUERY).relation.rows
            assert got == expected
            stats = par.parallel_stats()
            assert stats["parallel_aconf_queries"] == 1, stats
            assert stats["parallel_aconf_shards"] >= 2, stats

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_esum_ecount_bit_identical(self, workers):
        with _build() as serial, _build(
            parallel_workers=workers, parallel_min_rows=1
        ) as par:
            for query in (ESUM_QUERY, ECOUNT_QUERY):
                expected = serial.execute(query).relation.rows
                got = par.execute(query).relation.rows
                assert got == expected, query
            stats = par.parallel_stats()
            assert stats["parallel_expect_queries"] == 2, stats
            assert stats["parallel_expect_shards"] >= 2, stats

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_aconf_monte_carlo_bit_identical(self, workers):
        # A hard DNF workload forced onto the Karp-Luby estimator: the
        # sharded sample loops must reproduce the serial deterministic
        # stream exactly, not just within the (epsilon, delta) guarantee.
        registry = VariableRegistry()
        urel = _mc_workload(registry, random.Random(7))
        expected = _mc_aconf(urel, base_seed=3)
        with ParallelExecutionPool(workers=workers, min_rows=0) as pool:
            got = _mc_aconf(urel, base_seed=3, pool=pool)
            stats = pool.stats()
        assert stats["parallel_aconf_queries"] == 1, stats
        assert stats["parallel_aconf_shards"] >= 2, stats
        assert got == expected

    def test_aconf_base_seed_changes_monte_carlo_answers(self):
        registry = VariableRegistry()
        urel = _mc_workload(registry, random.Random(7))
        with ParallelExecutionPool(workers=2, min_rows=0) as pool:
            one = _mc_aconf(urel, base_seed=1, pool=pool)
            two = _mc_aconf(urel, base_seed=2, pool=pool)
        assert one != two


class TestExplain:
    def test_scan_and_join_fragments_render_shard_plans(self):
        with _build(parallel_workers=2, parallel_min_rows=1) as par:
            explain = "\n".join(
                row[0]
                for row in par.execute("explain " + JOIN_QUERY).relation.rows
            )
        assert "[operator=scan]" in explain, explain
        assert "[operator=join]" in explain, explain
        assert "parallel: 2 workers" in explain, explain
        assert "shard(s)" in explain, explain
        assert "probe shard(s)" in explain, explain

    def test_serial_store_renders_no_parallel_fragments(self):
        with _build() as serial:
            explain = "\n".join(
                row[0]
                for row in serial.execute("explain " + JOIN_QUERY).relation.rows
            )
        assert "parallel fragment" not in explain, explain


class TestStatsSurface:
    def test_per_operator_counters_and_timings(self):
        with _build(parallel_workers=2, parallel_min_rows=1) as par:
            for query in (SCAN_QUERY, JOIN_QUERY, ACONF_QUERY, ESUM_QUERY):
                par.execute(query)
            stats = par.parallel_stats()
            info = par.parallel_pool.last_call
        for key in (
            "parallel_scan_queries",
            "parallel_scan_shards",
            "parallel_join_queries",
            "parallel_join_shards",
            "parallel_aconf_queries",
            "parallel_aconf_shards",
            "parallel_expect_queries",
            "parallel_expect_shards",
            "parallel_encode_ms",
            "parallel_worker_cpu_ms",
            "parallel_cache_evictions",
        ):
            assert key in stats, key
        assert stats["parallel_encode_ms"] > 0
        # conf() did not run: its query counter stays untouched by the
        # new operators.
        assert stats["parallel_queries"] == 0, stats
        # Per-query observability: the last attempt records its payload
        # encode time and one CPU-seconds sample per shard.
        assert info["encode_ms"] >= 0
        assert len(info["shard_cpu_s"]) == info["shards"]
        assert all(cpu >= 0 for cpu in info["shard_cpu_s"])

    def test_worker_cache_eviction_counter(self, monkeypatch):
        # A one-entry worker cache cannot hold both the table payload and
        # the per-query aggregate payloads: decoding must evict, and the
        # workers report the evictions back to the coordinator's counter.
        monkeypatch.setenv("REPRO_PARALLEL_WORKER_CACHE", "1")
        with _build(parallel_workers=2, parallel_min_rows=1) as par:
            for query in (SCAN_QUERY, ESUM_QUERY, SCAN_QUERY, ESUM_QUERY):
                par.execute(query)
            stats = par.parallel_stats()
        assert stats["parallel_cache_evictions"] >= 1, stats

    def test_table_payload_reused_across_queries(self):
        # The coordinator caches the encoded table payload on the relation
        # snapshot under a stable key, so a repeated scan re-encodes
        # nothing and workers can reuse their decoded columns.
        relation = Relation(
            Schema([Column("a", INTEGER), Column("b", INTEGER)]),
            [(i, i * 3) for i in range(100)],
        )
        with ParallelExecutionPool(workers=2, min_rows=1) as pool:
            one = pool.table_pipeline(relation, relation.schema, None, None)
            first = relation._lineage_cache["parallel-payload"]
            two = pool.table_pipeline(relation, relation.schema, None, None)
            second = relation._lineage_cache["parallel-payload"]
            assert pool.stats()["parallel_scan_queries"] == 2
        assert one is not None and two is not None
        assert list(one.rows()) == list(two.rows()) == relation.rows
        assert second[0] is first[0]  # the encoded bytes, not re-encoded
        assert second[1] == first[1]  # the stable worker cache key


class TestDegradation:
    def test_worker_crash_degrades_new_paths_to_serial(self):
        with _build() as serial, _build(
            parallel_workers=2, parallel_min_rows=1
        ) as par:
            expected = {
                query: serial.execute(query).relation.rows
                for query in (SCAN_QUERY, JOIN_QUERY, ACONF_QUERY, ESUM_QUERY)
            }
            # Warm the executor, then kill a worker mid-pool.
            assert par.execute(SCAN_QUERY).relation.rows == expected[SCAN_QUERY]
            pool = par.parallel_pool
            victims = list(pool._executor._processes)
            os.kill(victims[0], signal.SIGKILL)
            time.sleep(0.1)
            # Every new path answers identically through the serial
            # fallback, and the pool recovers for later queries.
            for query, rows in expected.items():
                assert par.execute(query).relation.rows == rows, query
            stats = par.parallel_stats()
            assert stats["parallel_worker_crashes"] >= 1, stats
            for query, rows in expected.items():
                assert par.execute(query).relation.rows == rows, query
