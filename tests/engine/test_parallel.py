"""Parallel sessions over one store: confidence answered on several
threads at once is bit-identical to one serial computation -- conf()
through its group and its component path, seeded Monte-Carlo conf(),
aconf() after the array pass, and SQL conf() in concurrent sessions.

The engine runs each statement serially; what runs in parallel is
sessions.  The threads here share what a table version keeps for every
reader (the grouping and the grouped lineages, see
:meth:`~repro.engine.relation.Relation.derived`) and own one dispatcher
each, as sessions do.  Also covered: the aconf() seed derivation that
makes a group's answer independent of who computes it, and closing a
store whose sessions ran on other threads.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import aggregates as agg
from repro.core.confidence import dispatch
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.core.confidence.dklr import aconf_unit_seed, fnv_mix
from repro.core.lineage import canonical_clause
from repro.core.urelation import URelation, condition_columns, encode_condition
from repro.core.variables import VariableRegistry
from repro.db import MayBMS
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER
from repro.errors import TransactionError

COND_ARITY = 3
SCHEMA = Schema([Column("g", INTEGER)] + condition_columns(COND_ARITY))


def _group_rows(registry, rng, groups=12, vars_per_group=5, clauses=6):
    """Many small groups: a mix of closed-form / SPROUT / exact dispatch
    decisions, one lineage per group."""
    rows = []
    for g in range(groups):
        vars_ = [
            registry.fresh_boolean(rng.uniform(0.2, 0.8))
            for _ in range(vars_per_group)
        ]
        for _ in range(clauses):
            atoms = [(v, 1) for v in rng.sample(vars_, 3)]
            rows.append(
                (g,) + encode_condition(canonical_clause(atoms), COND_ARITY)
            )
    return rows


def _component_rows(registry, rng, groups=2, islands=4):
    """Few groups whose lineages split into several variable-disjoint
    islands: the dispatcher's per-component path."""
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
                    + encode_condition(canonical_clause(atoms), COND_ARITY)
                )
    return rows


def _plain(rows, registry):
    """A derived U-relation: it builds its grouping per use."""
    return URelation(Relation(SCHEMA, rows), 1, COND_ARITY, registry)


def _table_version(rows, registry):
    """A U-relation that keeps what it derives, as a stored table version
    does: every thread reading it shares one grouping and one set of
    grouped lineages, built by whichever thread asks first."""
    relation = Relation(SCHEMA, rows)
    relation.source = ("t", 1)
    return URelation(relation, 1, COND_ARITY, registry)


def _conf(urel, policy=None, rng=None):
    dispatcher = ConfidenceDispatcher(
        policy or DispatchPolicy(), rng=rng
    )
    return list(agg.conf(urel, ["g"], dispatcher=dispatcher).rows)


class TestDifferential:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_group_path_bit_identical(self, workers, in_parallel):
        registry = VariableRegistry()
        rows = _group_rows(registry, random.Random(7))
        expected = _conf(_plain(rows, registry))
        shared = _table_version(rows, registry)
        answers = in_parallel(workers, lambda i: _conf(shared))
        assert answers == [expected] * workers  # bit-identical, not approximately
        assert shared.relation.has_derived(("groups", (0,)))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_component_path_bit_identical(self, workers, in_parallel):
        registry = VariableRegistry()
        rows = _component_rows(registry, random.Random(11))
        # exact_budget=None: the exact engine never defects to Monte Carlo,
        # so every component answer is deterministic and comparable.
        policy = DispatchPolicy(exact_budget=None)
        with dispatch.trace_confidence() as events:
            expected = _conf(_plain(rows, registry), policy)
        # Two groups, four islands each: eight components were dispatched.
        assert sum(n for _, n in events[0].strategy_counts) == 8, events
        shared = _table_version(rows, registry)
        answers = in_parallel(workers, lambda i: _conf(shared, policy))
        assert answers == [expected] * workers

    def test_monte_carlo_deterministic_across_worker_counts(self, in_parallel):
        registry = VariableRegistry()
        rows = _group_rows(registry, random.Random(5))
        policy = DispatchPolicy(strategy="monte-carlo", epsilon=0.4, delta=0.2)
        expected = _conf(_plain(rows, registry), policy, random.Random(42))
        shared = _table_version(rows, registry)
        for workers in (1, 2, 4):
            answers = in_parallel(
                workers, lambda i: _conf(shared, policy, random.Random(42))
            )
            assert answers == [expected] * workers

    def test_base_seed_changes_monte_carlo_answers(self, in_parallel):
        registry = VariableRegistry()
        rows = _group_rows(registry, random.Random(5))
        policy = DispatchPolicy(strategy="monte-carlo", epsilon=0.4, delta=0.2)
        shared = _table_version(rows, registry)
        one, two = in_parallel(
            2, lambda i: _conf(shared, policy, random.Random(i + 1))
        )
        assert one != two
        assert one == _conf(_plain(rows, registry), policy, random.Random(1))


class TestArrayPassThenPool:
    """Tree-shaped groups are answered from the condition columns; the
    groups the array pass declines are independent units of work.  Handed
    to a thread pool one group at a time -- a dispatcher per group and,
    for aconf(), the sample stream numbered by the group's ordinal -- they
    reassemble into the serial answer bit for bit."""

    @staticmethod
    def _mixed(registry, rng):
        rows = _group_rows(registry, rng, groups=8)
        for g in range(8, 14):
            root = registry.fresh_boolean(0.6)
            for _ in range(4):
                atoms = [(root, 1), (registry.fresh_boolean(rng.uniform(0.2, 0.8)), 1)]
                rows.append(
                    (g,) + encode_condition(canonical_clause(atoms), COND_ARITY)
                )
        rng.shuffle(rows)
        return _plain(rows, registry)

    @staticmethod
    def _pooled(urel, policy, workers, answer):
        """The aggregate's rows with every group the array pass declines
        answered on a pool of ``workers`` threads by ``answer(dispatcher,
        ordinal, clauses)``; returns (rows, declined group ordinals)."""
        positions, projections, row_groups = agg._groups(urel, ["g"])
        probabilities, declined = agg._array_pass(urel, row_groups, policy)
        lineages = agg.group_lineages(urel, [row_groups[g] for g in declined])

        def unit(job):
            ordinal, clauses = job
            dispatcher = ConfidenceDispatcher(policy)
            return answer(dispatcher, ordinal, clauses)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            answers = list(pool.map(unit, zip(declined, lineages)))
        for ordinal, probability in zip(declined, answers):
            probabilities[ordinal] = probability
        rows = [
            projected + (probability,)
            for projected, probability in zip(projections, probabilities)
        ]
        return rows, declined

    def test_conf_shards_only_the_declined_groups(self):
        pytest.importorskip("numpy")
        registry = VariableRegistry()
        urel = self._mixed(registry, random.Random(3))
        policy = DispatchPolicy()
        expected = agg.conf(
            urel, ["g"], dispatcher=ConfidenceDispatcher(policy)
        ).rows
        rows, declined = self._pooled(
            urel,
            policy,
            2,
            lambda dispatcher, ordinal, clauses: dispatcher.group_probabilities(
                [clauses], urel.registry
            )[0].probability,
        )
        assert rows == expected
        assert len(declined) == 8  # the crossing groups; no tree reaches the pool

    @pytest.mark.parametrize("workers", [1, 3])
    def test_aconf_streams_keep_their_group_numbers(self, workers):
        registry = VariableRegistry()
        urel = self._mixed(registry, random.Random(4))
        # A budget of one sub-problem: the crossing groups go to Monte Carlo.
        policy = DispatchPolicy(exact_budget=1)
        expected = agg.aconf(
            urel,
            0.3,
            0.2,
            ["g"],
            dispatcher=ConfidenceDispatcher(policy),
            base_seed=5,
        ).rows
        rows, declined = self._pooled(
            urel,
            policy,
            workers,
            lambda dispatcher, ordinal, clauses: dispatcher.approximate(
                clauses, urel.registry, 0.3, 0.2, unit_seed=aconf_unit_seed(5, ordinal)
            ).probability,
        )
        assert declined
        assert rows == expected


def _store(**kwargs):
    db = MayBMS(seed=11, **kwargs)
    db.execute("create table t (g integer, k integer, w float)")
    values = [
        f"({g}, {k}, {1 + (g * 7 + k * 3) % 5})"
        for g in range(10)
        for k in range(12)
    ]
    db.execute("insert into t values " + ", ".join(values))
    db.execute("create table u as repair key g in t weight by w")
    return db


QUERY = "select k, conf() as p from u group by k order by k"


class TestLifecycle:
    def test_shutdown_is_idempotent_and_blocks_reuse(self, in_parallel):
        db = _store()
        sessions = [db.session(read_only=True) for _ in range(2)]
        one, two = in_parallel(2, lambda i: sessions[i].query(QUERY).rows)
        assert one == two
        db.close()
        db.close()
        assert db.sessions() == []
        for session in sessions:
            with pytest.raises(TransactionError, match="session is closed"):
                session.query(QUERY)
        with pytest.raises(TransactionError, match="store is closed"):
            db.session()


class TestFacade:
    def test_sql_conf_matches_serial_and_traces(self, in_parallel):
        with _store() as db:
            expected = db.query(QUERY).rows
            sessions = [db.session(read_only=True) for _ in range(3)]
            answers = in_parallel(3, lambda i: sessions[i].query(QUERY).rows)
            assert answers == [expected] * 3
            explain = "\n".join(
                row[0]
                for row in sessions[0].execute("explain " + QUERY).relation.rows
            )
        assert "conf: 12 group(s)" in explain, explain
        assert "parallel" not in explain, explain

    def test_serial_store_has_no_pool(self):
        with MayBMS(seed=1) as db:
            for facade in (db, db.session()):
                assert not hasattr(facade, "parallel_pool")
                assert not hasattr(facade, "parallel_stats")
        with pytest.raises(TypeError):
            MayBMS(parallel_workers=2)


class TestShardingPrimitives:
    """The seed derivation that keeps a seeded answer independent of how
    its groups are split across sessions, threads or passes."""

    def test_unit_seed_is_stable_and_distinct(self):
        assert aconf_unit_seed(42, 3) == aconf_unit_seed(42, 3)
        seeds = {aconf_unit_seed(42, g) for g in range(200)}
        assert len(seeds) == 200
        assert aconf_unit_seed(1, 3) != aconf_unit_seed(2, 3)
        # Block j of a group's main run draws from fnv_mix(unit seed, j + 1):
        # no block stream is any group's own stream.
        blocks = {fnv_mix(seed, j + 1) for seed in seeds for j in range(4)}
        assert len(blocks) == 800
        assert not blocks & seeds
