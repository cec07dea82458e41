"""Relational operators under parallel sessions: a scan split into
shards and a hash join split into key partitions, each piece run by its
own session on its own thread, reassemble into the serial answer; aconf(),
esum(), ecount() and Monte-Carlo conf() answered by several sessions at
once equal one serial session's answers bit for bit.  The sessions share
each table version's column mirrors, join build tables and groupings
(:meth:`~repro.engine.relation.Relation.derived`), built by whichever
statement asks first.  EXPLAIN renders no parallel fragment.
"""

import random

import pytest

from repro.core import aggregates as agg
from repro.core.conditions import Condition
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.core.urelation import URelation, condition_columns, encode_condition
from repro.core.variables import VariableRegistry
from repro.db import MayBMS
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER


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
    db.execute("create table u as repair key g in t weight by w")
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


def _mc_aconf(urel, base_seed):
    dispatcher = ConfidenceDispatcher(
        DispatchPolicy(strategy="monte-carlo")
    )
    return list(
        agg.aconf(
            urel, 0.4, 0.2, ["g"], dispatcher=dispatcher, base_seed=base_seed
        ).rows
    )


def _sessions(db, workers):
    return [db.session(read_only=True) for _ in range(workers)]


SCAN_QUERY = "select g, k, w * 2 as w2 from t where k % 2 = 0 order by g, k"
SCAN_SHARD = (
    "select g, k, w * 2 as w2 from t where k % 2 = 0 and g % {n} = {i} "
    "order by g, k"
)
JOIN_QUERY = (
    "select t.g, d.label, t.k from t, d "
    "where t.g = d.g and t.k < 5 order by t.g, t.k"
)
JOIN_PARTITION = (
    "select t.g, d.label, t.k from t, d "
    "where t.g = d.g and t.k < 5 and t.g % {n} = {i} order by t.g, t.k"
)
# u picks one k per g: grouped by k, each lineage is a disjunction over
# ten independent choices -- overlapping clauses, so a Monte-Carlo run
# really samples.
ACONF_QUERY = (
    "select k, aconf(0.05, 0.05) as p from u where k < 6 group by k order by k"
)
CONF_QUERY = "select k, conf() as p from u where k < 3 group by k order by k"
ESUM_QUERY = "select k, esum(w) as s from u group by k order by k"
ECOUNT_QUERY = "select k, ecount() as c from u group by k order by k"


class TestDifferentialOps:
    """Every operator answered in parallel sessions must equal serial
    execution bit-for-bit -- not approximately -- at any worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_scan_bit_identical(self, workers, in_parallel):
        with _build() as db:
            expected = db.query(SCAN_QUERY).rows
            sessions = _sessions(db, workers)
            shards = in_parallel(
                workers,
                lambda i: sessions[i].query(SCAN_SHARD.format(n=workers, i=i)).rows,
            )
        assert all(shards)
        # (g, k) is unique, so sorting the pieces restores ORDER BY g, k.
        assert sorted(row for shard in shards for row in shard) == expected

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_partitioned_join_bit_identical(self, workers, in_parallel):
        with _build() as db:
            expected = db.query(JOIN_QUERY).rows
            sessions = _sessions(db, workers)
            partitions = in_parallel(
                workers,
                lambda i: sessions[i]
                .query(JOIN_PARTITION.format(n=workers, i=i))
                .rows,
            )
        assert all(partitions)
        # The label is a function of g: sorting restores ORDER BY t.g, t.k.
        assert sorted(row for part in partitions for row in part) == expected

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_aconf_bit_identical(self, workers, in_parallel):
        # Every session answers aconf through the same deterministic
        # per-group sample streams (aconf_unit_seed over the store seed),
        # so the estimates match exactly, not within (epsilon, delta).
        # Forced Monte Carlo: under "auto" the array pass answers these
        # groups exactly and no sample stream would run.
        with _build(confidence_strategy="monte-carlo") as db:
            expected = db.query(ACONF_QUERY).rows
            sessions = _sessions(db, workers)
            answers = in_parallel(
                workers, lambda i: sessions[i].query(ACONF_QUERY).rows
            )
        assert answers == [expected] * workers

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_esum_ecount_bit_identical(self, workers, in_parallel):
        with _build() as db:
            expected = [db.query(q).rows for q in (ESUM_QUERY, ECOUNT_QUERY)]
            sessions = _sessions(db, workers)
            answers = in_parallel(
                workers,
                lambda i: [
                    sessions[i].query(q).rows for q in (ESUM_QUERY, ECOUNT_QUERY)
                ],
            )
        assert answers == [expected] * workers

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_monte_carlo_conf_bit_identical(self, workers, in_parallel):
        # A session's Monte-Carlo conf() draws from its own RNG, seeded
        # with the store seed: sessions never share or advance each
        # other's stream.
        with _build(confidence_strategy="monte-carlo") as db:
            sessions = _sessions(db, workers + 1)
            expected = sessions[-1].query(CONF_QUERY).rows
            answers = in_parallel(
                workers, lambda i: sessions[i].query(CONF_QUERY).rows
            )
        assert answers == [expected] * workers

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_aconf_monte_carlo_bit_identical(self, workers, in_parallel):
        # A hard DNF workload forced onto the Karp-Luby estimator: sample
        # loops running on several threads at once must reproduce the
        # serial deterministic stream exactly, not just within the
        # (epsilon, delta) guarantee.
        registry = VariableRegistry()
        urel = _mc_workload(registry, random.Random(7))
        expected = _mc_aconf(urel, base_seed=3)
        answers = in_parallel(workers, lambda i: _mc_aconf(urel, base_seed=3))
        assert answers == [expected] * workers

    def test_aconf_base_seed_changes_monte_carlo_answers(self, in_parallel):
        registry = VariableRegistry()
        urel = _mc_workload(registry, random.Random(7))
        one, two = in_parallel(2, lambda i: _mc_aconf(urel, base_seed=i + 1))
        assert one != two
        assert two == _mc_aconf(urel, base_seed=2)


class TestExplain:
    def test_serial_store_renders_no_parallel_fragments(self):
        with _build() as serial:
            explain = "\n".join(
                row[0]
                for row in serial.execute("explain " + JOIN_QUERY).relation.rows
            )
        assert "Join[" in explain, explain  # the plan itself is rendered
        assert "parallel" not in explain, explain
