"""Tests for the workload generators (determinism and shape)."""

import random

import numpy as np
import pytest

from repro.datagen.markov import (
    FIGURE1_MATRIX,
    figure1_relation,
    matrix_power_distribution,
    random_stochastic_matrix,
    transition_relation,
)
from repro.datagen.nba import FITNESS_STATES, SKILLS, NBADataGenerator
from repro.datagen.random_dnf import random_dnf, random_registry, ratio_sweep_instances
from repro.datagen.tpch import TpchGenerator
from repro.db import MayBMS


class TestMarkov:
    def test_rows_are_stochastic(self):
        rng = random.Random(1)
        for _ in range(5):
            matrix = random_stochastic_matrix(4, rng)
            assert np.allclose(matrix.sum(axis=1), 1.0)
            assert (matrix >= 0).all()

    def test_sparsity_produces_zeros(self):
        rng = random.Random(2)
        matrix = random_stochastic_matrix(6, rng, sparsity=0.8)
        assert (matrix == 0.0).sum() > 0

    def test_transition_relation_omits_zeros(self):
        matrix = np.array([[0.5, 0.5], [1.0, 0.0]])
        relation = transition_relation({"p": matrix}, ["a", "b"])
        assert len(relation) == 3
        pairs = {(r[1], r[2]) for r in relation}
        assert ("b", "b") not in pairs

    def test_figure1_relation_has_eight_rows(self):
        assert len(figure1_relation()) == 8

    def test_matrix_power_distribution(self):
        dist = matrix_power_distribution(FIGURE1_MATRIX, 0, 1)
        assert dist["F"] == pytest.approx(0.8)
        assert sum(dist.values()) == pytest.approx(1.0)


class TestNBA:
    def test_deterministic_under_seed(self):
        a = NBADataGenerator(seed=3)
        b = NBADataGenerator(seed=3)
        assert a.roster_relation() == b.roster_relation()
        assert a.skills_relation() == b.skills_relation()

    def test_different_seeds_differ(self):
        a = NBADataGenerator(seed=3)
        b = NBADataGenerator(seed=4)
        assert a.roster_relation() != b.roster_relation()

    def test_roster_shape(self):
        gen = NBADataGenerator(seed=1, n_players=12)
        roster = gen.roster_relation()
        assert len(roster) == 12
        assert roster.schema.names == ["name", "salary", "status"]
        statuses = set(roster.column("status"))
        assert statuses <= {"fit", "slightly_injured", "seriously_injured"}

    def test_skills_valid(self):
        gen = NBADataGenerator(seed=1)
        for player, skill in gen.skills_relation():
            assert skill in SKILLS

    def test_fitness_matrices_stochastic(self):
        gen = NBADataGenerator(seed=1, n_players=5)
        for player in gen.players:
            assert np.allclose(player.fitness_matrix.sum(axis=1), 1.0)

    def test_transitions_relation_consistent_with_matrices(self):
        gen = NBADataGenerator(seed=1, n_players=3)
        relation = gen.fitness_transitions_relation()
        player = gen.players[0]
        rows = {
            (r[1], r[2]): r[3] for r in relation if r[0] == player.name
        }
        for i, init in enumerate(FITNESS_STATES):
            for j, final in enumerate(FITNESS_STATES):
                value = float(player.fitness_matrix[i, j])
                if value > 0:
                    assert rows[(init, final)] == pytest.approx(value)

    def test_recency_weights_normalized(self):
        gen = NBADataGenerator(seed=1)
        weights = gen.recency_weights_relation()
        assert sum(w for _, w in weights) == pytest.approx(1.0)
        values = [w for _, w in weights]
        assert values == sorted(values, reverse=True)  # more recent heavier

    def test_ground_truths_in_range(self):
        gen = NBADataGenerator(seed=1)
        for p in gen.skill_availability_ground_truth().values():
            assert 0.0 <= p <= 1.0
        for e in gen.expected_points_ground_truth().values():
            assert e >= 0.0


class TestRandomDnf:
    def test_shape(self):
        rng = random.Random(1)
        lineage, registry = random_dnf(8, 5, 3, rng)
        assert len(lineage) == 5
        assert all(len(c) == 3 for c in lineage)
        assert lineage.variables() <= set(registry.variables())
        assert lineage.arena.registry is registry

    def test_width_clamped_to_pool(self):
        rng = random.Random(1)
        lineage, _ = random_dnf(2, 4, 5, rng)
        assert all(len(c) <= 2 for c in lineage)

    def test_duplicate_clauses_are_kept_and_shared(self):
        rng = random.Random(2)
        lineage, _ = random_dnf(2, 12, 2, rng)
        assert len(lineage) == 12  # only 4 distinct clauses exist
        assert len({c.atoms for c in lineage}) < 12
        assert len({id(c) for c in lineage}) == len({c.atoms for c in lineage})

    def test_registry_reuse(self):
        rng = random.Random(1)
        registry, variables = random_registry(5, rng)
        _, same = random_dnf(5, 3, 2, rng, registry=registry, variables=variables)
        assert same is registry

    def test_ratio_sweep(self):
        rng = random.Random(1)
        instances = ratio_sweep_instances(10, [0.2, 1.0, 3.0], 2, rng)
        assert len(instances) == 3
        for ratio, lineage, _ in instances:
            assert len(lineage) == 10
            pool = max(2, int(round(ratio * 10)))
            assert len(lineage.variables()) <= pool


class TestTpch:
    def test_deterministic(self):
        a = TpchGenerator(scale=0.1, seed=5)
        b = TpchGenerator(scale=0.1, seed=5)
        assert a.customers() == b.customers()
        assert a.orders() == b.orders()

    def test_scale_controls_size(self):
        small = TpchGenerator(scale=0.1, seed=1)
        large = TpchGenerator(scale=0.5, seed=1)
        assert len(large.orders()) > len(small.orders())
        assert len(small.customers()) == 15

    def test_foreign_keys_valid(self):
        gen = TpchGenerator(scale=0.05, seed=2)
        customer_keys = set(gen.customers().column("custkey"))
        for order in gen.orders():
            assert order[1] in customer_keys
        order_keys = set(gen.orders().column("orderkey"))
        for item in gen.lineitems():
            assert item[0] in order_keys

    def test_tables_become_tuple_independent_through_sql(self):
        gen = TpchGenerator(scale=0.05, seed=3)
        db = MayBMS()
        db.create_table_from_relation("customer", gen.customers())
        rows = db.query(
            "select custkey, tconf() as p from "
            "(pick tuples from customer independently with probability 0.8) c"
        ).rows
        assert sorted(key for key, _ in rows) == list(gen.customers().column("custkey"))
        assert {p for _, p in rows} == {0.8}

    def test_tables_cached(self):
        gen = TpchGenerator(scale=0.05, seed=4)
        assert gen.orders() is gen.orders()
