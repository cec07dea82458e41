"""End-to-end reproduction tests: the paper's own queries and scenarios.

- Figure 1: the U-relation encoding of a 1-step random walk;
- Section 3 "Fitness prediction": the two verbatim SQL statements, checked
  against numpy matrix powers;
- Section 3 "Team management": skill availability probabilities;
- Section 3 "Performance prediction": recency-weighted expected points.
"""

import numpy as np
import pytest

from reference.confidence import clause_probability
from reference.worlds import rows_with_conditions
from repro import MayBMS
from repro.datagen.markov import (
    FIGURE1_MATRIX,
    FIGURE1_STATES,
    figure1_relation,
    matrix_power_distribution,
)
from repro.datagen.nba import NBADataGenerator


@pytest.fixture
def db():
    session = MayBMS()
    session.create_table_from_relation("ft", figure1_relation())
    session.execute("create table states (player text, state text)")
    session.execute("insert into states values ('Bryant', 'F')")
    return session


class TestFigure1:
    def test_ft_relation_matches_figure(self, db):
        ft = db.table("ft")
        rows = {(r[1], r[2]): r[3] for r in ft}
        # The eight positive entries of the matrix (SL->SE is 0, omitted).
        assert len(ft) == 8
        assert rows[("F", "F")] == pytest.approx(0.8)
        assert rows[("SE", "SL")] == pytest.approx(0.3)
        assert ("SL", "SE") not in rows

    def test_one_step_walk_u_relation(self, db):
        """R2 of Figure 1: repair key on (Player, Init) produces one
        variable per Init group with the matrix row as its distribution."""
        urel = db.uncertain_query(
            "select * from (repair key player, init in ft weight by p) r2"
        )
        assert len(urel) == 8
        assert urel.cond_arity == 1
        # Three variables (one per Init state), as in the figure's x, y, z.
        variables = set()
        for _, condition in rows_with_conditions(urel):
            variables.update(var for var, _ in condition)
        assert len(variables) == 3
        # Marginals equal the matrix entries.
        for payload, condition in rows_with_conditions(urel):
            assert clause_probability(condition, urel.registry) == pytest.approx(payload[3])

    def test_per_group_exclusivity(self, db):
        urel = db.uncertain_query(
            "select * from (repair key player, init in ft weight by p) r2"
        )
        by_init = {}
        for payload, condition in rows_with_conditions(urel):
            by_init.setdefault(payload[1], set()).update(var for var, _ in condition)
        # Same variable within a group, different across groups.
        assert all(len(vs) == 1 for vs in by_init.values())
        assert len(set.union(*by_init.values())) == 3


class TestSection3FitnessPrediction:
    def test_verbatim_queries_equal_matrix_cube(self, db):
        db.execute(
            """
            create table FT2 as
            select R1.Player, R1.Init, R2.Final, conf() as p from
            (repair key Player, Init in FT weight by p) R1,
            (repair key Player, Init in FT weight by p) R2, States S
            where R1.Player = S.Player and R1.Init = S.State
            and R1.Final = R2.Init and R1.Player = R2.Player
            group by R1.Player, R1.Init, R2.Final
            """
        )
        ft2 = db.table("ft2")
        m2 = FIGURE1_MATRIX @ FIGURE1_MATRIX
        index = {s: i for i, s in enumerate(FIGURE1_STATES)}
        assert len(ft2) == 3  # one row per Final, Init fixed to F by States
        for _, init, final, p in ft2:
            assert init == "F"
            assert p == pytest.approx(m2[index[init], index[final]])

        out = db.query(
            """
            select R1.Player, R2.Final as State, conf() as p from
            (repair key Player, Init in FT2 weight by p) R1,
            (repair key Player, Init in FT weight by p) R2
            where R1.Final = R2.Init and R1.Player = R2.Player
            group by R1.player, R2.Final
            """
        )
        expected = matrix_power_distribution(FIGURE1_MATRIX, 0, 3, FIGURE1_STATES)
        assert len(out) == 3
        for _, state, p in out:
            assert p == pytest.approx(expected[state], abs=1e-12)

    def test_walk_distribution_sums_to_one(self, db):
        db.execute(
            """
            create table ft2 as
            select R1.Player, R1.Init, R2.Final, conf() as p from
            (repair key Player, Init in FT weight by p) R1,
            (repair key Player, Init in FT weight by p) R2, States S
            where R1.Player = S.Player and R1.Init = S.State
            and R1.Final = R2.Init and R1.Player = R2.Player
            group by R1.Player, R1.Init, R2.Final
            """
        )
        total = sum(r[3] for r in db.table("ft2"))
        assert total == pytest.approx(1.0)

    @pytest.mark.parametrize("steps", [2, 3, 4])
    def test_multi_player_walks(self, steps):
        """Random walks for a whole synthetic roster at once."""
        gen = NBADataGenerator(seed=7, n_players=4)
        db = MayBMS()
        db.create_table_from_relation("ft", gen.fitness_transitions_relation())
        db.create_table_from_relation("states", gen.initial_states_relation())

        db.execute(
            """
            create table walk as
            select R1.Player, R1.Init, R2.Final, conf() as p from
            (repair key Player, Init in FT weight by p) R1,
            (repair key Player, Init in FT weight by p) R2, States S
            where R1.Player = S.Player and R1.Init = S.State
            and R1.Final = R2.Init and R1.Player = R2.Player
            group by R1.Player, R1.Init, R2.Final
            """
        )
        for _ in range(steps - 2):
            db.execute(
                """
                create table walk_next as
                select R1.Player, R1.Init, R2.Final, conf() as p from
                (repair key Player, Init in walk weight by p) R1,
                (repair key Player, Init in FT weight by p) R2
                where R1.Final = R2.Init and R1.Player = R2.Player
                group by R1.Player, R1.Init, R2.Final
                """
            )
            db.execute("drop table walk")
            db.execute("create table walk as select * from walk_next")
            db.execute("drop table walk_next")

        result = db.table("walk")
        for player in gen.players:
            truth = gen.fitness_ground_truth(player, steps)
            rows = {r[2]: r[3] for r in result if r[0] == player.name}
            for state, probability in rows.items():
                assert probability == pytest.approx(truth[state], abs=1e-9)


class TestSection3TeamManagement:
    @pytest.fixture
    def team_db(self):
        gen = NBADataGenerator(seed=2009, n_players=10)
        db = MayBMS()
        db.create_table_from_relation("availability", gen.availability_relation())
        db.create_table_from_relation("skills", gen.skills_relation())
        return db, gen

    def test_skill_availability_probabilities(self, team_db):
        """P(some available player has skill s), per skill -- computed with
        pick tuples + join + conf, checked against the closed form."""
        db, gen = team_db
        result = db.query(
            """
            select s.skill, conf() as p
            from (pick tuples from availability independently
                  with probability p) a, skills s
            where a.player = s.player
            group by s.skill
            """
        )
        truth = gen.skill_availability_ground_truth()
        assert len(result) > 0
        for skill, p in result:
            assert p == pytest.approx(truth[skill], abs=1e-9)

    def test_layoff_what_if(self, team_db):
        """Lay off the most expensive player; skill availability must be
        recomputable on the reduced roster (the manager's what-if)."""
        db, gen = team_db
        expensive = max(gen.players, key=lambda p: p.salary_millions).name
        db.execute(f"delete from availability where player = '{expensive}'")
        result = db.query(
            """
            select s.skill, conf() as p
            from (pick tuples from availability independently
                  with probability p) a, skills s
            where a.player = s.player
            group by s.skill
            """
        )
        for skill, p in result:
            assert 0.0 <= p <= 1.0


class TestSection3PerformancePrediction:
    def test_recency_weighted_expected_points(self):
        gen = NBADataGenerator(seed=5, n_players=6)
        db = MayBMS()
        db.create_table_from_relation("points", gen.recent_points_relation())
        db.create_table_from_relation("weights", gen.recency_weights_relation())
        # Hypothesis space: which game's performance repeats? weight by
        # recency; predicted points = esum over the weighted choice.
        result = db.query(
            """
            select r.player, esum(r.points * w.w) as predicted
            from points r, weights w
            where r.game = w.game
            group by r.player
            """
        )
        truth = gen.expected_points_ground_truth()
        for player, predicted in result:
            assert predicted == pytest.approx(truth[player], rel=1e-9)

    def test_prediction_as_repair_key_expectation(self):
        """Alternative encoding: ``repair key player`` over the weighted
        join picks one recent game per player (weight = recency), and
        ``esum(points)`` of that choice is the same weighted average."""
        gen = NBADataGenerator(seed=5, n_players=4)
        db = MayBMS()
        db.create_table_from_relation("points", gen.recent_points_relation())
        db.create_table_from_relation("weights", gen.recency_weights_relation())
        result = db.query(
            """
            select r.player, esum(r.points) as predicted from
            (repair key player in
               (select p.player, p.points, w.w
                from points p, weights w where p.game = w.game)
               weight by w) r
            group by r.player
            """
        )
        truth = gen.expected_points_ground_truth()
        assert len(result) == 4
        for player, predicted in result:
            assert predicted == pytest.approx(truth[player], rel=1e-9)
