"""FIG1 + Q3WALK: Figure 1 and the Section 3 random-walk queries.

Regenerates the paper's only figure -- the stochastic matrix, its
relational encoding FT, and the U-relation R2 of the 1-step walk -- and
the two verbatim SQL statements of Section 3, asserting exact agreement
with numpy matrix powers, then benchmarks the pipeline and sweeps walk
length and roster size.
"""

import numpy as np
import pytest

from conftest import timed

from repro import MayBMS
from repro.core.lineage import row_clauses
from repro.datagen.markov import (
    FIGURE1_MATRIX,
    FIGURE1_STATES,
    figure1_relation,
    matrix_power_distribution,
)
from repro.datagen.nba import NBADataGenerator

WALK_STEP_SQL = """
    create table {out} as
    select R1.Player, R1.Init, R2.Final, conf() as p from
    (repair key Player, Init in {prev} weight by p) R1,
    (repair key Player, Init in FT weight by p) R2
    where R1.Final = R2.Init and R1.Player = R2.Player
    group by R1.Player, R1.Init, R2.Final
"""


def fresh_db():
    db = MayBMS()
    db.create_table_from_relation("ft", figure1_relation())
    db.execute("create table states (player text, state text)")
    db.execute("insert into states values ('Bryant', 'F')")
    return db


def run_three_step_walk(db):
    db.execute("drop table if exists ft2")
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
    return db.query(
        """
        select R1.Player, R2.Final as State, conf() as p from
        (repair key Player, Init in FT2 weight by p) R1,
        (repair key Player, Init in FT weight by p) R2
        where R1.Final = R2.Init and R1.Player = R2.Player
        group by R1.player, R2.Final
        """
    )


def walk_distribution(db, steps):
    """k-step walk by iterating the paper's join+conf pattern."""
    db.execute("drop table if exists walk")
    db.execute(
        "create table walk as select player, init, final, p from ft"
    )
    for i in range(steps - 1):
        db.execute(WALK_STEP_SQL.format(out=f"walk_{i}", prev="walk"))
        db.execute("drop table walk")
        db.execute(f"create table walk as select * from walk_{i}")
        db.execute(f"drop table walk_{i}")
    return db.query(
        "select final, p from walk where init = 'F' order by final"
    )


class TestFigure1Exactness:
    def test_one_step_encoding_matches_figure(self):
        db = fresh_db()
        r2 = db.uncertain_query(
            "select * from (repair key player, init in ft weight by p) r2"
        )
        assert len(r2) == 8 and r2.cond_arity == 1
        variables = set()
        for row, clause in zip(r2.relation.rows, row_clauses(r2)):
            variables |= {var for var, _ in clause}
            p = r2.registry.assignment_probability(dict(clause))
            assert p == pytest.approx(row[3])
        assert len(variables) == 3  # the figure's x, y, z

    def test_three_step_equals_matrix_cube(self):
        db = fresh_db()
        result = run_three_step_walk(db)
        expected = matrix_power_distribution(FIGURE1_MATRIX, 0, 3, FIGURE1_STATES)
        for _, state, p in result:
            assert p == pytest.approx(expected[state], abs=1e-12)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5])
    def test_walk_length_sweep_exact(self, steps):
        db = fresh_db()
        result = walk_distribution(db, steps)
        expected = matrix_power_distribution(
            FIGURE1_MATRIX, 0, steps, FIGURE1_STATES
        )
        for state, p in result:
            assert p == pytest.approx(expected[state], abs=1e-9)


class TestBenchmarks:
    def test_fig1_one_step_walk(self, benchmark):
        db = fresh_db()
        result = benchmark(
            db.query,
            """
            select player, init, final, conf() as p
            from (repair key player, init in ft weight by p) r
            group by player, init, final
            """,
        )
        assert len(result) == 8

    def test_q3walk_three_step_paper_queries(self, benchmark):
        db = fresh_db()
        result = benchmark.pedantic(
            run_three_step_walk, args=(db,), rounds=5, iterations=1
        )
        assert len(result) == 3

    def test_walk_length_scaling(self, benchmark, report):
        """Time grows with walk length; result stays exact at each step."""
        rows = []
        for steps in (1, 2, 3, 4, 5, 6):
            db = fresh_db()
            seconds, result = timed(walk_distribution, db, steps)
            expected = matrix_power_distribution(
                FIGURE1_MATRIX, 0, steps, FIGURE1_STATES
            )
            worst = max(abs(p - expected[s]) for s, p in result)
            rows.append((steps, seconds * 1e3, worst))
        report(
            "Q3WALK: walk length sweep (single player)",
            ["steps", "ms", "max_abs_error"],
            rows,
        )
        assert all(err < 1e-9 for _, _, err in rows)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_roster_size_scaling(self, benchmark, report):
        """Q3WALK over whole rosters: time scales near-linearly in the
        number of players (independent walks share one query)."""
        rows = []
        for n_players in (2, 4, 8, 16):
            gen = NBADataGenerator(seed=13, n_players=n_players)
            db = MayBMS()
            db.create_table_from_relation("ft", gen.fitness_transitions_relation())
            db.create_table_from_relation("states", gen.initial_states_relation())
            seconds, _ = timed(
                db.query,
                """
                select R1.Player, R2.Final as state, conf() as p from
                (repair key Player, Init in FT weight by p) R1,
                (repair key Player, Init in FT weight by p) R2, States S
                where R1.Player = S.Player and R1.Init = S.State
                and R1.Final = R2.Init and R1.Player = R2.Player
                group by R1.Player, R2.Final
                """,
            )
            rows.append((n_players, seconds * 1e3))
        report("Q3WALK: roster size sweep (2-step walk)", ["players", "ms"], rows)
        # Near-linear: 8x the players should cost well under 64x the time.
        assert rows[-1][1] < rows[0][1] * 64
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
