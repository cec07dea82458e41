"""``walk_whatif``: the paper's Section 3 scenarios on the ``league``
dataset -- random walk, skill availability, performance prediction, and the
lay-off what-if -- with DML beside analytics on the same tables."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..datasets import League
from .base import Stmt, Workload, close

_AVAILABLE = {"fit": 0.95, "slightly_injured": 0.6, "seriously_injured": 0.2}


class WalkWhatif(Workload):
    name = "walk_whatif"
    why = (
        "paper section 3: 2-step repair-key random walk + conf(), pick-tuples skill availability, "
        "esum, and the lay-off what-if (create/delete/insert/drop); variable minting inside SELECT"
    )
    min_rounds = 14  # x 8 statements = 112
    _WALK = (
        "select R1.player, R2.final, conf() as p from "
        "(repair key player, init in ft weight by p) R1, "
        "(repair key player, init in ft weight by p) R2, states S "
        "where R1.player = S.player and R1.init = S.state "
        "and R1.final = R2.init and R1.player = R2.player "
        "group by R1.player, R2.final"
    )
    _SKILLS = (
        "select s.team, s.skill, conf() as p from "
        "(pick tuples from availability independently with probability p) a, skills s "
        "where a.player = s.player group by s.team, s.skill"
    )
    _POINTS = (
        "select r.player, esum(r.points * w.w) as predicted from points r, weights w "
        "where r.game = w.game group by r.player"
    )

    def generate(self) -> None:
        self.league = League(self.scale.teams, self.scale.players, self.seed)
        league = self.league
        self._walk_truth: Dict[Tuple[str, str], float] = {}
        self._points_truth: Dict[str, float] = {}
        self._roster: List[Tuple[int, str, float, Tuple[str, ...]]] = []
        for team, generator in enumerate(league.teams):
            for player in generator.players:
                name = league.player_name(team, player.name)
                for state, p in generator.fitness_ground_truth(player, 2).items():
                    if p > 0.0:
                        self._walk_truth[(name, state)] = p
                self._roster.append(
                    (team, name, _AVAILABLE[player.status], player.skills)
                )
            for player_name, points in generator.expected_points_ground_truth().items():
                self._points_truth[league.player_name(team, player_name)] = points

    def load(self, db) -> None:
        self.league.load(db)

    def _skills_truth(self, without: str = "") -> Dict[Tuple[str, str], float]:
        """P(some available player of the team has the skill)."""
        absent: Dict[Tuple[str, str], float] = {}
        for team, name, available, skills in self._roster:
            if name == without:
                continue
            for skill in skills:
                key = (League.team_name(team), skill)
                absent[key] = absent.get(key, 1.0) * (1.0 - available)
        return {key: 1.0 - q for key, q in absent.items()}

    @staticmethod
    def _matches(result, truth: Dict[tuple, float], tolerance: float = 1e-9) -> bool:
        got = {tuple(row[:-1]): row[-1] for row in result.rows}
        return got.keys() == truth.keys() and all(
            close(got[key], value, tolerance) for key, value in truth.items()
        )

    def rounds(self, conn: int) -> Iterator[List[Stmt]]:
        rng = self.rng(conn)
        walk_truth = self._walk_truth
        points_truth = {(name,): value for name, value in self._points_truth.items()}
        everyone = self._skills_truth()
        while True:
            laid_off = rng.choice(self._roster)[1]
            reduced = self._skills_truth(without=laid_off)
            quoted = laid_off.replace("'", "''")
            yield [
                Stmt("walk", self._WALK, lambda r: self._matches(r, walk_truth)),
                Stmt("skills", self._SKILLS, lambda r: self._matches(r, everyone)),
                Stmt("points", self._POINTS, lambda r: self._matches(r, points_truth)),
                Stmt(
                    "ddl",
                    "create table availability_backup as select * from availability",
                    commit=True,
                ),
                Stmt(
                    "dml",
                    f"delete from availability where player = '{quoted}'",
                    lambda r: r.row_count == 1,
                    commit=True,
                ),
                Stmt("skills", self._SKILLS, lambda r, t=reduced: self._matches(r, t)),
                Stmt(
                    "dml",
                    "insert into availability select * from availability_backup "
                    f"where player = '{quoted}'",
                    lambda r: r.row_count == 1,
                    commit=True,
                ),
                Stmt("ddl", "drop table availability_backup", commit=True),
            ]
