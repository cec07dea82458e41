"""Statement streams are a function of the seed; datasets terminate;
``BENCHMARK.json`` and the harness name the same things."""

import itertools
import json
import os
import re

import pytest

from .. import driver, metrics, stats
from ..datasets import NAME_POOL, SCALES, League
from ..workloads import WORKLOADS


def stream(name, seed, rounds=3):
    workload = WORKLOADS[name](seed, SCALES["smoke"])
    workload.generate()
    return [
        (stmt.kind, stmt.sql)
        for conn in range(workload.connections)
        for batch in itertools.islice(workload.rounds(conn), rounds)
        for stmt in batch
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_byte_identical_statements(name):
    first, second = stream(name, 7), stream(name, 7)
    assert first == second
    assert repr(first).encode() == repr(second).encode()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_another_seed_gives_other_statements(name):
    assert stream(name, 7) != stream(name, 8)


def test_another_seed_gives_other_thresholds():
    def thresholds(seed):
        return re.findall(r"totalprice > ([0-9.]+)", " ".join(sql for _, sql in stream("ctrans_join", seed)))

    assert thresholds(7) and thresholds(7) != thresholds(8)


def test_rounds_keep_their_class_mix():
    for name in WORKLOADS:
        workload = WORKLOADS[name](3, SCALES["smoke"])
        workload.generate()
        mixes = [
            sorted(stmt.kind for stmt in batch)
            for batch in itertools.islice(workload.rounds(0), 4)
        ]
        assert all(mix == mixes[0] for mix in mixes), name


def test_min_rounds_hold_the_samples_each_reported_percentile_needs():
    """Ten samples beyond p90 take 100 statements, beyond p99 1000; ISSUE 11
    sizes to 110 and 1100."""
    for name, cls in WORKLOADS.items():
        workload = cls(3, SCALES["smoke"])
        workload.generate()
        batch = next(workload.rounds(0))
        lanes = workload.min_rounds * workload.connections
        assert lanes * len(batch) >= 110, name
        assert stats.supported(lanes * len(batch), 90.0), name
        if "latency_p99_ms" in workload.reports:
            assert lanes * len(batch) >= 1100, name
        if "commit_p99_ms" in workload.reports:
            commits = lanes * sum(stmt.commit for stmt in batch)
            assert commits >= 1100 and stats.supported(commits, 99.0), name
    assert SCALES["bench"].floors and not SCALES["smoke"].floors


def test_league_grows_past_the_generator_name_pool():
    league = League(teams=3, players=150, seed=5)
    names = {
        league.player_name(team, player.name)
        for team, generator in enumerate(league.teams)
        for player in generator.players
    }
    assert len(names) == 450 > NAME_POOL
    with pytest.raises(ValueError):
        League(teams=1, players=NAME_POOL + 1, seed=5)


def test_benchmark_json_declares_what_the_harness_reports():
    with open(os.path.join(driver.REPO_ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()
    ]
    universal = metrics.END_TO_END[: metrics.UNIVERSAL]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        tuple(m) for m in universal
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(m)[:3] for m in metrics.PER_LAYER
    ]
    assert all(os.path.isdir(os.path.join(driver.REPO_ROOT, path)) for path in declared["paths"])
