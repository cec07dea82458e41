"""All six workloads end to end at smoke scale -- server subprocess,
untraced and traced -- and ``compare`` on the records they produce."""

import copy
import json

import pytest

from .. import cli, driver, layers, record
from ..datasets import SCALES
from ..workloads import WORKLOADS


@pytest.fixture(scope="module")
def entries():
    workdir = driver.work_directory()
    try:
        yield {
            name: cli.run_workload(
                name, seed=3, seconds=0.15, scale="smoke", workdir=workdir, traced=True
            )
            for name in WORKLOADS
        }
    finally:
        driver.discard(workdir)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_answer_is_right_and_every_metric_is_there(entries, name):
    entry = entries[name]
    assert entry["failed"] == 0, entry["errors"]
    assert entry["measured_statements"] > 0 and entry["traced_statements"] > 0
    assert entry["end_to_end"]["failed_share"]["value"] == 0.0
    for metric in ("setup_s", "throughput_stmt_s", "latency_p50_ms", "server_peak_rss_mb"):
        assert entry["end_to_end"][metric]["value"] > 0
    layer = entry["per_layer"]
    parts = sum(layer[m] for m in layers.TIME_METRICS) + layer["trace.unattributed_ms"]
    assert parts == pytest.approx(layer["trace.latency_ms"], rel=1e-9)
    assert 0 < layer["trace.overhead_ratio"]
    assert layer["protocol.reply_bytes_per_stmt"] > 0
    assert '"metrics"' in cli._contract_line(entry, trace=0)
    assert '"trace.unattributed_ms"' in cli._contract_line(entry, trace=1)


def test_workloads_reach_the_layers_they_are_meant_to(entries):
    assert entries["ctrans_join"]["end_to_end"]["ctrans_overhead_ratio"]["value"] > 0
    assert entries["ctrans_join"]["per_layer"]["confidence.dispatch_ms"] == 0
    assert entries["conf_safe"]["per_layer"]["confidence.strategy.exact"] == 0
    assert entries["conf_hard"]["per_layer"]["confidence.strategy.exact"] > 0
    assert entries["conf_hard"]["per_layer"]["confidence.samples_per_stmt"] > 0
    hard = entries["conf_hard"]["per_layer"]
    confidence = sum(
        hard[m]
        for m in ("aggregates.self_ms", "lineage.group_ms", "confidence.dispatch_ms",
                  "confidence.exact_ms", "confidence.dklr_ms")
    )
    engine = hard["executor.self_ms"] + hard["planner.run_ms"] + hard["translate.self_ms"]
    assert confidence > engine > 0
    assert entries["walk_whatif"]["per_layer"]["variables.minted_per_stmt"] > 0
    serving = entries["serving_mixed"]
    assert serving["end_to_end"]["recovery_s"]["value"] > 0
    assert serving["per_layer"]["durability.fsync_wait_ms"] > 5  # the 10 ms failpoint
    assert entries["point_ops"]["per_layer"]["durability.commits"] > 0


def test_a_failed_check_is_an_exit_code(entries, monkeypatch, capsys):
    entry = copy.deepcopy(entries["point_ops"])
    monkeypatch.setattr(cli, "run_workload", lambda *args, **kwargs: entry)
    arguments = ["run", "--workload", "point_ops", "--scale", "smoke", "--seconds", "0.1"]
    assert cli.main(arguments) == 0
    entry["failed"] = 1
    assert cli.main(arguments) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_the_window_stays_open_for_the_rounds_a_percentile_needs():
    """``--seconds 0`` still measures ``min_rounds`` rounds per connection."""
    workload = WORKLOADS["walk_whatif"](3, SCALES["smoke"]._replace(floors=True))
    workdir = driver.work_directory()
    try:
        phase = driver.run_phase(workload, 0.0, workdir, traced=False)
    finally:
        driver.discard(workdir)
    assert len(phase.run.measured) == workload.min_rounds * 8
    values = driver.end_to_end(phase.run, phase.observed, phase.setup.seconds)
    assert values["latency_p90_ms"] is not None and phase.run.failed == 0


def test_compare_says_ok_worse_and_unresolved(entries, tmp_path):
    run = {"workloads": entries}
    base = {"schema": record.SCHEMA, "runs": [run, run, run]}
    lines, clean = record.compare(base, base)
    assert clean and all(line.endswith("ok") for line in lines[1:])

    slower = copy.deepcopy(run)
    cell = slower["workloads"]["point_ops"]["end_to_end"]["latency_p50_ms"]
    cell["value"] *= 1.5
    lines, clean = record.compare(base, {"schema": record.SCHEMA, "runs": [slower] * 3})
    assert not clean
    assert [l for l in lines if l.endswith("worse")][0].split()[:2] == ["point_ops", "latency_p50_ms"]

    noisy = {"schema": record.SCHEMA, "runs": [run, slower, run]}
    lines, clean = record.compare(noisy, noisy)
    assert clean and any(l.endswith("unresolved") for l in lines)

    failing = copy.deepcopy(run)
    failing["workloads"]["conf_safe"]["end_to_end"]["failed_share"]["value"] = 0.01
    _, clean = record.compare(base, {"schema": record.SCHEMA, "runs": [failing]})
    assert not clean

    path = tmp_path / "record.json"
    record.append_run(str(path), run)
    record.append_run(str(path), run)
    loaded = record.load(str(path))
    assert len(loaded["runs"]) == 2 and list(loaded)[-1] == "claim" and loaded["claim"] is None
