"""``python -m benchmarks.harness run|compare`` -- see README.md."""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Dict, Optional, Sequence

from . import driver, metrics, record
from .datasets import SCALES
from .workloads import WORKLOADS

DEFAULT_SEED = 11


def _declared_seconds() -> float:
    """``run_seconds`` of the root ``BENCHMARK.json``."""
    with open(os.path.join(driver.REPO_ROOT, "BENCHMARK.json")) as handle:
        return float(json.load(handle)["run_seconds"])


def run_workload(
    name: str, seed: int, seconds: float, scale: str, workdir: str, traced: bool
) -> Dict[str, Any]:
    """Every number of one workload: an untraced run, then, if ``traced``,
    a traced run of the same statement stream on a fresh store."""

    def make():
        return WORKLOADS[name](seed, SCALES[scale])

    plain = driver.run_phase(make(), seconds, workdir, traced=False)
    run = plain.run
    values = driver.end_to_end(run, plain.observed, plain.setup.seconds)
    values.update(plain.extra)
    commits = sum(1 for s in run.measured if s.commit)
    counts = {
        "setup_s": 1,
        "commit_p99_ms": commits,
        "ctrans_overhead_ratio": len(run.measured) // 2,
        "recovery_s": 1,
        "failed_share": run.attempted,
    }
    end_to_end = {
        spec.name: {
            "value": values.get(spec.name),
            "unit": spec.unit,
            "samples": counts.get(spec.name, len(run.measured)),
        }
        for spec in metrics.END_TO_END
        if spec.name in values
    }
    attempted, failed, errors = run.attempted, run.failed, list(run.errors)
    entry: Dict[str, Any] = {
        "why": run.workload.why,
        "connections": run.workload.connections,
        "failpoints": run.workload.server_env.get("REPRO_FAULTS", ""),
        "warmup_statements": run.attempted - len(run.measured),
        "measured_statements": len(run.measured),
        "window_s": run.window_s,
    }

    if not traced:
        per_layer = driver.counter_metrics(run, plain.observed, plain.setup)
    else:
        trace = driver.run_phase(make(), seconds, workdir, traced=True)
        per_layer = driver.counter_metrics(trace.run, trace.observed, trace.setup)
        per_layer.update(trace.layer_times)
        traced_rate = len(trace.run.measured) / trace.run.window_s
        per_layer["trace.overhead_ratio"] = traced_rate / values["throughput_stmt_s"]
        attempted += trace.run.attempted
        failed += trace.run.failed
        errors += trace.run.errors
        entry["traced_statements"] = len(trace.run.measured)
    # The metrics only some workloads define sit among BENCHMARK.json's
    # per-layer ones; a workload that does not define one leaves it out here.
    for spec in metrics.END_TO_END[metrics.UNIVERSAL : -1]:
        if values.get(spec.name) is not None:
            per_layer[spec.name] = values[spec.name]

    entry.update(
        {
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:10],
            "end_to_end": end_to_end,
            "highest_percentile": driver.highest_percentile(run),
            "classes": driver.classes(run),
            "per_layer": per_layer,
            "server_stats": plain.observed["stats_after"],
            "latencies_ms": [round(s.latency_ns / 1e6, 4) for s in run.measured],
        }
    )
    entry["end_to_end"]["failed_share"]["value"] = failed / max(1, attempted)
    return entry


def _print_workload(name: str, entry: Dict[str, Any], traced: bool) -> None:
    print(f"== {name}: {entry['measured_statements']} statements in {entry['window_s']:.2f} s, "
          f"{entry['failed']} of {entry['attempted']} failed ==")
    for metric, cell in entry["end_to_end"].items():
        if cell["value"] is None:
            print(f"  {metric:<26} {'n/a':>12} too few samples (n={cell['samples']})")
        else:
            print(f"  {metric:<26} {cell['value']:>12.4f} {cell['unit']:<7} n={cell['samples']}")
    tail = entry["highest_percentile"]
    print(f"  highest percentile with 10 samples beyond: p{tail['percentile']:g} = {tail['ms']:.4f} ms "
          f"({tail['samples_beyond']} beyond)")
    for kind, cell in entry["classes"].items():
        print(f"  class {kind:<20} {cell['p50_ms']:>12.4f} ms      n={cell['count']}")
    if traced:
        layers = entry["per_layer"]
        total = layers["trace.latency_ms"]
        print(f"  traced latency {total:.4f} ms/stmt =")
        for spec in metrics.TRACED:
            value = layers.get(spec.name, 0.0)
            if spec.unit == "ms" and spec.name != "trace.latency_ms" and value:
                print(f"    {spec.name:<32} {value:>10.4f} ms {value / total:>7.1%}")
    for error in entry["errors"]:
        print(f"  FAILED {error}")


def _contract_line(entry: Dict[str, Any], trace: int) -> str:
    """The one-line result ``BENCHMARK.json``'s driver reads."""
    if trace:
        specs = metrics.PER_LAYER
        values = {spec.name: entry["per_layer"].get(spec.name, 0.0) for spec in specs}
    else:
        specs = metrics.END_TO_END[: metrics.UNIVERSAL]
        values = {spec.name: entry["end_to_end"][spec.name]["value"] for spec in specs}
    return json.dumps(
        {
            "correct": entry["failed"] == 0,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                spec.name: {"value": float(values[spec.name] or 0.0), "unit": spec.unit}
                for spec in specs
            },
        }
    )


def command_run(args: argparse.Namespace) -> int:
    seconds = args.seconds if args.seconds is not None else _declared_seconds()
    workdir = driver.work_directory()
    try:
        if args.workload is not None:
            # One workload, as BENCHMARK.json's driver runs it: --trace 0
            # gives the end-to-end metrics, --trace 1 the per-layer ones.
            entry = run_workload(
                args.workload,
                args.seed,
                seconds,
                args.scale,
                workdir,
                traced=bool(args.trace),
            )
            _print_workload(args.workload, entry, bool(args.trace))
            print(_contract_line(entry, args.trace))
            return 1 if entry["failed"] else 0
        run: Dict[str, Any] = {"issue": 11, "seed": args.seed, "scale": args.scale}
        run["seconds"] = seconds
        run.update(record.environment(driver.REPO_ROOT, workdir))
        run["workloads"] = {}
        for name in WORKLOADS:
            entry = run_workload(name, args.seed, seconds, args.scale, workdir, traced=True)
            _print_workload(name, entry, traced=True)
            run["workloads"][name] = entry
        failed = sum(entry["failed"] for entry in run["workloads"].values())
        if args.out:
            record.append_run(args.out, run)
        print(json.dumps({"workloads": len(run["workloads"]), "failed": failed, "claim": None}))
        return 1 if failed else 0
    finally:
        driver.discard(workdir)


def command_compare(args: argparse.Namespace) -> int:
    lines, clean = record.compare(record.load(args.base), record.load(args.new))
    print("\n".join(lines))
    return 0 if clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload or all six")
    run.add_argument("--workload", choices=list(WORKLOADS), help="default: all six")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, help="measured window (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--scale", choices=list(SCALES), default="bench")
    run.add_argument("--out", help="append this run's record to a JSON file")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser("compare", help="apply the bounds to two record files")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=command_compare)
    args = parser.parse_args(argv)
    return args.handler(args)
