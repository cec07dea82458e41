"""The run record (what was measured, where, on what) and ``compare``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import stats
from .metrics import BY_NAME, END_TO_END

SCHEMA = 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount that holds ``path`` (fsync cost is a
    property of it, so every record states it)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (path + "/").startswith(prefix) and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(root: str, store_dir: str) -> Dict[str, Any]:
    """Everything about the host and configuration a number depends on.
    Numbers are only ever compared within one host."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    repro_env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}
    return {
        "git_sha": _git_sha(root),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "load_average_at_start": list(os.getloadavg()),
            "platform": platform.platform(),
        },
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "store_filesystem": filesystem_of(store_dir),
        "repro_env": repro_env,
        "parallel_workers": int(repro_env.get("REPRO_PARALLEL_WORKERS", "0") or 0),
    }


# -- files ---------------------------------------------------------------------------


def append_run(path: str, run: Dict[str, Any]) -> None:
    """Append one run to a record file (created on first use); repeated and
    interleaved invocations build up the runs ``compare`` needs."""
    record = load(path) if os.path.exists(path) else {"schema": SCHEMA, "runs": []}
    record.pop("claim", None)
    record["runs"].append(run)
    record["claim"] = None  # this harness measures; it claims nothing
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


def load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("schema") != SCHEMA or not isinstance(record.get("runs"), list):
        raise ValueError(f"{path}: not a schema-{SCHEMA} harness record")
    return record


# -- compare -------------------------------------------------------------------------


def _values(record: Dict[str, Any], workload: str, metric: str) -> List[float]:
    out = []
    for run in record["runs"]:
        entry = run["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
        if entry is not None and entry["value"] is not None:
            out.append(float(entry["value"]))
    return out


def verdict(metric: str, base: List[float], new: List[float]) -> Tuple[str, float, Optional[float]]:
    """``(ok | worse | unresolved, change, spread)`` of one workload x metric.

    ``change`` is how much worse the new median is, as a share of the
    baseline's; ``spread`` the wider of the two sides' (max-min)/median
    over their repeated runs (``None`` with fewer than two runs a side).
    ``failed_share`` has an absolute bound of 0: any rise is worse."""
    spec = BY_NAME[metric]
    a, b = statistics.median(base), statistics.median(new)
    if metric == "failed_share":
        return ("worse" if b > a else "ok"), b - a, None
    change = (b - a) / a if spec.better == "lower" else (a - b) / a
    spread = None
    if len(base) > 1 and len(new) > 1:
        spread = max(stats.range_spread(base), stats.range_spread(new))
    if spread is not None and spread > spec.bound:
        return "unresolved", change, spread
    return ("worse" if change > spec.bound else "ok"), change, spread


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Tuple[List[str], bool]:
    """One line per workload x end-to-end metric; ``True`` if none is worse."""
    lines = [
        f"{'workload':<14} {'metric':<24} {'base':>12} {'new':>12} "
        f"{'change':>8} {'spread':>8} {'bound':>6}  verdict"
    ]
    clean = True
    workloads: List[str] = []
    for record in (base, new):
        for run in record["runs"]:
            workloads += [w for w in run["workloads"] if w not in workloads]
    for workload in workloads:
        for spec in END_TO_END:
            a, b = _values(base, workload, spec.name), _values(new, workload, spec.name)
            if not a or not b:
                continue
            word, change, spread = verdict(spec.name, a, b)
            clean = clean and word != "worse"
            lines.append(
                f"{workload:<14} {spec.name:<24} {statistics.median(a):>12.4f} "
                f"{statistics.median(b):>12.4f} {change:>+8.1%} "
                f"{'n/a' if spread is None else format(spread, '.1%'):>8} "
                f"{spec.bound:>6.2f}  {word}"
            )
    return lines, clean
