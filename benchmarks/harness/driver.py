"""Set-up, the server subprocess, the closed loop, and the metrics of one run.

One run of one workload: build a fresh durable store in this process, start
``python -m repro.server`` on it as a subprocess, drive it through
``repro.client.Client`` from one thread per connection (closed loop: the next
statement goes out when the previous reply is in), check every answer, then
read the server's counters, CPU time and peak memory.  A traced run starts
``traced_server.py`` instead and joins its spans to this side's.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.client import Client
from repro.db import MayBMS
from repro.errors import MayBMSError

from . import layers, stats, tracing
from .workloads.base import Stmt, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
#: Scratch space for stores, server logs and span files; inside the checkout
#: (the benchmark may write nowhere else) and named in ``.gitignore``.
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_work")

START_TIMEOUT_S = 120.0
STATEMENT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class Sample(NamedTuple):
    conn: int  # the client's TCP port in a traced run, else the connection index
    seq: int  # ordinal of the request on its connection
    kind: str
    latency_ns: int
    ok: bool
    commit: bool


# -- the server subprocess ---------------------------------------------------------


class ServerProcess:
    """``python -m repro.server --path <store> --port 0`` (or the traced
    launcher) as a child process."""

    def __init__(self, store: str, env: Dict[str, str], trace_out: Optional[str] = None):
        self.store = store
        self.trace_out = trace_out
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in self._env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self._env.update(env)
        self._log = store + ".server.log"
        self.process: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("", 0)

    def start(self) -> float:
        """Start and wait for the first ``ping``; returns the seconds it took."""
        started = time.perf_counter()
        if self.trace_out is None:
            command = [sys.executable, "-m", "repro.server"]
        else:
            command = [
                sys.executable,
                os.path.join(HERE, "traced_server.py"),
                "--trace-out",
                self.trace_out,
            ]
        command += ["--path", self.store, "--port", "0"]
        with open(self._log, "ab") as log:
            self.process = subprocess.Popen(
                command, env=self._env, stdout=subprocess.PIPE, stderr=log, cwd=REPO_ROOT
            )
        try:
            self.address = self._read_address()
            with self.client() as client:
                client.ping()
        except BaseException:
            self.kill()  # never leave a server behind
            raise
        return time.perf_counter() - started

    def _read_address(self) -> Tuple[str, int]:
        assert self.process is not None and self.process.stdout is not None
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], START_TIMEOUT_S)
        line = stdout.readline().decode("utf-8", "replace") if ready else ""
        if "listening on " not in line:
            with open(self._log, "r", errors="replace") as log:
                tail = log.read()[-2000:]
            raise RuntimeError(f"server did not start: {line!r}\n{tail}")
        host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
        return host, int(port)

    def client(self) -> Client:
        return Client(self.address[0], self.address[1], timeout=STATEMENT_TIMEOUT_S)

    def cpu_seconds(self) -> float:
        """User + system CPU of the server and the children it has waited
        for, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLOCK_TICK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM and wait: the plain server dies at once (the WAL makes
        that safe), the traced launcher shuts down in order and writes
        its spans."""
        self._end(signal.SIGTERM)

    def kill(self) -> None:
        self._end(signal.SIGKILL)

    def _end(self, signum: int) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signum)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
        self.process = None


# -- set-up ---------------------------------------------------------------------------


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


class SetUp(NamedTuple):
    server: ServerProcess
    seconds: float
    store_bytes_per_row: float


def set_up(workload: Workload, workdir: str, traced: bool) -> SetUp:
    """Datagen + load + materialise + checkpoint in this process, then the
    server's cold start on that store until its first ``ping`` answers."""
    started = time.perf_counter()
    workload.generate()
    store = tempfile.mkdtemp(prefix="store-", dir=workdir)
    with MayBMS(path=store, seed=workload.seed) as db:
        workload.load(db)
        db.checkpoint()
        rows = sum(len(db.catalog.entry(name).table) for name in db.tables())
    server = ServerProcess(
        store, workload.server_env, trace_out=store + ".spans.jsonl" if traced else None
    )
    server.start()
    seconds = time.perf_counter() - started
    return SetUp(server, seconds, _tree_bytes(store) / max(1, rows))


# -- the closed loop -------------------------------------------------------------------


class Lane:
    """One connection's side of a run."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.warm = 0  # samples[:warm] ran before the window opened
        self.closed_at = 0.0
        self.errors: List[str] = []


class Run:
    """State of one run; also what a workload's ``finish`` gets to see."""

    def __init__(self, workload: Workload, server: ServerProcess):
        self.workload = workload
        self.server = server
        self.control: Client = server.client()
        self.measured: List[Sample] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.window_s = 0.0

    def crash_and_restart(self) -> Tuple[Client, float]:
        """``kill -9`` the server and start it again on the same store."""
        self.control.close()
        self.server.kill()
        self.server = ServerProcess(self.server.store, self.workload.server_env)
        recovery_s = self.server.start()
        self.control = self.server.client()
        return self.control, recovery_s


def _execute(client: Client, stmt: Stmt, errors: List[str]) -> Tuple[int, bool]:
    """Send one statement; the latency ends when the reply is decoded, the
    answer check runs after that."""
    result = None
    started = time.perf_counter_ns()
    try:
        if stmt.sql is None:
            ok = client.ping()
        else:
            result = client.execute(stmt.sql)
            ok = True
    except (MayBMSError, OSError) as exc:  # ServerError, ProtocolError, timeouts
        ok = False
        errors.append(f"{stmt.kind}: {type(exc).__name__}: {exc}")
    latency = time.perf_counter_ns() - started
    if ok and stmt.check is not None and not stmt.check(result):
        ok = False
        errors.append(f"{stmt.kind}: wrong answer to {stmt.sql}")
    return latency, ok


def _drive(
    run: Run,
    index: int,
    lane: Lane,
    seconds: float,
    gate: threading.Barrier,
    recorder: Optional[tracing.SpanRecorder],
) -> None:
    workload = run.workload
    rounds: Iterator[List[Stmt]] = workload.rounds(index)
    # The client is created on the thread that uses it: the traced run
    # numbers requests per thread.
    with run.server.client() as client:
        state = recorder.state() if recorder is not None else None

        def one(stmt: Stmt) -> None:
            latency, ok = _execute(client, stmt, lane.errors)
            conn, seq = (
                (state.conn, state.seq) if state is not None else (index, len(lane.samples))
            )
            lane.samples.append(Sample(conn, seq, stmt.kind, latency, ok, stmt.commit))

        for _ in range(workload.warmup_rounds):
            for stmt in next(rounds):
                one(stmt)
        lane.warm = len(lane.samples)
        gate.wait()  # everyone is warm; the main thread reads the "before" counters
        gate.wait()  # the window opens
        opened = time.perf_counter()
        # The window stays open for ``seconds``, and past that until the
        # connection has run the rounds its reported percentiles need.
        floor = workload.min_rounds if workload.scale.floors else 0
        done = 0
        while done < floor or time.perf_counter() - opened < seconds:
            for stmt in next(rounds):
                one(stmt)
            done += 1
        lane.closed_at = time.perf_counter()


def measure(run: Run, seconds: float, recorder: Optional[tracing.SpanRecorder]) -> Dict[str, Any]:
    """Warm up, run the measured window, and return the raw observations."""
    workload, server = run.workload, run.server
    gate = threading.Barrier(workload.connections + 1)
    lanes = [Lane() for _ in range(workload.connections)]
    crashed: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            _drive(run, index, lanes[index], seconds, gate, recorder)
        except BaseException as exc:  # surfaces on the main thread below
            crashed.append(exc)
            gate.abort()

    threads = [
        threading.Thread(target=guarded, args=(index,), daemon=True)
        for index in range(workload.connections)
    ]
    for thread in threads:
        thread.start()
    try:
        gate.wait()
        stats_before = run.control.server_stats()
        cpu_before = server.cpu_seconds()
        gate.wait()
    except threading.BrokenBarrierError:
        pass
    opened = time.perf_counter()
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]
    run.window_s = max(lane.closed_at for lane in lanes) - opened
    cpu_after = server.cpu_seconds()
    stats_after = run.control.server_stats()

    for lane in lanes:
        run.attempted += len(lane.samples)
        run.failed += sum(not s.ok for s in lane.samples)
        run.measured.extend(lane.samples[lane.warm :])
        run.errors.extend(lane.errors)
    return {
        "stats_before": stats_before,
        "stats_after": stats_after,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": server.peak_rss_mb(),
    }


# -- metrics ---------------------------------------------------------------------------


def _percentile_ms(latencies_ns: List[int], q: float) -> Optional[float]:
    if not stats.supported(len(latencies_ns), q):
        return None
    return stats.percentile(latencies_ns, q) / 1e6


def end_to_end(run: Run, observed: Dict[str, Any], setup_s: float) -> Dict[str, Optional[float]]:
    """The end-to-end metrics this workload reports, from an untraced run.
    ``None``: too few samples for that percentile, which
    ``Workload.min_rounds`` rules out at every scale but ``smoke``."""
    measured = run.measured
    latencies = [s.latency_ns for s in measured]
    commits = [s.latency_ns for s in measured if s.commit]
    count = len(measured)
    values = {
        "setup_s": setup_s,
        "throughput_stmt_s": count / run.window_s,
        "latency_p50_ms": _percentile_ms(latencies, 50.0),
        "latency_p90_ms": _percentile_ms(latencies, 90.0),
        "server_cpu_ms_per_stmt": observed["cpu_s"] * 1e3 / count,
        "server_peak_rss_mb": observed["peak_rss_mb"],
        "failed_share": run.failed / max(1, run.attempted),
    }
    if "latency_p99_ms" in run.workload.reports:
        values["latency_p99_ms"] = _percentile_ms(latencies, 99.0)
    if "commit_p99_ms" in run.workload.reports:
        values["commit_p99_ms"] = _percentile_ms(commits, 99.0)
    return values


def highest_percentile(run: Run) -> Dict[str, float]:
    """The highest percentile this run's sample count supports."""
    latencies = [s.latency_ns for s in run.measured]
    q = stats.highest_supported(len(latencies))
    return {
        "percentile": q,
        "ms": stats.percentile(latencies, q) / 1e6,
        "samples_beyond": stats.samples_beyond(len(latencies), q),
    }


def classes(run: Run) -> Dict[str, Dict[str, float]]:
    """Sample count and median latency per statement class."""
    by_kind: Dict[str, List[int]] = {}
    for sample in run.measured:
        by_kind.setdefault(sample.kind, []).append(sample.latency_ns)
    return {
        kind: {"count": len(values), "p50_ms": statistics.median(values) / 1e6}
        for kind, values in sorted(by_kind.items())
    }


def counter_metrics(run: Run, observed: Dict[str, Any], setup: SetUp) -> Dict[str, float]:
    """Per-layer counts that need no tracing: deltas of the server's own
    counters over the measured window."""
    before, after = observed["stats_before"], observed["stats_after"]

    def delta(group: str, name: str) -> float:
        return float(after[group].get(name, 0) or 0) - float(before[group].get(name, 0) or 0)

    commits = delta("durability", "commit_count")
    fsyncs = delta("durability", "fsync_count")
    checkpoints = delta("durability", "checkpoints_total")
    last = after["durability"] if checkpoints else {}
    return {
        "durability.commits": commits,
        "durability.fsyncs": fsyncs,
        "durability.commits_per_fsync": commits / fsyncs if fsyncs else 0.0,
        "durability.checkpoints": checkpoints,
        "durability.checkpoint_ms": float(last.get("checkpoint_ms", 0.0)),
        "durability.checkpoint_bytes": float(last.get("checkpoint_bytes", 0)),
        "durability.segments_reused": float(last.get("segments_reused", 0)),
        "durability.store_bytes_per_row": setup.store_bytes_per_row,
        "durability.recovery_ms": float(before["durability"].get("recovery_ms", 0.0)),
        "storage.snapshot_captures": delta("snapshots", "snapshot_captures"),
        "storage.versions_retained": float(
            after["snapshots"].get("snapshot_versions_retained", 0)
        ),
        "serving.rejects": delta("serving", "connections_rejected")
        + delta("serving", "statements_rejected"),
    }


# -- one workload, untraced or traced --------------------------------------------------


class Phase(NamedTuple):
    run: Run
    observed: Dict[str, Any]
    setup: SetUp
    extra: Dict[str, float]  # the workload's own metrics (untraced phase)
    layer_times: Dict[str, float]  # the span breakdown (traced phase)


def run_phase(workload: Workload, seconds: float, workdir: str, traced: bool) -> Phase:
    """Set up once and run the workload, untraced or traced.  The untraced
    phase ends with the workload's ``finish`` (late checks, crash
    recovery); the traced phase ends by collecting the server's spans."""
    setup = set_up(workload, workdir, traced)
    run = Run(workload, setup.server)
    recorder = tracing.SpanRecorder() if traced else None
    patches = layers.install(recorder, layers.CLIENT_TARGETS) if recorder else None
    try:
        try:
            observed = measure(run, seconds, recorder)
        finally:
            if patches is not None:
                patches.restore()
        if recorder is None:
            return Phase(run, observed, setup, workload.finish(run), {})
        run.control.close()
        run.server.stop()  # the launcher writes its spans on the way out
        measured = {(s.conn, s.seq): s.latency_ns for s in run.measured}
        layer_times = layers.breakdown(
            recorder.spans(), tracing.load_spans(setup.server.trace_out), measured
        )
        return Phase(run, observed, setup, {}, layer_times)
    finally:
        run.control.close()
        run.server.stop()


def work_directory() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)


def discard(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run is using it
