"""The metric catalogue: names, units, direction, regression bounds.

``END_TO_END`` are what a user of the node sees; every workload reports the
first :data:`UNIVERSAL` of them, and ``BENCHMARK.json`` declares exactly
those as ``end_to_end`` (its contract wants every end-to-end metric from
every workload, never 0).  The rest are reported only by the workloads that
define them, so ``BENCHMARK.json`` lists them among ``per_layer``; this
harness's own ``compare`` applies their bounds all the same.

Bounds are set from what this class of host can resolve, not from wishes:
its CPU speed wanders by +-5 % over minutes (README, "How steady"), so the
timings of identical runs spread by 5-9 % between quartiles, and a bound is
kept at three times the spread seen over ten seeds -- the contract's cap of
0.25 everywhere (peak memory is steady to 1 % on five workloads, but
``conf_hard``'s lands on 142 or 154 MB depending on the seed).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # share of the baseline's median; None: diagnostic


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_stmt_s", "stmt/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    Metric("server_cpu_ms_per_stmt", "ms", "lower", 0.25),
    Metric("server_peak_rss_mb", "MB", "lower", 0.25),
    # -- reported by some workloads only ------------------------------------
    Metric("latency_p99_ms", "ms", "lower", 0.25),  # serving_mixed, point_ops
    Metric("commit_p99_ms", "ms", "lower", 0.25),  # serving_mixed
    Metric("ctrans_overhead_ratio", "ratio", "lower", 0.10),  # ctrans_join
    Metric("recovery_s", "s", "lower", 0.25),  # serving_mixed
    Metric("failed_share", "share", "lower", 0.0),  # any rise is a regression
]
UNIVERSAL = 6

#: Counts the server keeps itself: deltas of ``Client.server_stats()`` over
#: the window, so they need no tracing.
COUNTERS: List[Metric] = [
    Metric("durability.commits", "count", "higher"),
    Metric("durability.fsyncs", "count", "lower"),
    Metric("durability.commits_per_fsync", "ratio", "higher"),
    Metric("durability.checkpoints", "count", "lower"),
    Metric("durability.checkpoint_ms", "ms", "lower"),
    Metric("durability.checkpoint_bytes", "B", "lower"),
    Metric("durability.segments_reused", "count", "higher"),
    Metric("durability.store_bytes_per_row", "B", "lower"),
    Metric("durability.recovery_ms", "ms", "lower"),
    Metric("storage.snapshot_captures", "count", "lower"),
    Metric("storage.versions_retained", "count", "lower"),
    Metric("serving.rejects", "count", "lower"),
]

#: From the traced run: self time per statement of each layer, and the counts
#: taken at the same boundaries.
TRACED: List[Metric] = [
    Metric("client.self_ms", "ms", "lower"),
    Metric("protocol.recv_ms", "ms", "lower"),
    Metric("protocol.encode_result_ms", "ms", "lower"),
    Metric("protocol.send_ms", "ms", "lower"),
    Metric("protocol.request_bytes_per_stmt", "B", "lower"),
    Metric("protocol.reply_bytes_per_stmt", "B", "lower"),
    Metric("server.handle_self_ms", "ms", "lower"),
    Metric("db.dispatch_self_ms", "ms", "lower"),
    Metric("db.lock_wait_ms", "ms", "lower"),
    Metric("storage.capture_ms", "ms", "lower"),
    Metric("lexer.tokenize_ms", "ms", "lower"),
    Metric("parser.parse_ms", "ms", "lower"),
    Metric("analyzer.analyze_ms", "ms", "lower"),
    Metric("executor.self_ms", "ms", "lower"),
    Metric("planner.run_ms", "ms", "lower"),
    Metric("planner.runs_per_stmt", "count", "lower"),
    Metric("planner.rows_out_per_stmt", "count", "lower"),
    Metric("translate.self_ms", "ms", "lower"),
    Metric("repair_key.ms", "ms", "lower"),
    Metric("pick_tuples.ms", "ms", "lower"),
    Metric("variables.minted_per_stmt", "count", "lower"),
    Metric("variables.registered", "count", "lower"),
    Metric("aggregates.self_ms", "ms", "lower"),
    Metric("lineage.group_ms", "ms", "lower"),
    Metric("lineage.groups_per_stmt", "count", "lower"),
    Metric("lineage.clauses_per_stmt", "count", "lower"),
    Metric("lineage.cache_hit_ratio", "ratio", "higher"),
    Metric("confidence.dispatch_ms", "ms", "lower"),
    Metric("confidence.exact_ms", "ms", "lower"),
    Metric("confidence.dklr_ms", "ms", "lower"),
    Metric("confidence.components_per_stmt", "count", "lower"),
    Metric("confidence.strategy.closed_form", "count", "higher"),
    Metric("confidence.strategy.sprout", "count", "higher"),
    Metric("confidence.strategy.exact", "count", "lower"),
    Metric("confidence.strategy.dklr", "count", "lower"),
    Metric("confidence.us_per_clause", "us", "lower"),
    Metric("confidence.samples_per_stmt", "count", "lower"),
    Metric("transactions.wal_append_ms", "ms", "lower"),
    Metric("durability.fsync_wait_ms", "ms", "lower"),
    Metric("durability.wal_bytes_per_commit", "B", "lower"),
    Metric("durability.checkpoint_stall_ms", "ms", "lower"),
    Metric("trace.hook_ms", "ms", "lower"),
    Metric("trace.unattributed_ms", "ms", "lower"),
    Metric("trace.latency_ms", "ms", "lower"),
    Metric("trace.overhead_ratio", "ratio", "higher"),
]

PER_LAYER: List[Metric] = END_TO_END[UNIVERSAL:-1] + COUNTERS + TRACED

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + COUNTERS + TRACED}
