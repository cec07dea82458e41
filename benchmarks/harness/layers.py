"""Which calls the traced run times, and how spans become per-layer metrics.

Layers are this repository's modules.  ``SERVER_TARGETS`` lists the public
entry point(s) of each one with the span name its calls are recorded under;
``SPAN_METRIC`` maps a span name to the per-layer metric that receives the
span's *self* time.  Hooks attach counts (rows out, clauses, strategies,
variables minted, frame bytes) to the span they were measured in.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterable, Sequence, Tuple

from repro.engine.durability import encode_frame

from .tracing import HOOK_SPAN, Patches, Span, SpanRecorder, patch, self_times

# -- hooks ----------------------------------------------------------------------


def _peer_port(state, args) -> None:
    """Server side of the (conn, seq) join: a request starts when the
    handler thread enters ``recv_message``; the connection is named by the
    client's TCP port."""
    if not state.conn:
        state.conn = args[0].getpeername()[1]
    state.seq += 1


def _own_port(state, args) -> int:
    """Client side of the join: a request starts at ``send_message``.  The
    frame is sized here, ahead of the send, so that the work does not run
    while the server is already busy with the request."""
    if not state.conn:
        state.conn = args[0].getsockname()[1]
    state.seq += 1
    return _frame_bytes(args[1])


def _frame_bytes(message) -> int:
    return 4 + len(json.dumps(message, separators=(",", ":")).encode("utf-8"))


def _request_bytes(result, args, token):
    return {"request_bytes": token}


def _reply_bytes(result, args, token):
    return None if result is None else {"reply_bytes": _frame_bytes(result)}


def _rows_out(result, args, token):
    return {"rows_out": len(result)}


def _registry_frontier(registry_position: int):
    def before(state, args):
        return args[registry_position].mutation_stamp()[2]

    def after(result, args, token):
        return {"minted": args[registry_position].mutation_stamp()[2] - token}

    return before, after


def _lineage_shape(result, args, token):
    return {"groups": len(result), "clauses": sum(len(lineage) for lineage in result)}


def _decisions(results) -> Dict[str, float]:
    counters: Dict[str, float] = defaultdict(float)
    for result in results:
        for decision in result.decisions:
            counters["components"] += 1
            counters["clauses"] += decision.clause_count
            counters["strategy." + decision.strategy] += 1
    return dict(counters)


def _group_decisions(result, args, token):
    return _decisions(result)


def _single_decision(result, args, token):
    return _decisions([result])


def _samples(result, args, token):
    return {"samples": result.total_samples}


def _wal_bytes(result, args, token):
    return {"wal_bytes": sum(len(encode_frame(record)) for record in args[1])}


# -- targets ---------------------------------------------------------------------

#: (module, qualified name, span name, before hook, after hook).
#: ``ConfidenceDispatcher.group_probabilities`` stands in for ``probability``
#: (which it calls once per group): a span per group would be 10^4 spans per
#: statement on ``conf_safe``.
SERVER_TARGETS: Sequence[Tuple[str, str, str, Any, Any]] = (
    ("repro.server.protocol", "recv_message", "protocol.recv", _peer_port, None),
    ("repro.server.protocol", "encode_result", "protocol.encode_result", None, None),
    ("repro.server.protocol", "send_message", "protocol.send", None, None),
    ("repro.server.server", "MayBMSServer._respond", "server.handle", None, None),
    ("repro.db", "_SessionBase.execute", "db.dispatch", None, None),
    ("repro.engine.transactions", "LockManager.acquire_shared", "db.lock_wait", None, None),
    ("repro.engine.transactions", "LockManager.acquire_exclusive", "db.lock_wait", None, None),
    ("repro.engine.storage", "SnapshotManager.capture", "storage.capture", None, None),
    ("repro.sql.lexer", "tokenize", "lexer.tokenize", None, None),
    ("repro.sql.parser", "parse_statement", "parser.parse", None, None),
    ("repro.sql.parser", "parse_statements", "parser.parse", None, None),
    ("repro.sql.analyzer", "Analyzer.analyze_statement", "analyzer.analyze", None, None),
    ("repro.sql.analyzer", "referenced_tables", "analyzer.analyze", None, None),
    ("repro.sql.analyzer", "creates_variables", "analyzer.analyze", None, None),
    ("repro.sql.executor", "Executor.execute", "executor", None, None),
    ("repro.engine.planner", "run", "planner.run", None, _rows_out),
    ("repro.core.translate", "u_select", "translate", None, None),
    ("repro.core.translate", "u_project", "translate", None, None),
    ("repro.core.translate", "u_join", "translate", None, None),
    ("repro.core.translate", "u_union", "translate", None, None),
    ("repro.core.translate", "u_rename", "translate", None, None),
    ("repro.core.repair_key", "repair_key", "repair_key") + _registry_frontier(2),
    ("repro.core.pick_tuples", "pick_tuples", "pick_tuples") + _registry_frontier(1),
    ("repro.core.aggregates", "conf", "aggregates.conf", None, None),
    ("repro.core.aggregates", "aconf", "aggregates.aconf", None, None),
    ("repro.core.aggregates", "tconf", "aggregates.tconf", None, None),
    ("repro.core.aggregates", "esum", "aggregates.esum", None, None),
    ("repro.core.aggregates", "ecount", "aggregates.ecount", None, None),
    ("repro.core.lineage", "group_lineages", "lineage.group", None, _lineage_shape),
    (
        "repro.core.confidence.dispatch",
        "ConfidenceDispatcher.group_probabilities",
        "confidence.dispatch",
        None,
        _group_decisions,
    ),
    (
        "repro.core.confidence.dispatch",
        "ConfidenceDispatcher.approximate",
        "confidence.dispatch",
        None,
        _single_decision,
    ),
    ("repro.core.confidence.exact", "ExactConfidenceEngine.probability", "confidence.exact", None, None),
    ("repro.core.confidence.dklr", "approximate_confidence", "confidence.dklr", None, _samples),
    ("repro.engine.transactions", "WriteAheadLog.append_committed", "transactions.wal_append", None, None),
    ("repro.engine.transactions", "WriteAheadLog.flush", "transactions.wal_append", None, None),
    ("repro.engine.durability", "DurabilityManager.append", "durability.fsync_wait", None, _wal_bytes),
    ("repro.engine.durability", "DurabilityManager.prepare_checkpoint", "durability.checkpoint", None, None),
    ("repro.engine.durability", "DurabilityManager.commit_checkpoint", "durability.checkpoint", None, None),
)

#: The harness process wraps only the two wire calls ``repro.client`` makes.
#: Frame sizes are taken here, by encoding the message a second time inside
#: a hook span, so the server's spans carry no such cost.
CLIENT_TARGETS: Sequence[Tuple[str, str, str, Any, Any]] = (
    ("repro.server.protocol", "send_message", "client.send", _own_port, _request_bytes),
    ("repro.server.protocol", "recv_message", "client.recv", None, _reply_bytes),
)


def install(recorder: SpanRecorder, targets=SERVER_TARGETS) -> Patches:
    """Patch every target with a span wrapper; ``.restore()`` undoes it."""
    patches = Patches()
    for module_name, qualname, span_name, before, after in targets:
        patch(
            patches,
            module_name,
            qualname,
            lambda fn, n=span_name, b=before, a=after: recorder.wrap(n, fn, b, a),
        )
    return patches


# -- spans -> per-layer metrics -----------------------------------------------------

#: span name -> metric that receives its self time (ms per statement).
SPAN_METRIC = {
    "protocol.recv": "protocol.recv_ms",
    "protocol.encode_result": "protocol.encode_result_ms",
    "protocol.send": "protocol.send_ms",
    "server.handle": "server.handle_self_ms",
    "db.dispatch": "db.dispatch_self_ms",
    "db.lock_wait": "db.lock_wait_ms",
    "storage.capture": "storage.capture_ms",
    "lexer.tokenize": "lexer.tokenize_ms",
    "parser.parse": "parser.parse_ms",
    "analyzer.analyze": "analyzer.analyze_ms",
    "executor": "executor.self_ms",
    "planner.run": "planner.run_ms",
    "translate": "translate.self_ms",
    "repair_key": "repair_key.ms",
    "pick_tuples": "pick_tuples.ms",
    "aggregates.conf": "aggregates.self_ms",
    "aggregates.aconf": "aggregates.self_ms",
    "aggregates.tconf": "aggregates.self_ms",
    "aggregates.esum": "aggregates.self_ms",
    "aggregates.ecount": "aggregates.self_ms",
    "lineage.group": "lineage.group_ms",
    "confidence.dispatch": "confidence.dispatch_ms",
    "confidence.exact": "confidence.exact_ms",
    "confidence.dklr": "confidence.dklr_ms",
    "transactions.wal_append": "transactions.wal_append_ms",
    "durability.fsync_wait": "durability.fsync_wait_ms",
    "durability.checkpoint": "durability.checkpoint_stall_ms",
    HOOK_SPAN: "trace.hook_ms",
}

#: Every time metric of the breakdown; with ``trace.unattributed_ms`` they
#: sum to the traced end-to-end latency.
TIME_METRICS = ("client.self_ms",) + tuple(dict.fromkeys(SPAN_METRIC.values()))

#: dispatcher strategy name -> suffix of its ``confidence.strategy.*`` count.
STRATEGIES = {
    "closed-form": "closed_form",
    "sprout": "sprout",
    "exact": "exact",
    "monte-carlo": "dklr",
}


def breakdown(
    client_spans: Iterable[Span],
    server_spans: Iterable[Span],
    measured: Dict[Tuple[int, int], int],
) -> Dict[str, float]:
    """Per-layer metrics of the measured statements.

    ``measured`` maps ``(conn, seq)`` to the client-observed latency (ns) of
    every measured request.  Server spans are joined to it by their own
    ``(conn, seq)``.  Both processes read the same monotonic clock, which
    lets the time they spend waiting for each other be cut off: the server
    is busy with a request from the moment the client finished sending it
    (its ``recv`` span began earlier, idle) until the reply is sent -- or
    until the client has decoded the reply, if ``sendall`` returns later
    than that.  The client's self time is its latency outside that busy
    interval; what no server span covers inside it is unattributed.
    """
    statements = len(measured)
    per_stmt = 1e-6 / max(1, statements)
    times: Dict[str, float] = defaultdict(float)
    counters: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    sent: Dict[Tuple[int, int], int] = {}
    received: Dict[Tuple[int, int], int] = {}
    client_hooks = 0.0
    for span in client_spans:
        key = (span.conn, span.seq)
        if key not in measured:
            continue
        if span.name == "client.send":
            sent[key] = span.end
        elif span.name == "client.recv":
            received[key] = span.end
        elif span.name == HOOK_SPAN:
            client_hooks += span.duration
        for name, value in (span.counters or {}).items():
            counters[name] += value

    server = [s for s in server_spans if (s.conn, s.seq) in measured]
    busy_from: Dict[Tuple[int, int], int] = {}
    busy_until: Dict[Tuple[int, int], int] = {}
    for span in server:
        key = (span.conn, span.seq)
        if span.name == "protocol.recv":
            busy_from[key] = max(span.start, min(sent.get(key, span.start), span.end))
        elif span.name == "protocol.send":
            busy_until[key] = min(span.end, received.get(key, span.end))

    own = self_times(server)
    server_total = 0.0
    for span in server:
        key = (span.conn, span.seq)
        self_ns = own[span.id]
        if span.name == "protocol.recv":
            self_ns = min(self_ns, span.end - busy_from[key])
        elif span.name == "protocol.send" :
            self_ns = min(self_ns, max(0, busy_until[key] - span.start))
        times[SPAN_METRIC[span.name]] += self_ns
        server_total += self_ns
        calls[span.name] += 1
        for name, value in (span.counters or {}).items():
            counters[span.name + "." + name] += value

    latency_total = float(sum(measured.values()))
    busy = float(
        sum(max(0, until - busy_from[key]) for key, until in busy_until.items() if key in busy_from)
    )
    client_self = latency_total - busy - client_hooks
    times[SPAN_METRIC[HOOK_SPAN]] += client_hooks
    unattributed = busy - server_total

    metrics: Dict[str, float] = {name: 0.0 for name in TIME_METRICS}
    metrics["client.self_ms"] = client_self * per_stmt
    for name, value in times.items():
        metrics[name] = value * per_stmt
    metrics["trace.unattributed_ms"] = unattributed * per_stmt
    metrics["trace.latency_ms"] = latency_total * per_stmt

    def per_statement(counter: str) -> float:
        return counters.get(counter, 0.0) / max(1, statements)

    appends = calls["durability.fsync_wait"]
    conf_family = calls["aggregates.conf"] + calls["aggregates.aconf"]
    clauses = counters.get("confidence.dispatch.clauses", 0.0)
    confidence_ns = (
        times["confidence.dispatch_ms"] + times["confidence.exact_ms"] + times["confidence.dklr_ms"]
    )
    minted = counters.get("repair_key.minted", 0.0) + counters.get("pick_tuples.minted", 0.0)
    metrics.update(
        {
            "protocol.request_bytes_per_stmt": per_statement("request_bytes"),
            "protocol.reply_bytes_per_stmt": per_statement("reply_bytes"),
            "planner.runs_per_stmt": calls["planner.run"] / max(1, statements),
            "planner.rows_out_per_stmt": per_statement("planner.run.rows_out"),
            "variables.registered": minted,
            "variables.minted_per_stmt": minted / max(1, statements),
            "lineage.groups_per_stmt": per_statement("lineage.group.groups"),
            "lineage.clauses_per_stmt": per_statement("lineage.group.clauses"),
            # Share of conf()/aconf() calls that found their grouped lineage cached.
            "lineage.cache_hit_ratio": (
                1.0 - calls["lineage.group"] / conf_family if conf_family else 0.0
            ),
            "confidence.components_per_stmt": per_statement("confidence.dispatch.components"),
            "confidence.samples_per_stmt": per_statement("confidence.dklr.samples"),
            "confidence.us_per_clause": confidence_ns * 1e-3 / clauses if clauses else 0.0,
            "durability.wal_bytes_per_commit": (
                counters.get("durability.fsync_wait.wal_bytes", 0.0) / appends if appends else 0.0
            ),
        }
    )
    for strategy, suffix in STRATEGIES.items():
        metrics["confidence.strategy." + suffix] = counters.get(
            "confidence.dispatch.strategy." + strategy, 0.0
        )
    return metrics
