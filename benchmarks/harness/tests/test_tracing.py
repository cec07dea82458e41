"""Span self-time arithmetic and the patching machinery."""

import threading

import repro.sql.lexer as lexer
import repro.sql.parser as parser
from repro.core.confidence.dispatch import ConfidenceDispatcher

from .. import layers, tracing
from ..tracing import Span


def span(id, name, start, end, parent=-1):
    return Span(id, name, start, end, parent, 1, 1, None)


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(0, "root", 0, 100),
        span(1, "child", 10, 40, parent=0),
        span(2, "grandchild", 15, 25, parent=1),
        span(3, "child", 50, 70, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 50, 1: 20, 2: 10, 3: 20}
    assert sum(own.values()) == 100  # self times partition the root


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span(0, "root", 0, 100),
        span(1, "a", 10, 60, parent=0),
        span(2, "b", 40, 80, parent=0),  # overlaps a (another thread's span)
        span(3, "c", 90, 130, parent=0),  # runs past its parent
    ]
    assert tracing.self_times(spans)[0] == 100 - (80 - 10) - (100 - 90)


def test_recorder_nests_spans_and_times_hooks_separately():
    recorder = tracing.SpanRecorder()
    inner = recorder.wrap("inner", lambda x: x + 1, after=lambda r, a, t: {"result": r})
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {s.name: s for s in recorder.spans()}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].counters == {"result": 2}
    assert by_name[tracing.HOOK_SPAN].parent == by_name["outer"].id
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end
    assert by_name[tracing.HOOK_SPAN].end <= by_name["outer"].end


def test_recorder_keeps_threads_apart():
    recorder = tracing.SpanRecorder()
    work = recorder.wrap("work", lambda: None)
    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    spans = recorder.spans()
    assert len(spans) == 4 and all(s.parent == -1 for s in spans)
    assert sorted(s.id for s in spans) == [0, 1, 2, 3]


def test_patch_reaches_from_imports_and_restore_puts_originals_back():
    original = lexer.tokenize
    assert parser.tokenize is original  # parser did ``from lexer import tokenize``
    recorder = tracing.SpanRecorder()
    patches = tracing.Patches()
    tracing.patch(
        patches, "repro.sql.lexer", "tokenize", lambda fn: recorder.wrap("lexer.tokenize", fn)
    )
    try:
        assert lexer.tokenize is not original
        assert parser.tokenize is lexer.tokenize
        parser.parse_statement("select 1")
        assert [s.name for s in recorder.spans()] == ["lexer.tokenize"]
    finally:
        patches.restore()
    assert lexer.tokenize is original and parser.tokenize is original
    assert len(patches) == 0


def test_install_wraps_every_target_and_restores_methods():
    before = ConfidenceDispatcher.__dict__["group_probabilities"]
    recorder = tracing.SpanRecorder()
    patches = layers.install(recorder)
    try:
        assert ConfidenceDispatcher.__dict__["group_probabilities"] is not before
        assert len(patches) >= len(layers.SERVER_TARGETS)
    finally:
        patches.restore()
    assert ConfidenceDispatcher.__dict__["group_probabilities"] is before
    assert {target[2] for target in layers.SERVER_TARGETS} <= set(layers.SPAN_METRIC)


def test_breakdown_sums_to_the_client_latency():
    # One request: the client sends for 10, the server is busy 10..90
    # (recv had been idle since -50), the reply is decoded by 100.
    key = (7, 1)
    client = [
        Span(0, "client.send", 0, 10, -1, *key, {"request_bytes": 40}),
        Span(1, "client.recv", 10, 100, -1, *key, {"reply_bytes": 400}),
    ]
    server = [
        Span(0, "protocol.recv", -50, 20, -1, *key, None),
        Span(1, "server.handle", 22, 80, -1, *key, None),
        Span(2, "db.dispatch", 25, 75, 1, *key, None),
        Span(3, "protocol.send", 82, 90, -1, *key, None),
    ]
    metrics = layers.breakdown(client, server, {key: 105})
    ms = 1e-6
    assert metrics["protocol.recv_ms"] == 10 * ms  # from "sent", not from -50
    assert metrics["server.handle_self_ms"] == 8 * ms
    assert metrics["db.dispatch_self_ms"] == 50 * ms
    assert metrics["client.self_ms"] == (105 - 80) * ms
    assert metrics["trace.unattributed_ms"] == 4 * ms  # the two gaps
    total = sum(metrics[name] for name in layers.TIME_METRICS) + metrics["trace.unattributed_ms"]
    assert abs(total - metrics["trace.latency_ms"]) < 1e-12
    assert metrics["protocol.reply_bytes_per_stmt"] == 400
