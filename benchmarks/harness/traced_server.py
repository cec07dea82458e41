"""Launcher for the traced run: the normal server with spans around the
calls into each layer.

    python benchmarks/harness/traced_server.py --trace-out spans.jsonl \\
        --path <store> --port 0

Everything after ``--trace-out <file>`` goes to ``repro.server``'s own
``main``.  Spans stay in memory; on SIGTERM the server shuts down in order
and the spans are written to the file as JSONL.  No file under ``src/`` is
touched: the wrappers are installed from here (see ``layers.py``).
"""

from __future__ import annotations

import os
import signal
import sys


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, server_args = argv[1], argv[2:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.dirname(os.path.dirname(here)))

    from benchmarks.harness import layers, tracing
    from repro.server import __main__ as server_main

    recorder = tracing.SpanRecorder()
    patches = layers.install(recorder)

    def terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, terminate)
    try:
        return server_main.main(server_args)
    finally:
        patches.restore()
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
