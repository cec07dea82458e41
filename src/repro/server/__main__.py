"""``maybms-server``: serve one MayBMS store to concurrent clients.

Examples::

    maybms-server --path /data/mydb --port 8642
    python -m repro.server --path /tmp/db --port 0   # ephemeral port

The server prints one status line (``listening on <host>:<port> ...``)
once it accepts connections, so wrappers can scrape the bound port when
using ``--port 0``.  Stop it with Ctrl-C (orderly: open transactions
roll back, a final checkpoint is written) -- or ``kill -9`` it and let
crash recovery replay the WAL on the next start.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.db import MayBMS
from repro.errors import ServingError
from repro.server.server import DEFAULT_HOST, MayBMSServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maybms-server",
        description="Serve a MayBMS probabilistic database to concurrent clients.",
    )
    parser.add_argument(
        "--path",
        default=None,
        help="database directory (durable WAL + checkpoints); omit for an "
        "in-memory store",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    parser.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="session RNG seed (default %(default)s)"
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        help="auto-checkpoint after this many commits; 0 disables "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--lock-timeout",
        type=float,
        default=30.0,
        help="seconds a statement waits for a table lock (default %(default)s)",
    )
    # The three limits are validated by MayBMSServer.
    parser.add_argument(
        "--max-connections",
        default=None,
        help="refuse connections beyond this many concurrent clients "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--max-statements",
        default=None,
        help="refuse statements beyond this many in flight across all "
        "clients (default: unlimited)",
    )
    parser.add_argument(
        "--statement-timeout",
        default=None,
        help="abort statements running longer than this many seconds with "
        "a StatementTimeout wire error (default: unlimited)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The store outlives the server: closing it after server.close() (or
    # when a refused limit exits) rolls back what the disconnected
    # sessions left open and writes the final checkpoint.
    with MayBMS(
        seed=args.seed,
        path=args.path,
        checkpoint_every=args.checkpoint_every,
        lock_timeout=args.lock_timeout,
    ) as db:
        try:
            server = MayBMSServer(
                db,
                host=args.host,
                port=args.port,
                max_connections=args.max_connections,
                max_active_statements=args.max_statements,
                statement_timeout=args.statement_timeout,
            )
        except ServingError as exc:
            parser.error(str(exc))
        store = args.path if args.path else "in-memory"
        print(
            f"maybms-server listening on {server.host}:{server.port} (store={store})",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
