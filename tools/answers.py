"""Replay the benchmark's statement streams in-process and fingerprint
every answer.

Each workload of ``benchmarks/harness/workloads`` is generated and loaded
at ``smoke`` scale for a few fixed seeds, and the first rounds of each of
its connections run against an in-memory store, one connection after the
other.  The first ``conf()`` read of each statement class of a connection
runs three more times: as a seeded ``aconf()`` and under the forced
``exact`` and ``monte-carlo`` strategies (every read would cost minutes:
Monte Carlo is quadratic in the clause count).  The harness is imported,
never modified.

Usage (from the repository root)::

    python tools/answers.py --against HEAD~1 # diff every answer against a ref
    python tools/answers.py --wire           # diff in-process answers against the wire's
    python tools/answers.py --write tests/golden/answers.json

``--against`` extracts the ref with ``git archive`` into a temporary
directory, replays the same streams on both trees, and reports every
answer whose ``repr`` differs.  ``--write`` stores the per-workload
digests that ``tests/tools/test_answers.py`` checks; they round floats
to 12 significant digits, so that NumPy and platform differences in the
last bits do not change them, while ``--against`` compares exact reprs.

``--wire`` checks the wire instead of a ref: each workload's plain
statements (no re-runs) go both to an in-process store and, through
:class:`~repro.server.MayBMSServer` and :class:`~repro.client.Client`, to
an identically seeded and loaded one.  Kind, column names, and rows must
agree by ``repr``; errors by type name and message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The replayed streams: seeds, and rounds per connection.
SEEDS = (1, 2)
ROUNDS = 2
#: The ``aconf()`` a ``conf()`` read is re-run as.
ACONF = "aconf(0.2, 0.1)"
#: The strategies a ``conf()`` read is re-run under, and the (ε, δ) of the
#: forced Monte Carlo (loose: the replay pins a seeded stream, not an
#: accuracy).
FORCED = ("exact", "monte-carlo")
FORCED_EPSILON = FORCED_DELTA = 0.3

_CONF = re.compile(r"(?<![a-z_])conf\(\)")

#: One answer: (workload/seed, statement label, value).
Answer = Tuple[str, str, Any]


def _use_tree(tree: str) -> None:
    """Import ``repro`` and the harness from the source tree at ``tree``."""
    for path in (os.path.join(tree, "benchmarks"), os.path.join(tree, "src")):
        sys.path.insert(0, path)


def _value(result) -> Any:
    """What a statement answered, as plain data."""
    from repro.core.urelation import URelation

    output = result.output
    if output is None:
        return ("count", result.row_count)
    relation = output.relation if isinstance(output, URelation) else output
    return (
        "urelation" if isinstance(output, URelation) else "relation",
        tuple(column.name for column in relation.schema),
        tuple(relation.rows),
    )


def _run(session, sql: str) -> Any:
    try:
        return _value(session.execute(sql))
    except Exception as error:  # noqa: BLE001 - an error is an answer too
        return ("error", type(error).__name__, str(error))


def _statements(workload) -> Iterator[Tuple[int, str, bool]]:
    """(connection, SQL, re-run it?) of the replayed stream, connection by
    connection."""
    for conn in range(workload.connections):
        rounds = workload.rounds(conn)
        classes = set()
        for _ in range(ROUNDS):
            for stmt in next(rounds):
                if stmt.sql is None:
                    continue
                rerun = _CONF.search(stmt.sql) is not None and stmt.kind not in classes
                if rerun:
                    classes.add(stmt.kind)
                yield conn, stmt.sql, rerun


def replay(name: str, seed: int) -> Iterator[Answer]:
    """Every answer of one workload's stream at one seed."""
    from harness.datasets import SCALES
    from harness.workloads import WORKLOADS
    from repro.core.confidence.dispatch import DispatchPolicy
    from repro.db import MayBMS

    workload = WORKLOADS[name](seed, SCALES["smoke"])
    workload.generate()
    key = f"{name}/{seed}"
    with MayBMS(seed=seed) as db:
        workload.load(db)
        sessions = [db] + [db.session() for _ in range(1, workload.connections)]
        for number, (conn, sql, rerun) in enumerate(_statements(workload)):
            session = sessions[conn]
            label = f"{number}@{conn}: {sql}"
            yield key, label, _run(session, sql)
            if not rerun:
                continue
            yield key, label + " [aconf]", _run(session, _CONF.sub(ACONF, sql))
            dispatcher = session.executor.dispatcher
            policy = dispatcher.policy
            for strategy in FORCED:
                dispatcher.set_policy(
                    DispatchPolicy(strategy, None, FORCED_EPSILON, FORCED_DELTA)
                )
                try:
                    yield key, f"{label} [{strategy}]", _run(session, sql)
                finally:
                    dispatcher.set_policy(policy)


def answers() -> Iterator[Answer]:
    from harness.workloads import WORKLOADS

    for name in WORKLOADS:
        for seed in SEEDS:
            yield from replay(name, seed)


def _fetch(client, sql: str) -> Any:
    """What a statement answered over the wire, shaped like :func:`_value`."""
    from repro.errors import ServerError

    try:
        result = client.execute(sql)
    except ServerError as error:
        return ("error", error.error_type, error.server_message)
    if result.kind == "none":
        return ("count", result.row_count)
    return (result.kind, tuple(result.columns), tuple(result.rows))


def served(name: str, seed: int) -> Iterator[Tuple[str, str, Any, Any]]:
    """(workload/seed, statement label, in-process answer, wire answer) of
    every plain statement of one workload's stream at one seed."""
    from harness.datasets import SCALES
    from harness.workloads import WORKLOADS
    from repro.client import Client
    from repro.db import MayBMS
    from repro.server import MayBMSServer

    workload = WORKLOADS[name](seed, SCALES["smoke"])
    workload.generate()
    key = f"{name}/{seed}"
    with MayBMS(seed=seed) as local, MayBMS(seed=seed) as remote:
        workload.load(local)
        workload.load(remote)
        # Both sides run every connection in a fresh session, as the
        # server opens one per client.
        sessions = [local.session() for _ in range(workload.connections)]
        with MayBMSServer(db=remote) as server:
            server.start()
            clients = [Client(server.host, server.port) for _ in sessions]
            try:
                for number, (conn, sql, _) in enumerate(_statements(workload)):
                    yield (
                        key,
                        f"{number}@{conn}: {sql}",
                        _run(sessions[conn], sql),
                        _fetch(clients[conn], sql),
                    )
            finally:
                for client in clients:
                    client.close()


def wire(seeds=SEEDS) -> int:
    """Print every statement whose wire answer differs from its
    in-process one; the number that differ."""
    from harness.workloads import WORKLOADS

    count = differ = 0
    for name in WORKLOADS:
        for seed in seeds:
            for key, label, ours, theirs in served(name, seed):
                count += 1
                if repr(ours) != repr(theirs):
                    differ += 1
                    print(f"{key} {label}\n  in-process: {ours!r}\n  wire: {theirs!r}")
    print(f"{count} answers, {differ} differ over the wire")
    return differ


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, tuple):
        return tuple(_rounded(v) for v in value)
    return value


def digests(stream) -> Dict[str, str]:
    """Per workload/seed, the SHA-256 of its answers (floats rounded)."""
    hashes: Dict[str, Any] = {}
    for key, label, value in stream:
        hashes.setdefault(key, hashlib.sha256()).update(
            repr((label, _rounded(value))).encode()
        )
    return {key: h.hexdigest() for key, h in hashes.items()}


def _dump(path: str) -> None:
    with open(path, "w") as out:
        json.dump([[key, label, repr(value)] for key, label, value in answers()], out)


def _replayed(tree: str, scratch: str) -> List[List[str]]:
    """The answers of the tree at ``tree``, replayed in a subprocess."""
    out = os.path.join(scratch, f"answers-{len(os.listdir(scratch))}.json")
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--tree", tree, "--dump", out],
        check=True,
    )
    with open(out) as stream:
        return json.load(stream)


def against(ref: str) -> int:
    """Diff every answer of this tree against the tree at ``ref``."""
    with tempfile.TemporaryDirectory(prefix="answers-") as scratch:
        tree = os.path.join(scratch, "tree")
        archive = os.path.join(scratch, "tree.tar")
        with open(archive, "wb") as out:
            subprocess.run(["git", "-C", ROOT, "archive", ref], stdout=out, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tree)
        theirs = _replayed(tree, scratch)
        ours = _replayed(ROOT, scratch)
    differ = 0
    if [row[:2] for row in theirs] != [row[:2] for row in ours]:
        print("the statement streams differ")
        return 1
    for (key, label, their), (_, _, our) in zip(theirs, ours):
        if their != our:
            differ += 1
            print(f"{key} {label}\n  {ref}: {their}\n  here: {our}")
    print(f"{len(ours)} answers, {differ} differ from {ref}")
    return 1 if differ else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", help="diff every answer against a git ref")
    parser.add_argument(
        "--wire", action="store_true", help="diff in-process answers against the wire's"
    )
    parser.add_argument("--write", metavar="JSON", help="write the digests to a file")
    parser.add_argument("--tree", default=ROOT, help=argparse.SUPPRESS)
    parser.add_argument("--dump", metavar="JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    if not (args.wire or args.write or args.dump):
        parser.error("give --against REF, --wire or --write JSON")
    _use_tree(args.tree)
    if args.wire:
        return 1 if wire() else 0
    if args.dump:
        _dump(args.dump)
        return 0
    with open(args.write, "w") as out:
        json.dump(digests(answers()), out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
