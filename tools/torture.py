"""Crash-torture harness: kill the store mid-flight, reopen, verify.

Each *life* launches a child interpreter running a deterministic
workload against one durable store directory, then ends it one of four
ways chosen by a seeded RNG:

    clean    the child performs its ops and exits 0
    kill     SIGKILL after a random delay -- power loss at an arbitrary
             instant
    fault    a ``crash`` failpoint spec in ``REPRO_FAULTS`` makes the
             child ``os._exit(137)`` at a *chosen* instant deep inside
             the durability stack (mid-fsync, between checkpoint phases,
             before the manifest rename, ...)
    enospc   an injected ENOSPC degrades the store to read-only; the
             child acknowledges the degradation by exiting 3

After every life the parent reopens the store and checks the crash
invariants:

    1. every acknowledged op is recovered (acked writes are durable);
    2. the recovered state is bit-identical to an in-memory shadow
       oracle replaying the same op prefix -- including a ``conf()``
       query over a repair-key repair, so the probabilistic layer is
       compared too, and ``conf()`` over the stored U-relation ``s``
       whose variables the workload's promotion ops made durable;
    3. no ``*.tmp`` debris and no orphan ``seg-*.seg`` files survive
       recovery.

The workload is a pure function of the op index, so the shadow oracle
needs only the recovered op count.  Besides single-row inserts and
checkpoints it stores a repair of ``r`` every ``PROMOTE_EVERY`` ops
(``create table s as ...`` once, then ``insert into s select ...``),
which promotes the repair's variables into the durable registry, and
runs a ``conf()`` read over a repair every ``READ_EVERY`` ops, whose
statement scope leaves a gap in the variable ids; so lives cross
promotion, registry delta checkpoints and id gaps.  Each op is
acknowledged in an fsynced ack file only after its statement returned;
a torn final ack line (killed mid-write) is tolerated.  Every run prints its seed, and a
failing seed replays bit-identically::

    python -m tools.torture --path /tmp/t --iterations 200 --seed 42
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

#: Crash failpoint specs the ``fault`` mode draws from.  ``@N`` offsets
#: are appended from the RNG so the crash lands at varying depths.
CRASH_SITES = [
    "wal.write", "wal.fsync", "wal.rotate",
    "checkpoint.prepared", "checkpoint.fsync",
    "checkpoint.manifest.write", "checkpoint.manifest.rename",
    "segment.write",
]

ENOSPC_SITES = ["segment.write", "checkpoint.manifest.write", "wal.fsync"]

CONF_QUERY = (
    "select g, conf() as p from (repair key k in r weight by w) u "
    "group by g order by g"
)

CHECKPOINT_EVERY_OPS = 17
PROMOTE_EVERY = 13
READ_EVERY = 11

#: The stored repairs, compared through ``conf()`` (variable ids depend on
#: the store's history, probabilities do not).
PROMOTED_QUERY = "select op, k, conf() as p from s group by op, k order by op, k"


def op_statement(index: int) -> str:
    """The ``index``-th workload op -- a pure function, so both the child
    and the shadow oracle derive identical statements."""
    if index % CHECKPOINT_EVERY_OPS == CHECKPOINT_EVERY_OPS - 1:
        return "checkpoint"
    if is_promotion(index):
        # Only the recent rows are stored: promotion registers just the
        # variables they name.
        repair = (
            f"select {index} as op, k, g from (repair key g in r weight by w) u "
            f"where k >= {index - PROMOTE_EVERY * 2}"
        )
        if index == PROMOTE_EVERY // 2:
            return f"create table s as {repair}"
        return f"insert into s {repair}"
    if index % READ_EVERY == READ_EVERY // 2:
        return CONF_QUERY
    weight = 1.0 + (index * 7) % 3
    return f"insert into r values ({index}, {index % 5}, {weight})"


def is_promotion(index: int) -> bool:
    return (
        index % PROMOTE_EVERY == PROMOTE_EVERY // 2
        and index % CHECKPOINT_EVERY_OPS != CHECKPOINT_EVERY_OPS - 1
    )


def promoted_ops(db) -> List[int]:
    """The op indices whose promotion ``s`` holds."""
    if "s" not in db.tables():
        return []
    ops = db.query("select op, conf() as p from s group by op order by op")
    return [row[0] for row in ops.rows]


def recovered_op_count(db, insert_count: int) -> int:
    """Ops ``[0, n)`` the store holds: past the last durable insert and
    the last durable promotion (the other ops change nothing durable)."""
    promoted = promoted_ops(db)
    return max(inserts_to_ops(insert_count), promoted[-1] + 1 if promoted else 0)


# -- child ----------------------------------------------------------------------


def run_child(path: str, ops: int, ack_path: str) -> int:
    from repro import MayBMS
    from repro.errors import DegradedError

    db = MayBMS(path=path)
    try:
        if "r" not in db.tables():
            db.execute("create table r (k integer, g integer, w float)")
        # Resume where the last life left off: ops are pure functions of
        # their index and inserts are one row each, so the recovered row
        # count and promotions pin the next index.
        done = db.query("select count(*) as n from r").rows[0][0]
        start = recovered_op_count(db, done)
        with open(ack_path, "ab", buffering=0) as ack:
            for index in range(start, start + ops):
                try:
                    db.execute(op_statement(index))
                except DegradedError:
                    return 3  # read-only degradation acknowledged
                ack.write(f"{index}\n".encode())
                os.fsync(ack.fileno())
        db.close()
    except DegradedError:
        return 3
    return 0


def inserts_to_ops(insert_count: int) -> int:
    """Invert the op stream: how many ops produce ``insert_count``
    inserts (checkpoint ops insert nothing)."""
    index = 0
    remaining = insert_count
    while remaining > 0:
        if op_statement(index).startswith("insert into r "):
            remaining -= 1
        index += 1
    return index


def inserts_in_prefix(op_count: int) -> int:
    """How many of ops ``[0, op_count)`` insert a row of ``r``."""
    return sum(
        1 for i in range(op_count) if op_statement(i).startswith("insert into r ")
    )


# -- parent ---------------------------------------------------------------------


def read_acks(ack_path: str) -> List[int]:
    try:
        with open(ack_path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return []
    acked = []
    for line in raw.split(b"\n"):
        if line.strip().isdigit():
            acked.append(int(line))
        elif line.strip():
            break  # torn tail line: everything after it is unreliable
    return acked


def verify_store(path: str, acked: Sequence[int], seed: int) -> Dict[str, Any]:
    """Reopen the store and check every crash invariant; returns the
    life's verification record or raises AssertionError."""
    from repro import MayBMS

    reopened = MayBMS(path=path, seed=seed)
    try:
        tables = reopened.tables()
        if "r" not in tables:
            assert not acked, f"acked ops {acked[:5]}... but table r lost"
            return {"recovered_inserts": 0, "recovered_ops": 0}
        rows = reopened.query("select k, g, w from r order by k").rows
        recovered_ops = recovered_op_count(reopened, len(rows))

        # 1. Every acked op's effects are recovered.  Checkpoint and read
        # ops change nothing durable, so a trailing acked one is invisible
        # -- the durable obligation of acked op N is that every *insert*
        # and *promotion* among ops [0, N] reached disk.
        if acked:
            last = max(acked)
            required = inserts_in_prefix(last + 1)
            assert len(rows) >= required, (
                f"acked op {last} lost: it implies {required} durable "
                f"inserts but the store recovered only {len(rows)}"
            )
            missing = set(filter(is_promotion, range(last + 1))) - set(
                promoted_ops(reopened)
            )
            assert not missing, f"acked promotions {sorted(missing)} lost"

        # 2. Bit-identical against the in-memory shadow oracle.
        shadow = MayBMS(seed=seed)
        shadow.execute("create table r (k integer, g integer, w float)")
        for index in range(recovered_ops):
            statement = op_statement(index)
            if statement.startswith(("insert", "create")):
                shadow.execute(statement)
        shadow_rows = shadow.query("select k, g, w from r order by k").rows
        assert rows == shadow_rows, (
            f"recovered rows diverge from the oracle at op {recovered_ops}: "
            f"{_first_diff(rows, shadow_rows)}"
        )
        assert ("s" in reopened.tables()) == ("s" in shadow.tables())
        queries = [CONF_QUERY] if rows else []
        if "s" in shadow.tables():
            queries.append(PROMOTED_QUERY)
        for query in queries:
            answer = reopened.query(query).rows
            shadow_answer = shadow.query(query).rows
            assert answer == shadow_answer, (
                f"conf() diverges from the oracle: "
                f"{_first_diff(answer, shadow_answer)}"
            )
        shadow.close()
        return {"recovered_inserts": len(rows), "recovered_ops": recovered_ops}
    finally:
        reopened.close()


def verify_directory_hygiene(path: str) -> None:
    from repro.engine.durability import decode_manifest, manifest_segment_names

    leftovers = [
        name for name in os.listdir(path) if name.endswith(".tmp")
    ]
    assert not leftovers, f"tmp debris survived recovery: {leftovers}"

    referenced = set()
    for manifest in glob.glob(os.path.join(path, "*.manifest")):
        with open(manifest, "rb") as handle:
            referenced |= manifest_segment_names(decode_manifest(handle.read()))
    orphans = [
        name
        for name in os.listdir(path)
        if name.startswith("seg-")
        and name.endswith(".seg")
        and name not in referenced
    ]
    assert not orphans, f"orphan segments survived recovery: {orphans}"


def _first_diff(left: Sequence[Any], right: Sequence[Any]) -> str:
    for i, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return f"row {i}: {a!r} != {b!r}"
    return f"length {len(left)} != {len(right)}"


def choose_life(rng: random.Random) -> Dict[str, Any]:
    mode = rng.choices(
        ["clean", "kill", "fault", "enospc"], weights=[2, 3, 4, 1]
    )[0]
    life: Dict[str, Any] = {"mode": mode}
    if mode == "kill":
        life["delay"] = rng.random() * 0.25
    elif mode == "fault":
        site = rng.choice(CRASH_SITES)
        nth = rng.randint(1, 12)
        life["spec"] = f"{site}=crash@{nth}"
    elif mode == "enospc":
        site = rng.choice(ENOSPC_SITES)
        nth = rng.randint(1, 6)
        life["spec"] = f"{site}=enospc@{nth}"
    return life


def run_life(
    path: str,
    ack_path: str,
    life: Dict[str, Any],
    ops: int,
    seed: int,
) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(_repo_root(), "src"),
                    env.get("PYTHONPATH", "")] if p
    )
    env.pop("REPRO_FAULTS", None)
    if life.get("spec"):
        env["REPRO_FAULTS"] = life["spec"]
        env["REPRO_FAULTS_SEED"] = str(seed)
    try:
        os.remove(ack_path)
    except OSError:
        pass
    child = subprocess.Popen(
        [
            sys.executable, "-m", "tools.torture", "--child",
            "--path", path, "--ops-per-life", str(ops), "--ack", ack_path,
        ],
        env=env,
        cwd=_repo_root(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    if life["mode"] == "kill":
        # Kill mid-workload, not mid-interpreter-startup: wait for the
        # first ack, then strike after a random extra delay.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and child.poll() is None:
            if read_acks(ack_path):
                break
            time.sleep(0.01)
        time.sleep(life["delay"])
        try:
            child.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, stderr = child.communicate(timeout=120)
    record = dict(life)
    record["exit_code"] = child.returncode
    if life["mode"] == "clean":
        assert child.returncode == 0, (
            f"clean life failed (exit {child.returncode}): "
            f"{stderr.decode(errors='replace')[-2000:]}"
        )
    elif life["mode"] == "enospc":
        assert child.returncode in (0, 3), (
            f"enospc life must degrade (3) or miss the trigger (0), got "
            f"{child.returncode}: {stderr.decode(errors='replace')[-2000:]}"
        )
    return record


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def torture(
    path: str,
    iterations: int,
    seed: int,
    ops_per_life: int,
    log_path: Optional[str] = None,
) -> int:
    rng = random.Random(seed)
    ack_path = path + ".ack"
    os.makedirs(path, exist_ok=True)
    log = open(log_path, "a") if log_path else None
    print(f"torture: seed={seed} iterations={iterations} "
          f"ops-per-life={ops_per_life} path={path}", flush=True)
    try:
        for life_index in range(iterations):
            life = choose_life(rng)
            began = time.monotonic()
            record = run_life(path, ack_path, life, ops_per_life, seed)
            acked = read_acks(ack_path)
            record.update(verify_store(path, acked, seed))
            verify_directory_hygiene(path)
            record.update(
                life=life_index,
                acked=len(acked),
                elapsed_ms=round((time.monotonic() - began) * 1e3),
            )
            if log:
                log.write(json.dumps(record, sort_keys=True) + "\n")
                log.flush()
            print(
                f"  life {life_index:4d} {record['mode']:6s} "
                f"exit={record['exit_code']} acked={record['acked']} "
                f"recovered={record['recovered_ops']}",
                flush=True,
            )
    except AssertionError as exc:
        print(f"torture FAILED (replay with --seed {seed}): {exc}",
              file=sys.stderr, flush=True)
        return 1
    finally:
        if log:
            log.close()
    print(f"torture OK: {iterations} lives, seed={seed}", flush=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="torture",
        description="Crash-torture a durable MayBMS store and verify "
        "recovery invariants after every life.",
    )
    parser.add_argument("--path", required=True, help="store directory")
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops-per-life", type=int, default=40)
    parser.add_argument("--log", default=None, help="JSONL log file")
    parser.add_argument(
        "--child", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--ack", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args.path, args.ops_per_life, args.ack)
    return torture(
        args.path, args.iterations, args.seed, args.ops_per_life, args.log
    )


if __name__ == "__main__":
    sys.exit(main())
