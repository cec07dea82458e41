"""A bounded, fixed-seed slice of the crash-torture harness.

The full harness (``python -m tools.torture``) runs hundreds of lives;
this keeps CI honest with a handful covering every life mode.  The seed
is fixed, so a failure here replays bit-identically with::

    python -m tools.torture --path /tmp/t --iterations 6 --seed 1234 \
        --ops-per-life 20
"""

import os

from tools.torture import (
    CRASH_SITES,
    choose_life,
    inserts_to_ops,
    op_statement,
    torture,
)
import random

from repro import faults

SEED = 1234


class TestWorkloadDeterminism:
    def test_op_stream_is_pure(self):
        assert [op_statement(i) for i in range(40)] == [
            op_statement(i) for i in range(40)
        ]

    def test_inserts_to_ops_inverts_the_stream(self):
        inserts = 0
        for index in range(120):
            if op_statement(index).startswith("insert into r "):
                inserts += 1
        # inserts_to_ops maps a prefix's row-insert count back to the next
        # op index (checkpoint, promotion and read ops insert no row of r).
        after = inserts_to_ops(inserts)
        assert after == 120 or not op_statement(after).startswith("insert into r ")
        assert inserts_to_ops(0) == 0

    def test_stream_crosses_promotion_and_scoped_reads(self):
        kinds = [op_statement(i).split(" from ")[0] for i in range(40)]
        assert kinds.count("create table s as select 6 as op, k, g") == 1
        assert sum(kind.startswith("insert into s ") for kind in kinds) >= 2
        assert sum(kind.startswith("select g, conf()") for kind in kinds) >= 3

    def test_crash_specs_use_cataloged_sites(self):
        assert set(CRASH_SITES) <= set(faults.SITES)

    def test_life_plan_replays_from_seed(self):
        plan = [choose_life(random.Random(SEED)) for _ in range(3)]
        assert plan[0] == plan[1] == plan[2]


class TestBoundedTorture:
    def test_fixed_seed_run_recovers_every_life(self, tmp_path):
        path = str(tmp_path / "store")
        log = str(tmp_path / "torture.jsonl")
        code = torture(
            path, iterations=6, seed=SEED, ops_per_life=20, log_path=log
        )
        assert code == 0
        assert os.path.getsize(log) > 0
