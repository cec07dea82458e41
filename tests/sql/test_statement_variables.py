"""Statement-scoped random variables.

``repair key`` / ``pick tuples`` mint into the running statement's scope:
a SELECT leaves the durable registry, the WAL and memory as they were.
Only a statement that stores rows promotes the variables those rows name
into the durable registry, inside its own transaction; a checkpoint then
appends them as a registry delta, and the store reopens bit-identically.
"""

import gc
import glob
import os
import sys
import threading
import tracemalloc

import pytest

from repro.core import aggregates, lineage
from repro.db import MayBMS
from repro.engine.durability import decode_manifest
from repro.errors import VariableError

WALK = (
    "select v, conf() as p from (repair key k in t weight by p) r "
    "where v > {low} group by v"
)
STORE = "create table u as select * from (repair key k in t weight by p) r"


def populate(db, groups=4):
    db.execute("create table t (k integer, v integer, p float)")
    db.execute(
        "insert into t values "
        + ", ".join(
            f"({k}, {k * 10 + v}, {0.5 + v})" for k in range(groups) for v in range(3)
        )
    )


def wal_bytes(path):
    return sum(os.path.getsize(f) for f in glob.glob(os.path.join(path, "wal.*.log")))


def registry_segments(path):
    manifest = sorted(glob.glob(os.path.join(path, "checkpoint.*.manifest")))[-1]
    with open(manifest, "rb") as handle:
        return decode_manifest(handle.read())["registry"]["segments"]


def stored_variables(db, table):
    urel = db.urelation(table)
    base = urel.payload_arity
    return {
        row[base + 3 * i]
        for row in urel.relation.rows
        for i in range(urel.cond_arity)
    } - {0}


def snapshot(db):
    registry = db.registry
    return {
        var: (registry.name(var), registry.distribution(var))
        for var in registry.variables()
    }


def test_selects_leave_registry_wal_and_memory_unchanged(tmp_path):
    db = MayBMS(seed=3)
    populate(db)
    records = db.wal.records()
    tracemalloc.start()
    try:
        for i in range(200):
            assert db.query(WALK.format(low=i % 7))
            if i == 49:
                gc.collect()
                after_50, _ = tracemalloc.get_traced_memory()
        gc.collect()
        after_200, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db.registry) == 0
    assert db.wal.records() == records
    assert after_200 - after_50 < 100_000, after_200 - after_50

    path = str(tmp_path / "store")
    with MayBMS(path=path, seed=3) as durable:
        populate(durable)
        size = wal_bytes(path)
        for i in range(200):
            durable.query(WALK.format(low=i % 7))
        assert wal_bytes(path) == size
        assert len(durable.registry) == 0


def test_promotion_stores_exactly_the_named_variables(tmp_path):
    path = str(tmp_path / "store")
    with MayBMS(path=path, seed=3) as db:
        populate(db)
        db.query(WALK.format(low=0))  # leaves an id gap behind
        db.execute(STORE)
        db.execute(
            "create table w as select * from "
            "(pick tuples from t with probability 0.25) r where k = 1"
        )
        db.execute(
            "insert into w select * from "
            "(pick tuples from t with probability 0.75) r where k = 2 and v > 20"
        )
        named = stored_variables(db, "u") | stored_variables(db, "w")
        assert set(db.registry.variables()) == named
        assert len(stored_variables(db, "u")) == 4  # one per key group
        assert len(stored_variables(db, "w")) == 3 + 2
        assert db.registry.name(min(stored_variables(db, "u"))) == "rk2[0]"
        before = snapshot(db)
        answer = db.query("select v, conf() as p from u group by v order by v").rows
    with MayBMS(path=path, seed=3) as reopened:
        assert snapshot(reopened) == before
        assert reopened.query(
            "select v, conf() as p from u group by v order by v"
        ).rows == answer


def test_checkpoint_after_create_table_as_appends_a_delta(tmp_path):
    path = str(tmp_path / "store")
    with MayBMS(path=path, seed=3) as db:
        populate(db)
        db.execute("create table base as select * from (repair key k in t) r")
        db.checkpoint()
        assert len(registry_segments(path)) == 1
        db.query(WALK.format(low=3))
        db.execute(STORE)
        db.checkpoint()
        assert len(registry_segments(path)) == 2  # base re-linked + delta
        before = snapshot(db)
    with MayBMS(path=path, seed=3) as reopened:
        assert snapshot(reopened) == before


def test_held_result_stored_after_a_checkpoint_survives(tmp_path):
    path = str(tmp_path / "store")
    with MayBMS(path=path, seed=3) as db:
        populate(db)
        held = db.uncertain_query("select * from (repair key k in t weight by p) r")
        db.execute("create table other as select * from (repair key k in t) r")
        db.checkpoint()
        # The held ids lie below the checkpoint's frontier: a full rewrite.
        db.create_table_from_urelation("late", held)
        db.checkpoint()
        assert len(registry_segments(path)) == 1
        before = snapshot(db)
        answer = db.query("select v, conf() as p from late group by v order by v").rows
    with MayBMS(path=path, seed=3) as reopened:
        assert snapshot(reopened) == before
        assert reopened.query(
            "select v, conf() as p from late group by v order by v"
        ).rows == answer


def test_concurrent_sessions_never_share_an_id():
    """More minting sessions than cores, switching threads often: every
    statement's block of ids is its own."""
    store = MayBMS(seed=3)
    populate(store, groups=8)
    seen = [[] for _ in range(4)]
    errors = []

    def mint(index):
        try:
            session = store.session(read_only=index % 2 == 1)
            for _ in range(40):
                urel = session.uncertain_query(
                    "select * from (repair key k in t weight by p) r"
                )
                seen[index].extend(row[3] for row in urel.relation.rows)
            session.close()
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=mint, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    ids = [var for minted in seen for var in set(minted)]
    assert len(ids) == len(set(ids)) == 4 * 40 * 8
    assert len(store.registry) == 0
    store.close()


def test_repeated_conf_over_a_stored_urelation_hits_its_clause_cache(monkeypatch):
    db = MayBMS(seed=3, confidence_strategy="exact")
    populate(db)
    db.execute(STORE)
    decoded = []
    original = lineage.row_clauses
    monkeypatch.setattr(
        lineage,
        "row_clauses",
        lambda *args: decoded.append(1) or original(*args),
    )
    dispatcher = db.executor.dispatcher

    def conf_of_u():
        # The stored snapshot, bound to the durable registry.
        return aggregates.conf(db.urelation("u"), ["k"], dispatcher=dispatcher).rows

    first = conf_of_u()
    assert len(decoded) == 1
    assert db.query(WALK.format(low=0)).rows  # a minting statement between
    count = len(decoded)
    assert conf_of_u() == first
    assert len(decoded) == count  # u's clauses came from the cache


def test_raw_transaction_inserts_promote_live_scopes_and_refuse_dead_ones():
    db = MayBMS(seed=3)
    populate(db)
    held = db.uncertain_query("select * from (repair key k in t weight by p) r")
    rows = held.relation.rows
    db.begin()
    db.transaction.create_table(
        "maybe",
        held.relation.schema.unqualified(),
        kind="urelation",
        properties={"payload_arity": held.payload_arity, "cond_arity": held.cond_arity},
    )
    db.transaction.insert_many("maybe", rows[:2])
    for row in rows[2:]:
        db.transaction.insert("maybe", row)
    db.commit()
    named = stored_variables(db, "maybe")
    assert set(db.registry.variables()) == named
    registered = [r[1] for r in db.wal.records() if r[0] == "register_variable"]
    assert sorted(registered) == sorted(named)  # once each
    answer = db.query("select v, conf() as p from maybe group by v order by v").rows
    assert db.recover().query(
        "select v, conf() as p from maybe group by v order by v"
    ).rows == answer

    # A result nobody holds any more names ids no registry knows.
    orphans = db.uncertain_query("select * from (repair key k in t) r").relation.rows
    gc.collect()
    db.begin()
    with pytest.raises(VariableError, match="unknown variable id"):
        db.transaction.insert_many("maybe", orphans)
    db.rollback()
    with pytest.raises(VariableError, match="unknown variable id"):
        db.execute("insert into maybe values (0, 1, 0.5, 99999, 0)")
    assert set(db.registry.variables()) == named
    assert len(db.urelation("maybe").relation) == len(rows)


def held_by_two_sessions():
    """A store with earlier promotions logged, a held result, and two
    sessions storing it: ``a`` inside an open transaction, ``b`` in
    auto-commit."""
    store = MayBMS(seed=3)
    populate(store)
    store.execute("create table base as select * from (repair key k in t) r")
    held = store.uncertain_query("select * from (repair key k in t weight by p) r")
    a, b = store.session(), store.session()
    a.begin()
    a.create_table_from_urelation("t1", held)
    b.create_table_from_urelation("t2", held)
    return store, a, b


def test_one_held_result_stored_by_two_sessions_survives_a_rollback():
    store, a, b = held_by_two_sessions()
    answer = b.query("select v, conf() as p from t2 group by v order by v").rows
    a.rollback()
    assert b.query("select v, conf() as p from t2 group by v order by v").rows == answer
    assert set(store.registry.variables()) == (
        stored_variables(store, "base") | stored_variables(store, "t2")
    )
    a.close()
    b.close()


def test_one_held_result_stored_by_two_sessions_recovers_before_the_commit():
    store, a, b = held_by_two_sessions()
    answer = b.query("select v, conf() as p from t2 group by v order by v").rows
    recovered = store.recover()  # the open transaction never committed
    assert recovered.query(
        "select v, conf() as p from t2 group by v order by v"
    ).rows == answer
    a.commit()
    assert set(store.recover().registry.variables()) == (
        stored_variables(store, "base")
        | stored_variables(store, "t1")
        | stored_variables(store, "t2")
    )
    a.close()
    b.close()
