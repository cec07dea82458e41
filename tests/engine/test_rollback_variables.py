"""Regressions for the rollback variable-leak.

Rolling back ``CREATE TABLE u AS REPAIR KEY a IN t WEIGHT BY p`` dropped
the table but left its variables registered in the VariableRegistry --
and in durable mode the phantom variables survived close/reopen (their
``register_variable`` units were flushed with the *next* commit even
though the creating transaction rolled back).  Variables are now
promoted from the statement's scope inside the transaction that stores
rows naming them: rollback unregisters, and the records reach the WAL
only inside the transaction's committed unit.
"""

import pytest

from repro.core.variables import VariableRegistry
from repro.db import MayBMS
from repro.errors import TableExistsError, VariableError


@pytest.fixture
def db():
    db = MayBMS(seed=1)
    db.execute("create table t (k integer, a integer, p float)")
    db.execute(
        "insert into t values (1, 1, 0.5), (1, 2, 0.5), (2, 1, 0.3), (2, 2, 0.7)"
    )
    return db


class TestUnregister:
    def test_unregister_removes_and_never_reuses_ids(self):
        registry = VariableRegistry()
        first = registry.fresh([0.5, 0.5])
        second = registry.fresh([0.2, 0.8])
        registry.unregister(second)
        registry.unregister(first)
        assert len(registry) == 0
        # A statement scope may still name an unregistered id: never reused.
        assert registry.fresh([1.0]) > second

    def test_unregister_middle_keeps_counter(self):
        registry = VariableRegistry()
        first = registry.fresh([0.5, 0.5])
        second = registry.fresh([0.2, 0.8])
        registry.unregister(first)
        assert second in registry
        assert registry.fresh([1.0]) > second

    def test_unregister_unknown_or_top_raises(self):
        registry = VariableRegistry()
        with pytest.raises(VariableError):
            registry.unregister(0)
        with pytest.raises(VariableError):
            registry.unregister(123)


class TestRollbackUnregisters:
    def test_rollback_of_create_table_as_repair_key(self, db):
        assert len(db.registry) == 0
        db.begin()
        db.execute("create table u as repair key k in t weight by p")
        assert len(db.registry) == 2  # one variable per key group
        db.rollback()
        assert "u" not in [name.lower() for name in db.tables()]
        assert len(db.registry) == 0, "rolled-back variables must unregister"
        assert not db.wal.has_variable_records()

    def test_rollback_of_pick_tuples(self, db):
        db.begin()
        db.execute("create table v as pick tuples from t with probability p")
        assert len(db.registry) > 0
        db.rollback()
        assert len(db.registry) == 0
        assert not db.wal.has_variable_records()

    def test_commit_keeps_variables(self, db):
        db.begin()
        db.execute("create table u as repair key k in t weight by p")
        db.commit()
        assert len(db.registry) == 2
        # The registrations are inside the committed unit, not standalone.
        records = db.wal.records()
        assert ("register_variable" in {r[0] for r in records})
        conf = db.query("select a, conf() as c from u where k = 1 group by a")
        assert sorted(round(c, 9) for _, c in conf.rows) == [0.5, 0.5]

    def test_failed_autocommit_statement_unregisters(self, db):
        db.execute("create table u as repair key k in t weight by p")
        variables_before = len(db.registry)
        # Second CREATE of the same name fails after evaluating the query
        # (and registering fresh variables); they must be rolled back too.
        with pytest.raises(TableExistsError):
            db.execute("create table u as repair key k in t weight by p")
        assert len(db.registry) == variables_before

    def test_statement_rollback_inside_transaction_is_partial(self, db):
        db.begin()
        db.execute("create table u as repair key k in t weight by p")
        with pytest.raises(TableExistsError):
            db.execute("create table u as repair key k in t weight by p")
        # The failed statement's variables are gone, the first one's stay.
        assert len(db.registry) == 2
        db.commit()
        assert len(db.registry) == 2

    def test_select_repair_key_outside_transaction_registers_nothing(self, db):
        # A plain SELECT mints into its statement scope: the returned
        # URelation is bound to it, and the durable registry and the WAL
        # are untouched.
        result = db.uncertain_query("select * from repair key k in t weight by p r")
        assert len(db.registry) == 0
        assert not db.wal.has_variable_records()
        assert len(result.relation) == 4
        assert result.registry.durable is db.registry
        assert [result.registry.name(v) for v in (1, 2)] == ["rk1[1]", "rk1[2]"]


class TestDurableRollback:
    def test_phantom_variables_do_not_survive_reopen(self, tmp_path, db):
        path = str(tmp_path / "store")
        with MayBMS(path=path) as durable:
            durable.execute("create table t (k integer, a integer, p float)")
            durable.execute(
                "insert into t values (1, 1, 0.5), (1, 2, 0.5)"
            )
            durable.begin()
            durable.execute("create table u as repair key k in t weight by p")
            durable.rollback()
            assert len(durable.registry) == 0
        with MayBMS(path=path) as reopened:
            assert reopened.tables() == ["t"]
            assert len(reopened.registry) == 0, (
                "rolled-back variable registrations must not be recovered"
            )

    def test_committed_variables_survive_reopen_bit_identically(self, tmp_path):
        path = str(tmp_path / "store")
        with MayBMS(path=path) as durable:
            durable.execute("create table t (k integer, a integer, p float)")
            durable.execute(
                "insert into t values (1, 1, 0.25), (1, 2, 0.75), (2, 5, 1.0)"
            )
            durable.begin()
            durable.execute("create table u as repair key k in t weight by p")
            durable.commit()
            before = sorted(
                durable.query(
                    "select a, conf() as c from u group by a"
                ).rows
            )
        with MayBMS(path=path) as reopened:
            after = sorted(
                reopened.query(
                    "select a, conf() as c from u group by a"
                ).rows
            )
        assert after == before

    def test_rollback_then_recreate_is_consistent_after_recovery(self, tmp_path):
        path = str(tmp_path / "store")
        with MayBMS(path=path) as durable:
            durable.execute("create table t (k integer, a integer, p float)")
            durable.execute("insert into t values (1, 1, 0.5), (1, 2, 0.5)")
            durable.begin()
            durable.execute("create table u as repair key k in t weight by p")
            durable.rollback()
            # Recreate after rollback: the committed encoding references
            # exactly the recovered registry.
            durable.execute("create table u as repair key k in t weight by p")
            before = sorted(
                durable.query("select a, conf() as c from u group by a").rows
            )
        with MayBMS(path=path) as reopened:
            after = sorted(
                reopened.query("select a, conf() as c from u group by a").rows
            )
            assert after == before
            assert len(reopened.registry) == 1
