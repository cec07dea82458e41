"""Tests for statement execution: DDL, DML, queries of every shape."""

import pytest

from repro import MayBMS
from repro.core.lineage import row_clauses
from repro.core.urelation import URelation
from repro.engine.relation import Relation
from repro.engine.types import NULL
from repro.errors import (
    AnalysisError,
    ConditionError,
    MayBMSError,
    SchemaError,
    StorageError,
    TableExistsError,
    TableNotFoundError,
    TransactionError,
    VariableError,
)


@pytest.fixture
def db():
    session = MayBMS()
    session.execute("create table items (name text, qty integer, price float)")
    session.execute(
        "insert into items values "
        "('apple', 3, 1.5), ('banana', 5, 0.5), ('cherry', 2, 4.0), "
        "('apple', 1, 1.6)"
    )
    return session


class TestDDL:
    def test_create_and_drop(self, db):
        db.execute("create table t2 (x integer)")
        assert "t2" in db.tables()
        db.execute("drop table t2")
        assert "t2" not in db.tables()

    def test_create_duplicate_rejected(self, db):
        with pytest.raises(TableExistsError):
            db.execute("create table items (x integer)")

    def test_create_if_not_exists(self, db):
        db.execute("create table if not exists items (x integer)")
        assert db.table("items").schema.names == ["name", "qty", "price"]

    def test_drop_missing(self, db):
        with pytest.raises(TableNotFoundError):
            db.execute("drop table ghost")
        db.execute("drop table if exists ghost")

    def test_create_table_as_certain(self, db):
        db.execute("create table expensive as select name from items where price > 1.0")
        assert len(db.table("expensive")) == 3
        assert not db.catalog.entry("expensive").is_urelation

    def test_create_table_as_uncertain(self, db):
        db.execute(
            "create table maybe as select * from (pick tuples from items) s"
        )
        entry = db.catalog.entry("maybe")
        assert entry.is_urelation
        assert entry.properties["cond_arity"] == 1
        urel = db.urelation("maybe")
        assert len(urel) == 4


class TestDML:
    def test_insert_values_count(self, db):
        result = db.execute("insert into items values ('date', 1, 9.0)")
        assert result.row_count == 1
        assert len(db.table("items")) == 5

    def test_insert_partial_columns(self, db):
        db.execute("insert into items (name) values ('kiwi')")
        rows = [r for r in db.table("items") if r[0] == "kiwi"]
        assert rows[0][1] is NULL

    def test_insert_expression_values(self, db):
        db.execute("insert into items values ('calc', 2 + 3, 1.5 * 2)")
        rows = [r for r in db.table("items") if r[0] == "calc"]
        assert rows[0] == ("calc", 5, 3.0)

    def test_insert_from_query(self, db):
        db.execute("create table copies (name text, qty integer, price float)")
        result = db.execute("insert into copies select * from items")
        assert result.row_count == 4

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(SchemaError):
            db.execute("insert into items values (1)")

    def test_update(self, db):
        result = db.execute("update items set qty = qty + 10 where name = 'apple'")
        assert result.row_count == 2
        quantities = sorted(r[1] for r in db.table("items") if r[0] == "apple")
        assert quantities == [11, 13]

    def test_update_all_rows(self, db):
        assert db.execute("update items set qty = 0").row_count == 4

    def test_delete_where(self, db):
        assert db.execute("delete from items where qty < 3").row_count == 2
        assert len(db.table("items")) == 2

    def test_delete_all(self, db):
        assert db.execute("delete from items").row_count == 4
        assert len(db.table("items")) == 0


class TestBasicQueries:
    def test_projection_and_alias(self, db):
        result = db.query("select name as n, price * 2 as double_price from items")
        assert result.schema.names == ["n", "double_price"]
        assert ("banana", 1.0) in result.rows

    def test_star(self, db):
        assert len(db.query("select * from items").schema) == 3

    def test_qualified_star(self, db):
        result = db.query("select i.* from items i")
        assert len(result.schema) == 3

    def test_where(self, db):
        result = db.query("select name from items where price between 1.0 and 2.0")
        assert sorted(r[0] for r in result) == ["apple", "apple"]

    def test_where_in_list(self, db):
        result = db.query("select name from items where name in ('apple', 'cherry')")
        assert len(result) == 3

    def test_in_subquery_certain(self, db):
        db.execute("create table wanted (n text)")
        db.execute("insert into wanted values ('banana'), ('cherry')")
        result = db.query(
            "select name from items where name in (select n from wanted)"
        )
        assert sorted(r[0] for r in result) == ["banana", "cherry"]

    def test_join_two_tables(self, db):
        db.execute("create table colors (fruit text, color text)")
        db.execute(
            "insert into colors values ('apple', 'red'), ('banana', 'yellow')"
        )
        result = db.query(
            "select i.name, c.color from items i, colors c where i.name = c.fruit"
        )
        assert len(result) == 3  # apple x2, banana x1

    def test_self_join_with_aliases(self, db):
        result = db.query(
            "select a.name from items a, items b "
            "where a.name = b.name and a.qty < b.qty"
        )
        assert [r[0] for r in result] == ["apple"]

    def test_order_by_limit_offset(self, db):
        result = db.query("select name, qty from items order by qty desc limit 2")
        assert [r[0] for r in result] == ["banana", "apple"]
        result2 = db.query(
            "select name, qty from items order by qty desc limit 2 offset 1"
        )
        assert [r[1] for r in result2] == [3, 2]

    def test_distinct(self, db):
        assert len(db.query("select distinct name from items")) == 3

    def test_union_all_and_distinct(self, db):
        both = db.query(
            "select name from items union all select name from items"
        )
        assert len(both) == 8
        deduped = db.query("select name from items union select name from items")
        assert len(deduped) == 3

    def test_select_without_from(self, db):
        result = db.query("select 2 + 3 as five")
        assert result.single_value() == 5

    def test_case_expression(self, db):
        result = db.query(
            "select name, case when qty > 2 then 'many' else 'few' end as amount "
            "from items order by name, qty"
        )
        amounts = dict((r[0], r[1]) for r in result.rows if r[0] != "apple")
        assert amounts == {"banana": "many", "cherry": "few"}

    def test_scalar_functions(self, db):
        result = db.query("select upper(name) as u from items where qty = 5")
        assert result.single_value() == "BANANA"


class TestStandardAggregation:
    def test_group_by_aggregates(self, db):
        result = db.query(
            "select name, count(*) as n, sum(qty) as total "
            "from items group by name order by name"
        )
        assert result.rows[0] == ("apple", 2, 4)

    def test_scalar_aggregates(self, db):
        result = db.query(
            "select count(*) as n, min(price) as lo, max(price) as hi, "
            "avg(qty) as mean from items"
        )
        assert result.rows[0] == (4, 0.5, 4.0, 2.75)

    def test_having(self, db):
        result = db.query(
            "select name, count(*) as n from items group by name "
            "having count(*) > 1"
        )
        assert result.rows == [("apple", 2)]

    def test_having_with_new_aggregate(self, db):
        result = db.query(
            "select name from items group by name having sum(qty) >= 4 order by name"
        )
        assert [r[0] for r in result] == ["apple", "banana"]

    def test_argmax(self, db):
        result = db.query(
            "select argmax(name, price) as priciest from items"
        )
        assert result.single_value() == "cherry"

    def test_argmax_group_emits_all_ties(self, db):
        db.execute("insert into items values ('cherry2', 9, 4.0)")
        result = db.query("select argmax(name, price) as m from items")
        assert sorted(r[0] for r in result) == ["cherry", "cherry2"]

    def test_expression_over_aggregate(self, db):
        result = db.query(
            "select name, sum(qty) * 2 as double_total from items "
            "group by name order by name"
        )
        assert result.rows[0] == ("apple", 8)

    def test_count_distinct(self, db):
        result = db.query("select count(distinct name) as n from items")
        assert result.single_value() == 3


class TestUncertainQueries:
    def test_pick_tuples_tconf(self, db):
        result = db.query(
            "select name, tconf() as p from "
            "(pick tuples from items with probability 0.25) s"
        )
        assert len(result) == 4
        assert all(row[1] == pytest.approx(0.25) for row in result)

    def test_repair_key_conf_roundtrip(self, db):
        result = db.query(
            "select name, conf() as p from "
            "(repair key name in items weight by qty) r group by name"
        )
        # Every name group's chosen tuple is present with probability 1
        # (repair key always keeps one tuple per group).
        assert all(row[1] == pytest.approx(1.0) for row in result)

    def test_repair_key_weighted_probabilities(self, db):
        result = db.query(
            "select name, qty, conf() as p from "
            "(repair key name in items weight by qty) r group by name, qty"
        )
        by_row = {(r[0], r[1]): r[2] for r in result}
        assert by_row[("apple", 3)] == pytest.approx(0.75)
        assert by_row[("apple", 1)] == pytest.approx(0.25)

    def test_possible(self, db):
        result = db.query(
            "select possible name from (pick tuples from items) s"
        )
        assert len(result) == 3  # deduplicated

    def test_esum_ecount(self, db):
        result = db.query(
            "select esum(qty) as e, ecount() as c from "
            "(pick tuples from items with probability 0.5) s"
        )
        e, c = result.rows[0]
        assert e == pytest.approx(0.5 * (3 + 5 + 2 + 1))
        assert c == pytest.approx(2.0)

    def test_esum_grouped(self, db):
        result = db.query(
            "select name, esum(qty) as e from "
            "(pick tuples from items with probability 0.5) s group by name"
        )
        by_name = {r[0]: r[1] for r in result}
        assert by_name["apple"] == pytest.approx(2.0)

    def test_aconf_close_to_conf(self, db):
        exact = db.query(
            "select name, conf() as p from "
            "(pick tuples from items with probability 0.5) s group by name"
        )
        approx = db.query(
            "select name, aconf(0.05, 0.05) as p from "
            "(pick tuples from items with probability 0.5) s group by name"
        )
        exact_by = {r[0]: r[1] for r in exact}
        for name, p in approx.rows:
            assert p == pytest.approx(exact_by[name], rel=0.15)

    def test_uncertain_query_returns_urelation(self, db):
        urel = db.uncertain_query("select name from (pick tuples from items) s")
        assert isinstance(urel, URelation)
        assert urel.payload_schema.names == ["name"]

    def test_query_on_uncertain_raises(self, db):
        with pytest.raises(AnalysisError):
            db.query("select name from (pick tuples from items) s")

    def test_uncertain_in_subquery_join_semantics(self, db):
        """x IN (uncertain) keeps the outer tuple exactly when some matching
        inner tuple is present; confidence combines the alternatives."""
        db.execute(
            "create table maybe_names as "
            "select name from (pick tuples from items with probability 0.5) s"
        )
        result = db.query(
            "select name, conf() as p from items "
            "where name in (select name from maybe_names) group by name"
        )
        by_name = {r[0]: r[1] for r in result}
        # apple appears twice in maybe_names (two independent pickings of
        # the two apple rows): 1 - 0.25 = 0.75
        assert by_name["apple"] == pytest.approx(0.75)
        assert by_name["banana"] == pytest.approx(0.5)

    def test_stored_urelation_requeried(self, db):
        db.execute(
            "create table half as select * from "
            "(pick tuples from items with probability 0.5) s"
        )
        result = db.query(
            "select name, conf() as p from half group by name order by name"
        )
        assert result.rows[0][0] == "apple"
        assert result.rows[0][1] == pytest.approx(0.75)

    def test_union_all_of_uncertain(self, db):
        result = db.query(
            "select ecount() as c from ("
            "select name from (pick tuples from items with probability 0.5) a "
            "union all "
            "select name from (pick tuples from items with probability 0.5) b"
            ") u"
        )
        assert result.single_value() == pytest.approx(4.0)


class TestConditionLayout:
    """Every operator that builds condition columns writes (variable,
    value) pairs only; the probabilities stay in the registry."""

    REPAIR = "(repair key name in items weight by qty)"
    PICK = "(pick tuples from items with probability 0.5)"

    @pytest.mark.parametrize(
        "sql",
        [
            f"select * from {REPAIR} r",
            f"select * from {PICK} s",
            f"select name from {REPAIR} r",
            f"select r.name, s.qty from {REPAIR} r, {PICK} s where r.name = s.name",
            f"select r.name from {REPAIR} r, {PICK} s where r.name = s.name "
            f"union all select name from {PICK} t",
        ],
        ids=["repair_key", "pick_tuples", "project", "join", "union_pad"],
    )
    def test_result_conditions_are_pairs(self, db, sql):
        urel = db.uncertain_query(sql)
        assert urel.cond_arity >= 1
        names = urel.relation.schema.names[urel.payload_arity:]
        assert names == [
            f"{prefix}{i}" for i in range(urel.cond_arity) for prefix in ("_v", "_d")
        ]
        for condition in row_clauses(urel):
            for var, value in condition:
                assert 0.0 < urel.registry.probability(var, value) <= 1.0

    def test_stored_table_and_its_log_records_hold_pairs(self, db):
        db.execute(f"create table half as select * from {self.PICK} s")
        table = db.catalog.table("half")
        assert table.schema.names == ["name", "qty", "price", "_v0", "_d0"]
        inserts = [r for r in db.wal.records() if r[:2] == ("insert", "half")]
        assert len(inserts) == 4
        assert all(len(record[3]) == 5 for record in inserts)



class TestConditionWriters:
    """Every writer of a U-relation table refuses a condition cell that
    is not a 64-bit integer, names an unknown variable, or holds a value
    outside its variable's domain, with a typed error; the statement
    leaves the table as it was."""

    @pytest.fixture
    def u(self, db):
        db.execute("create table t (k integer, v integer, p float)")
        db.execute("insert into t values (1, 1, 0.5), (1, 2, 0.5), (2, 1, 1.0)")
        db.execute("create table u as select * from (repair key k in t weight by p) r")
        assert db.table("u").schema.names == ["k", "v", "p", "_v0", "_d0"]
        return db

    @pytest.mark.parametrize(
        "sql, error",
        [
            ("insert into u values (3, 3, 0.2, NULL, NULL)", ConditionError),
            ("insert into u values (3, 3, 0.2, 1, NULL)", ConditionError),
            ("insert into u values (3, 3, 0.2, 'x', 0)", ConditionError),
            ("insert into u values (3, 3, 0.2, 1.5, 0)", ConditionError),
            (f"insert into u values (3, 3, 0.2, 1, {2**63})", ConditionError),
            ("insert into u values (3, 3, 0.2, 987654, 0)", VariableError),
            ("update u set _v0 = NULL", ConditionError),
            ("update u set _d0 = NULL where k = 2", ConditionError),
            ("update u set _v0 = 987654", VariableError),
            # Key 1's variable (var) has domain {0, 1}, key 2's has {0}.
            ("insert into u values (2, 2, 0.5, {var}, 7)", ConditionError),
            ("update u set _d0 = 99", ConditionError),
            ("update u set _d0 = 1 where k = 2", ConditionError),
            ("update u set _d0 = -1 where k = 1", ConditionError),
            # The padding atom (variable 0) has domain {0}.
            ("insert into u values (3, 3, 0.2, 0, 1)", ConditionError),
        ],
    )
    def test_bad_conditions_are_refused(self, u, sql, error):
        reads = [
            "select k, conf() as p from u group by k order by k",
            "select k, v, tconf() as p from u order by k, v",
        ]
        before = sorted(map(repr, u.table("u").rows))
        answers = [u.query(read).rows for read in reads]
        var = next(row[3] for row in u.table("u").rows if row[0] == 1)
        with pytest.raises(error):
            u.execute(sql.format(var=var))
        assert sorted(map(repr, u.table("u").rows)) == before
        assert [u.query(read).rows for read in reads] == answers

    def test_the_transaction_api_checks_too(self, u):
        before = sorted(map(repr, u.table("u").rows))
        tid, row = next(iter(u.catalog.table("u").items()))
        u.begin()
        with pytest.raises(ConditionError):
            u.transaction.update("u", tid, row[:3] + (None, 0))
        with pytest.raises(VariableError):
            u.transaction.update("u", tid, row[:3] + (987654, 0))
        with pytest.raises(ConditionError):
            u.transaction.insert_many("u", [row, row[:3] + (row[3], True)])
        with pytest.raises(StorageError):
            u.transaction.insert("u", row[:3])
        assert sorted(map(repr, u.table("u").rows)) == before
        u.rollback()

    @pytest.mark.parametrize(
        "write",
        [
            lambda txn, tid, row: txn.insert("u", row[:4] + (2,)),
            lambda txn, tid, row: txn.insert_many("u", [row, row[:4] + (-1,)]),
            lambda txn, tid, row: txn.update("u", tid, row[:4] + (7,)),
            lambda txn, tid, row: txn.update_where(
                "u", lambda r: True, lambda r: r[:4] + (7,)
            ),
        ],
        ids=["insert", "insert_many", "update", "update_where"],
    )
    def test_values_outside_the_domain_are_refused(self, u, write):
        # A row of key 1, whose variable has domain {0, 1}.
        tid, row = next(item for item in u.catalog.table("u").items() if item[1][0] == 1)
        before = sorted(map(repr, u.table("u").rows))
        u.begin()
        with pytest.raises(ConditionError, match="outside its domain"):
            write(u.transaction, tid, row)
        assert sorted(map(repr, u.table("u").rows)) == before
        u.rollback()

    def test_inside_a_transaction_the_statement_alone_rolls_back(self, u):
        u.execute("begin")
        u.execute("insert into u values (3, 3, 0.2, 0, 0)")
        with pytest.raises(ConditionError):
            u.execute("update u set _v0 = NULL where k = 3")
        u.execute("commit")
        assert (3, 3, 0.2, 0, 0) in u.table("u").rows


class TestTransactionsThroughSql:
    def test_begin_rollback(self, db):
        db.execute("begin")
        assert db.in_transaction
        db.transaction.insert("items", ("temp", 1, 1.0))
        assert len(db.table("items")) == 5
        db.execute("rollback")
        assert len(db.table("items")) == 4

    def test_begin_commit(self, db):
        db.execute("begin")
        db.transaction.insert("items", ("kept", 1, 1.0))
        db.execute("commit")
        assert len(db.table("items")) == 5

    def test_nested_begin_rejected(self, db):
        db.execute("begin")
        with pytest.raises(TransactionError):
            db.execute("begin")
        db.execute("rollback")

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.execute("commit")

    def test_sql_dml_rolls_back(self, db):
        """SQL DML inside an explicit transaction joins its undo journal:
        ROLLBACK undoes it (it used to bypass the transaction entirely)."""
        db.execute("begin")
        db.execute("insert into items values ('temp', 1, 1.0)")
        assert len(db.table("items")) == 5
        db.execute("rollback")
        assert len(db.table("items")) == 4

    def test_sql_ddl_rolls_back(self, db):
        db.execute("begin")
        db.execute("create table scratch (x integer)")
        db.execute("insert into scratch values (1)")
        db.execute("rollback")
        assert "scratch" not in db.tables()

    def test_sql_dml_commit_survives(self, db):
        db.execute("begin")
        db.execute("insert into items values ('kept', 1, 1.0)")
        db.execute("commit")
        assert len(db.table("items")) == 5

    def test_failing_update_is_atomic(self, db):
        """An error mid-UPDATE rolls back the rows already transformed
        (each statement outside a transaction auto-commits atomically)."""
        db.execute("create table nums (x integer)")
        db.execute("insert into nums values (5), (0), (7)")
        before = sorted(db.query("select x from nums").rows)
        with pytest.raises(MayBMSError):
            db.execute("update nums set x = 10 / x")
        assert sorted(db.query("select x from nums").rows) == before

    def test_failing_statement_inside_transaction_rolls_back_to_savepoint(self, db):
        """Inside BEGIN, a failing statement rolls back to its own
        savepoint: earlier statements keep their effects and COMMIT must
        not persist the failed statement's partial updates."""
        db.execute("create table nums (x integer)")
        db.execute("insert into nums values (5), (0), (7)")
        db.execute("begin")
        db.execute("insert into nums values (11)")
        with pytest.raises(MayBMSError):
            db.execute("update nums set x = 10 / x")
        db.execute("commit")
        assert sorted(db.query("select x from nums").rows) == [
            (0,), (5,), (7,), (11,),
        ]


class TestIntrospection:
    def test_sys_tables(self, db):
        db.execute(
            "create table u as select * from (pick tuples from items) s"
        )
        rows = {r[0]: r for r in db.sys_tables()}
        assert rows["items"][1] == "standard"
        assert rows["u"][1] == "urelation"

    def test_execute_script(self, db):
        results = db.execute_script(
            "create table s1 (x integer); insert into s1 values (1); "
            "select x from s1;"
        )
        assert len(results) == 3
        assert results[2].relation.single_value() == 1
