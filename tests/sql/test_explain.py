"""Tests for the EXPLAIN statement (parser -> analyzer -> executor)."""

import sys
import threading

import pytest

from repro.core.confidence import dispatch
from repro.db import MayBMS
from repro.engine import algebra, planner
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import INTEGER
from repro.errors import AnalysisError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    session = MayBMS()
    session.execute("create table t (a integer, b float)")
    session.execute("insert into t values (1, 0.5), (2, 0.25), (3, 0.75)")
    return session


class TestParsing:
    def test_explain_select(self):
        statement = parse_statement("explain select a from t")
        assert isinstance(statement, ast.Explain)
        assert isinstance(statement.query, ast.SelectQuery)

    def test_explain_repair_key(self):
        statement = parse_statement("explain repair key a in t weight by b")
        assert isinstance(statement, ast.Explain)
        assert isinstance(statement.query, ast.RepairKeyRef)

    def test_explain_still_a_table_name(self, db):
        # "explain" is a reserved keyword now; a table of that name must be
        # quoted, but ordinary statements are unaffected.
        assert len(db.query("select a from t")) == 3


class TestExecution:
    def test_explain_returns_plan_relation(self, db):
        result = db.execute("explain select a from t where b > 0.3")
        relation = result.relation
        assert relation.schema.names == ["plan"]
        text = "\n".join(row[0] for row in relation.rows)
        assert "Select[" in text
        assert "Scan(" in text
        assert "fragment 1" in text

    def test_explain_reports_default_engine(self, db):
        text = "\n".join(
            row[0] for row in db.execute("explain select a from t").relation.rows
        )
        assert f"default engine: {planner.get_default_engine()}" in text

    def test_explain_reports_forced_engine(self, db):
        with planner.forced_engine("row"):
            text = "\n".join(
                row[0]
                for row in db.execute("explain select a from t").relation.rows
            )
        assert "[engine=row]" in text

    def test_explain_uncertain_query(self, db):
        result = db.execute(
            "explain select a, conf() as p from (repair key a in t weight by b) r "
            "group by a"
        )
        text = "\n".join(row[0] for row in result.relation.rows)
        assert "result: relation" in text
        assert "fragment" in text

    def test_explain_pipeline_fragments_in_execution_order(self, db):
        result = db.execute(
            "explain select a from t where b > 0.1 order by a desc limit 2"
        )
        lines = [row[0] for row in result.relation.rows]
        # One plan for WHERE + select list: the filter is the projection's
        # input (indented below it); the sort is a later fragment.
        project = next(i for i, l in enumerate(lines) if "Project[" in l)
        select = next(i for i, l in enumerate(lines) if "Select[" in l)
        sort = next(i for i, l in enumerate(lines) if "Sort" in l)
        assert project < select < sort

        def indent(line):
            return len(line) - len(line.lstrip())

        assert indent(lines[select]) > indent(lines[project])
        assert lines[project - 1].startswith("fragment 1")
        assert lines[sort - 1].startswith("fragment 2")

    def test_explain_analyzes_the_query(self, db):
        with pytest.raises(AnalysisError):
            db.execute("explain select a from no_such_table")

    def test_explain_join_shows_join_node(self, db):
        db.execute("create table u (a integer, label text)")
        db.execute("insert into u values (1, 'one'), (2, 'two')")
        result = db.execute(
            "explain select t.a, u.label from t, u where t.a = u.a"
        )
        text = "\n".join(row[0] for row in result.relation.rows)
        assert "Join" in text
        assert text.count("fragment") == 1  # join + select list: one plan


class TestVectorizedMarks:
    """EXPLAIN says, under the plan node, what its operator did."""

    @pytest.fixture
    def shop(self):
        session = MayBMS()
        session.execute("create table orders (okey integer, ckey integer, total float)")
        session.execute("create table customers (ckey integer, name text)")
        session.execute(
            "insert into customers values "
            + ", ".join(f"({c}, 'c{c}')" for c in range(20))
        )
        session.execute(
            "insert into orders values "
            + ", ".join(f"({o}, {o % 20}, {o}.5)" for o in range(100))
        )
        return session

    @staticmethod
    def _explain(session, sql):
        return [row[0] for row in session.execute("explain " + sql).relation.rows]

    def test_filter_and_join_marks(self, shop):
        if planner.get_default_engine() != planner.BATCH_ENGINE:
            pytest.skip("marks describe batch-engine operators")
        pytest.importorskip("numpy")
        sql = (
            "select o.okey, c.name from orders o, customers c "
            "where o.ckey = c.ckey and o.total > 10.0 and o.total <= 40.0"
        )
        lines = self._explain(shop, sql)
        assert any("-- filter: vectorized[total:float64]" in l for l in lines)
        assert any("-- hash join: single-key, built" in l for l in lines)
        # The marks sit under the node whose operator wrote them.
        mark = next(i for i, l in enumerate(lines) if "filter: vectorized" in l)
        assert "Select[" in lines[mark - 2] and "Scan(100 rows)" in lines[mark - 1]
        # Same table versions again: the build table is reused.
        again = self._explain(shop, sql)
        assert any("-- hash join: single-key, build cached" in l for l in again)
        shop.execute("insert into customers values (99, 'late')")
        assert any(
            "-- hash join: single-key, built" in l for l in self._explain(shop, sql)
        )

    def test_tiny_table_reports_python_kernels(self, db):
        if planner.get_default_engine() != planner.BATCH_ENGINE:
            pytest.skip("marks describe batch-engine operators")
        lines = self._explain(db, "select a from t where b > 0.3")
        assert any("-- filter: python kernels" in l for l in lines)

    def test_row_engine_has_no_marks(self, shop):
        with planner.forced_engine("row"):
            lines = self._explain(shop, "select okey from orders where total > 10.0")
        assert not any("--" in l for l in lines)


class TestConfidenceFragment:
    """The confidence fragment says how many groups the array pass
    answered, and which strategies the dispatcher ran for the others."""

    @pytest.fixture
    def shop(self):
        session = MayBMS(seed=5)
        session.execute("create table orders (okey integer, ckey integer, yr integer)")
        session.execute("create table customers (ckey integer, nation integer)")
        session.execute("create table years (yr integer)")
        session.execute(
            "insert into customers values "
            + ", ".join(f"({c}, {c % 3})" for c in range(12))
        )
        session.execute(
            "insert into orders values "
            # Every customer orders in several years: the three-way join
            # below crosses (customer x year), no tree.
            + ", ".join(f"({o}, {o % 12}, {2000 + o // 12 % 4})" for o in range(60))
        )
        session.execute("insert into years values (2000), (2001), (2002), (2003)")
        for table in ("orders", "customers", "years"):
            session.execute(
                f"create table u_{table} as select * from "
                f"(pick tuples from {table} independently with probability 0.8) x"
            )
        return session

    SAFE = (
        "select o.ckey, conf() as p from u_orders o, u_customers c "
        "where o.ckey = c.ckey group by o.ckey"
    )
    HARD = (
        "select c.nation, conf() as p from u_orders o, u_customers c, u_years y "
        "where o.ckey = c.ckey and o.yr = y.yr group by c.nation"
    )

    @staticmethod
    def _fragment(session, sql):
        lines = [row[0] for row in session.execute("explain " + sql).relation.rows]
        return lines[lines.index("confidence fragment 1 [strategy=auto]:") + 1].strip()

    def test_hierarchical_join_is_answered_by_the_array_pass(self, shop):
        pytest.importorskip("numpy")
        assert self._fragment(shop, self.SAFE) == (
            "conf: 12 group(s) via sprout[vectorized] x12"
        )
        assert self._fragment(shop, self.SAFE.replace("conf()", "aconf(0.1, 0.1)")) == (
            "aconf: 12 group(s) via sprout[vectorized] x12 (epsilon=0.1, delta=0.1)"
        )

    def test_declined_groups_show_their_dispatcher_strategies(self, shop, monkeypatch):
        fragment = self._fragment(shop, self.HARD)
        assert fragment.startswith("conf: 3 group(s) via ")
        assert "vectorized" not in fragment and "exact" in fragment
        # Without NumPy every group is declined: the old label, same groups.
        from repro.engine import columnar

        monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
        assert self._fragment(shop, self.HARD) == fragment
        without = self._fragment(shop, self.SAFE)
        assert without.startswith("conf: 12 group(s) via ") and "sprout" in without
        assert "vectorized" not in without


class TestTraceBuffersPerThread:
    """EXPLAIN's trace buffers belong to the thread that opened them.  The
    server runs one thread per connection, so a session leaving its
    EXPLAIN must not take another session's buffer with it, and neither
    session may record the other's plans."""

    def test_interleaved_sessions_keep_their_own_buffers(self):
        plan = algebra.RelationScan(Relation(Schema.of(("a", INTEGER)), [(1,), (2,)]))
        event = dispatch.ConfidenceEvent("conf", 1, (("exact", 1),))
        step = threading.Barrier(2)
        buffers = {}

        def session_a():
            with planner.trace_plans() as plans, dispatch.trace_confidence() as events:
                buffers["a"] = plans, events
                step.wait()  # A has entered
                step.wait()  # B has entered
            step.wait()  # A has left

        def session_b():
            step.wait()
            with planner.trace_plans() as plans, dispatch.trace_confidence() as events:
                buffers["b"] = plans, events
                step.wait()
                step.wait()
                planner.run(plan)
                dispatch.record_event(event)
            buffers["b_active_after"] = dispatch.tracing_active()

        threads = [threading.Thread(target=f) for f in (session_a, session_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

        (plans_a, events_a), (plans_b, events_b) = buffers["a"], buffers["b"]
        assert [traced for traced, _, _ in plans_b] == [plan]
        assert events_b == [event]
        assert plans_a == [] and events_a == []
        assert buffers["b_active_after"] is False
        assert planner._TRACES.buffers == [] and not dispatch.tracing_active()

    def test_a_thread_outside_explain_records_nothing(self):
        plan = algebra.RelationScan(Relation(Schema.of(("a", INTEGER)), [(1,)]))
        inside, done = threading.Event(), threading.Event()
        seen = {}

        def explaining():
            with planner.trace_plans() as plans, dispatch.trace_confidence() as events:
                inside.set()
                done.wait(timeout=30)
                seen["plans"], seen["events"] = list(plans), list(events)

        thread = threading.Thread(target=explaining)
        thread.start()
        assert inside.wait(timeout=30)
        assert not dispatch.tracing_active()
        planner.run(plan)
        dispatch.record_event(dispatch.ConfidenceEvent("conf", 1, (("exact", 1),)))
        done.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen == {"plans": [], "events": []}

    def test_nested_scopes_on_one_thread_both_record(self):
        plan = algebra.RelationScan(Relation(Schema.of(("a", INTEGER)), [(1,)]))
        with planner.trace_plans() as outer:
            with planner.trace_plans() as inner:
                planner.run(plan)
            planner.run(plan)
        assert len(inner) == 1 and len(outer) == 2
        assert planner._TRACES.buffers == []

    def test_concurrent_explains_over_one_store_show_only_their_own_plans(self):
        names = ("north", "south", "east", "west")  # more sessions than cores
        store = MayBMS()
        for name in names:
            store.execute(f"create table {name} (a integer, p float)")
            store.execute(f"insert into {name} values (1, 0.5), (2, 0.25)")
            store.execute(
                f"create table u_{name} as select * from "
                f"(pick tuples from {name} independently with probability p) x"
            )
        start = threading.Barrier(len(names))
        outcomes = []

        def explain_many(name):
            session = store.session(read_only=True)
            start.wait(timeout=30)
            sql = f"explain select a, conf() as c from u_{name} group by a"
            try:
                for _ in range(25):
                    lines = [row[0] for row in session.query(sql).rows]
                    fragments = [line for line in lines if "fragment" in line]
                    outcomes.append((len(fragments), lines[-1].strip()))
            except Exception as error:  # noqa: BLE001 - reported below
                outcomes.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=explain_many, args=(n,)) for n in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # One relational and one confidence fragment each, never another
        # session's.
        assert outcomes == [(2, "conf: 2 group(s) via closed-form x2")] * 100
