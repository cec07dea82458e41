"""Statement execution: the MayBMS executor.

Mirrors Section 2.4: queries are parsed, analyzed, and lowered onto the
relational substrate.  ``repair key``, ``pick tuples``, and ``possible``
are "implemented by rewriting" to the core constructs; positive relational
algebra over uncertain inputs runs through the parsimonious translation
(:mod:`repro.core.translate`); confidence computation and the expectation
aggregates run as grouped operators over the translated result.

The central value type is :class:`QueryOutput`: a t-certain
:class:`~repro.engine.relation.Relation` or an uncertain
:class:`~repro.core.urelation.URelation`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core import aggregates as agg
from repro.core.confidence import dispatch
from repro.core.confidence.dispatch import ConfidenceDispatcher, DispatchPolicy
from repro.core.pick_tuples import pick_tuples
from repro.core.repair_key import repair_key
from repro.core.translate import u_join, u_project, u_rename, u_select, u_union
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.engine import algebra, planner
from repro.engine.catalog import KIND_STANDARD, KIND_URELATION, Catalog
from repro.engine.expressions import (
    Arithmetic,
    Between,
    BoolOp,
    Case,
    Cast,
    ColumnRef,
    Comparison,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Negate,
    Not,
    PositionRef,
    conjunction,
    conjuncts_of,
)
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.transactions import Transaction, WriteAheadLog
from repro.engine.types import type_from_name
from repro.errors import (
    AnalysisError,
    MayBMSError,
    SchemaError,
    TableNotFoundError,
    TransactionError,
)
from repro.sql import ast_nodes as ast
from repro.sql.analyzer import (
    Analyzer,
    UNCERTAIN_AGGREGATES,
    aggregate_kind,
    aggregates_in,
)
from repro.sql.parser import parse_statement, parse_statements

QueryOutput = Union[Relation, URelation]


@dataclass
class StatementResult:
    """What a statement produced: a relation/U-relation for queries,
    a row count for DML, None for DDL and transaction control."""

    output: Optional[QueryOutput] = None
    row_count: Optional[int] = None

    @property
    def relation(self) -> Relation:
        if isinstance(self.output, Relation):
            return self.output
        raise AnalysisError("statement did not produce a t-certain relation")

    @property
    def urelation(self) -> URelation:
        if isinstance(self.output, URelation):
            return self.output
        raise AnalysisError("statement did not produce an uncertain relation")


class Executor:
    """Executes parsed statements against a catalog and a registry."""

    def __init__(
        self,
        catalog: Catalog,
        registry: VariableRegistry,
        rng: Optional[random.Random] = None,
        confidence_policy: Optional[DispatchPolicy] = None,
        wal: Optional[WriteAheadLog] = None,
        transaction_supplier: Optional[Callable[[], Optional[Transaction]]] = None,
        checkpoint_hook: Optional[Callable[[], Any]] = None,
        base_seed: Optional[int] = None,
    ):
        self.catalog = catalog
        self.registry = registry
        self.analyzer = Analyzer(catalog)
        self.rng = rng if rng is not None else random.Random(0)
        # One dispatcher per executor: its RNG is the session RNG, so
        # approximate confidence is reproducible under a fixed seed.
        self.dispatcher = ConfidenceDispatcher(confidence_policy, rng=self.rng)
        self._repair_counter = 0
        #: Redo destination for DML.  With a WAL, every statement outside an
        #: explicit transaction auto-commits (undo journal discarded, redo
        #: flushed); inside one, mutations join the session transaction so
        #: ROLLBACK undoes them and COMMIT makes them durable.
        self.wal = wal
        self.transaction_supplier = transaction_supplier
        #: Wired by the session facade to its durable checkpoint; None for
        #: a bare executor (CHECKPOINT is then a no-op).
        self.checkpoint_hook = checkpoint_hook
        #: Session seed for the deterministic ``aconf`` sample streams
        #: (:func:`repro.core.confidence.dklr.aconf_unit_seed`).  None for
        #: a bare executor: ``aconf`` then draws from the session RNG as
        #: before.
        self.base_seed = base_seed
        #: The running statement's variable scope: created by its first
        #: ``repair key`` / ``pick tuples`` (:meth:`_statement_scope`),
        #: dropped when the statement ends.
        self._scope: Optional[VariableRegistry] = None
        #: The MVCC pinned version set of the statement currently running
        #: (a :class:`~repro.engine.storage.PinnedVersionSet`), or None
        #: when the statement runs under table locks.  Base-table reads
        #: resolve through it (:meth:`_table_snapshot`) so every scan of
        #: the statement sees exactly the versions
        #: pinned at statement start, regardless of concurrent writers.
        self.pinned = None

    @contextmanager
    def pinned_versions(self, pinned) -> Iterator[None]:
        """Run the enclosed statement against a pinned version set (or,
        with None, against live table snapshots under whatever locks the
        session took).  Set by the session facade around every statement;
        restores the previous set on exit so EXPLAIN-triggered nested
        evaluation keeps its pins."""
        previous = self.pinned
        self.pinned = pinned
        try:
            yield
        finally:
            self.pinned = previous

    def _table_snapshot(self, name: str, entry) -> Relation:
        """The relation a base-table read of ``name`` should scan: the
        pinned version when the current statement holds one, else the
        table's live snapshot."""
        pinned = self.pinned
        if pinned is not None:
            hit = pinned.lookup(name)
            if hit is not None:
                return hit[1]
        return entry.table.snapshot()

    @contextmanager
    def write_transaction(self) -> Iterator[Transaction]:
        """The transaction a mutating statement should run in.

        Yields the session's open transaction when one exists (commit and
        rollback stay with the session); otherwise an ephemeral auto-commit
        transaction.  Either way each statement is atomic: an error
        mid-statement rolls back its partial effects -- to the statement's
        savepoint inside an explicit transaction (earlier statements keep
        their effects), or entirely in auto-commit mode.
        """
        supplied = (
            self.transaction_supplier() if self.transaction_supplier else None
        )
        if supplied is not None:
            mark = supplied.savepoint()
            try:
                yield supplied
            except BaseException:
                supplied.rollback_to(mark)
                raise
            return
        txn = Transaction(self.catalog, self.wal, self.registry)
        try:
            yield txn
        except BaseException:
            txn.rollback()
            raise
        try:
            txn.commit()
        except BaseException:
            # A commit-time durability failure (closed storage, full
            # disk) must not leave the statement's effects applied in
            # memory when they never reached the log -- the undo
            # journal is still intact because commit raises before
            # clearing it.
            txn.rollback()
            raise

    def _lower(self, expr: ast.SqlExpr) -> Expr:
        """Lower a syntactic expression, pre-evaluating any t-certain
        scalar subqueries it contains (Section 2.2 allows them in
        conditions)."""
        return lower_expression(resolve_scalar_subqueries(expr, self))

    # -- public API ---------------------------------------------------------
    def execute_sql(self, sql: str) -> StatementResult:
        """Parse, analyze, and execute one statement."""
        return self.execute(parse_statement(sql))

    def execute_script(self, sql: str) -> List[StatementResult]:
        return [self.execute(s) for s in parse_statements(sql)]

    def execute(self, statement: ast.Statement) -> StatementResult:
        self.analyzer.analyze_statement(statement)
        try:
            return self._execute(statement)
        finally:
            self._scope = None

    def _statement_scope(self) -> VariableRegistry:
        """The registry ``repair key`` / ``pick tuples`` mint into: the
        running statement's scope, created on its first mint, so a
        statement that mints nothing pays nothing."""
        if self._scope is None:
            self._scope = self.registry.scope()
        return self._scope

    def _execute(self, statement: ast.Statement) -> StatementResult:
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateTableAs):
            return self._execute_create_table_as(statement)
        if isinstance(statement, ast.DropTable):
            return self._execute_drop_table(statement)
        if isinstance(statement, ast.InsertValues):
            return self._execute_insert_values(statement)
        if isinstance(statement, ast.InsertQuery):
            return self._execute_insert_query(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.TransactionStatement):
            raise TransactionError(
                "transaction statements are handled by the MayBMS session "
                "(use MayBMS.begin/commit/rollback or execute through it)"
            )
        if isinstance(statement, ast.Checkpoint):
            if self.checkpoint_hook is not None:
                self.checkpoint_hook()
            return StatementResult()
        if isinstance(statement, ast.Explain):
            return self._execute_explain(statement)
        # A query.
        return StatementResult(output=_materialized(self.evaluate_query(statement)))

    def _execute_explain(self, statement: ast.Explain) -> StatementResult:
        """EXPLAIN <query>: run the query with plan tracing enabled and
        return the executed plan fragments as a one-column relation.

        FROM, WHERE and the select list of a query are one relational
        plan (the parsimonious translation composes it); grouping,
        ordering and subqueries that must be evaluated first add their
        own.  EXPLAIN reports each fragment in execution order and, under
        a node, what its operator did at run time (``-- filter: vectorized[...]``,
        ``-- hash join: single-key, build cached``).  Confidence-computing
        aggregates run outside the relational plans; their fragments
        report which strategy the cost-based dispatcher chose per group
        component (closed-form / sprout / exact / monte-carlo), and what
        the ws-tree recursion cost when it expanded
        (``ws-tree: N subproblems, M memo hits``).
        """
        with planner.trace_plans() as trace, dispatch.trace_confidence() as conf_trace:
            output = _materialized(self.evaluate_query(statement.query))
        kind = "U-relation" if isinstance(output, URelation) else "relation"
        lines = [f"result: {kind} ({len(output)} rows)"]
        if self.pinned is not None and len(self.pinned):
            pins = ", ".join(
                f"{name}@v{version}"
                for name, version in sorted(self.pinned.versions.items())
            )
            lines.append(f"snapshot: mvcc pinned {pins}")
        for position, (node, notes) in enumerate(trace):
            lines.append(f"fragment {position + 1}:")
            for plan_line in node.explain(notes=notes).splitlines():
                lines.append("  " + plan_line)
        for position, event in enumerate(conf_trace):
            lines.append(
                f"confidence fragment {position + 1} "
                f"[strategy={self.dispatcher.policy.strategy}]:"
            )
            lines.append("  " + event.render())
            if event.ws_tree is not None:
                lines.append("  ws-tree: %d subproblems, %d memo hits" % event.ws_tree)
        relation = Relation(
            Schema([Column("plan", type_from_name("text"))]),
            [(line,) for line in lines],
        )
        return StatementResult(output=relation)

    # -- DDL / DML ---------------------------------------------------------------
    def _execute_create_table(self, statement: ast.CreateTable) -> StatementResult:
        if statement.if_not_exists and self.catalog.has_table(statement.name):
            return StatementResult()
        schema = Schema(
            Column(name, type_from_name(type_name))
            for name, type_name in statement.columns
        )
        with self.write_transaction() as txn:
            txn.create_table(statement.name, schema, KIND_STANDARD)
        return StatementResult()

    def _execute_drop_table(self, statement: ast.DropTable) -> StatementResult:
        if statement.if_exists and not self.catalog.has_table(statement.name):
            return StatementResult()
        with self.write_transaction() as txn:
            txn.drop_table(statement.name)
        return StatementResult()

    def _execute_create_table_as(self, statement: ast.CreateTableAs) -> StatementResult:
        with self.write_transaction() as txn:
            output = self.evaluate_query(statement.query)
            if isinstance(output, Relation):
                schema = output.schema.unqualified()
                kind = KIND_STANDARD
                properties: Optional[Dict[str, Any]] = None
                rows = output.rows
            else:
                schema = output.schema.unqualified()
                kind = KIND_URELATION
                properties = {
                    "payload_arity": output.payload_arity,
                    "cond_arity": output.cond_arity,
                }
                rows = output.relation.rows
            if statement.if_not_exists and self.catalog.has_table(statement.name):
                entry = self.catalog.entry(statement.name)
            else:
                entry = txn.create_table(statement.name, schema, kind, properties)
            txn.insert_many(statement.name, rows)
        return StatementResult(row_count=len(entry.table))

    def _execute_insert_values(self, statement: ast.InsertValues) -> StatementResult:
        entry = self.catalog.entry(statement.table)
        table = entry.table
        target_positions = self._insert_positions(table.schema, statement.columns)
        empty = Schema([])
        full_rows = []
        for value_row in statement.rows:
            values = [
                self._lower(expr).compile(empty)(()) for expr in value_row
            ]
            if len(values) != len(target_positions):
                raise SchemaError(
                    f"INSERT expects {len(target_positions)} values, got {len(values)}"
                )
            full = [None] * len(table.schema)
            for position, value in zip(target_positions, values):
                full[position] = value
            full_rows.append(full)
        with self.write_transaction() as txn:
            txn.insert_many(statement.table, full_rows)
        return StatementResult(row_count=len(full_rows))

    def _insert_positions(
        self, schema: Schema, columns: Sequence[str]
    ) -> List[int]:
        if not columns:
            return list(range(len(schema)))
        return [schema.resolve(name) for name in columns]

    def _execute_insert_query(self, statement: ast.InsertQuery) -> StatementResult:
        entry = self.catalog.entry(statement.table)
        with self.write_transaction() as txn:
            output = self.evaluate_query(statement.query)
            if isinstance(output, URelation):
                if not entry.is_urelation:
                    raise AnalysisError(
                        "cannot INSERT an uncertain result into a standard table; "
                        "create the table with CREATE TABLE ... AS first"
                    )
                target_arity = int(entry.properties.get("cond_arity", 0))
                if output.cond_arity > target_arity:
                    raise SchemaError(
                        f"uncertain result needs {output.cond_arity} condition "
                        f"columns, table has {target_arity}"
                    )
                rows = output.pad_to(target_arity).relation.rows
            else:
                if entry.is_urelation:
                    raise AnalysisError(
                        "cannot INSERT a t-certain result into a U-relation; "
                        "wrap it with repair key / pick tuples first"
                    )
                rows = output.rows
            tids = txn.insert_many(statement.table, rows)
        return StatementResult(row_count=len(tids))

    def _execute_update(self, statement: ast.Update) -> StatementResult:
        entry = self.catalog.entry(statement.table)
        table = entry.table
        schema = table.schema
        predicate = (
            self._lower(statement.where).compile(schema)
            if statement.where is not None
            else (lambda row: True)
        )
        setters = [
            (schema.resolve(name), self._lower(expr).compile(schema))
            for name, expr in statement.assignments
        ]

        def transform(row: tuple) -> tuple:
            out = list(row)
            for position, fn in setters:
                out[position] = fn(row)
            return tuple(out)

        with self.write_transaction() as txn:
            touched = txn.update_where(
                statement.table, lambda row: predicate(row) is True, transform
            )
        return StatementResult(row_count=len(touched))

    def _execute_delete(self, statement: ast.Delete) -> StatementResult:
        entry = self.catalog.entry(statement.table)
        table = entry.table
        if statement.where is None:
            with self.write_transaction() as txn:
                removed = txn.truncate(statement.table)
            return StatementResult(row_count=len(removed))
        predicate = self._lower(statement.where).compile(table.schema)
        with self.write_transaction() as txn:
            count = txn.delete_where(
                statement.table, lambda row: predicate(row) is True
            )
        return StatementResult(row_count=count)

    # -- queries ---------------------------------------------------------------
    def evaluate_query(self, query: ast.SqlQuery) -> QueryOutput:
        if isinstance(query, ast.UnionQuery):
            return self._evaluate_union(query)
        if isinstance(query, ast.RepairKeyRef):
            return self._evaluate_repair_key(query)
        if isinstance(query, ast.PickTuplesRef):
            return self._evaluate_pick_tuples(query)
        assert isinstance(query, ast.SelectQuery)
        return self._evaluate_select(query)

    def _evaluate_union(self, query: ast.UnionQuery) -> QueryOutput:
        left = self.evaluate_query(query.left)
        right = self.evaluate_query(query.right)
        if isinstance(left, Relation) and isinstance(right, Relation):
            aligned = right.with_schema(
                Schema(
                    Column(lc.name, rc.type)
                    for lc, rc in zip(left.schema, right.schema)
                )
            )
            plan = algebra.Union(
                algebra.RelationScan(left.with_schema(left.schema.unqualified())),
                algebra.RelationScan(aligned),
            )
            result = planner.run(plan)
            if not query.all:
                result = result.distinct()
            return result
        # At least one side uncertain: lift both and use the translated union.
        left_u = self._as_urelation(left)
        right_u = self._as_urelation(right)
        return u_union(left_u, right_u)

    def _as_urelation(self, output: QueryOutput) -> URelation:
        if isinstance(output, URelation):
            return output
        return URelation.t_certain(output, self.registry)

    def _as_relation(self, output: QueryOutput, context: str) -> Relation:
        if isinstance(output, Relation):
            return output
        raise AnalysisError(f"{context} requires a t-certain input")

    def _evaluate_repair_key(self, query: ast.RepairKeyRef) -> URelation:
        source = self._evaluate_construct_source(query.source, "repair key")
        key_columns = [c.name for c in query.key_columns]
        weight = self._lower(query.weight) if query.weight is not None else None
        self._repair_counter += 1
        return repair_key(
            source,
            key_columns,
            self._statement_scope(),
            weight_by=weight,
            name_hint=f"rk{self._repair_counter}",
        )

    def _evaluate_pick_tuples(self, query: ast.PickTuplesRef) -> URelation:
        source = self._evaluate_construct_source(query.source, "pick tuples")
        probability = (
            self._lower(query.probability)
            if query.probability is not None
            else None
        )
        self._repair_counter += 1
        return pick_tuples(
            source,
            self._statement_scope(),
            probability=probability,
            independently=query.independently,
            name_hint=f"pt{self._repair_counter}",
        )

    def _evaluate_construct_source(
        self, source: Union[ast.TableRef, ast.SqlQuery], construct: str
    ) -> Relation:
        if isinstance(source, ast.TableRef):
            entry = self.catalog.entry(source.name)
            if entry.is_urelation:
                raise AnalysisError(
                    f"{construct} requires a t-certain input, but "
                    f"{source.name!r} is a U-relation"
                )
            return self._table_snapshot(source.name, entry)
        output = self.evaluate_query(source)
        return self._as_relation(output, construct)

    # -- SELECT ------------------------------------------------------------------
    def _evaluate_select(self, query: ast.SelectQuery) -> QueryOutput:
        body, body_certain = self._evaluate_from_where(query)

        # Expand stars against the body's payload schema.
        items = self._expand_select_items(query.items, body)

        standard_aggs: List[ast.SqlFunction] = []
        uncertain_aggs: List[ast.SqlFunction] = []
        for item in items:
            for node in aggregates_in(item.expr):
                if aggregate_kind(node.name) == "standard":
                    standard_aggs.append(node)
                else:
                    uncertain_aggs.append(node)

        if uncertain_aggs:
            result: QueryOutput = self._evaluate_uncertain_aggregation(
                query, items, body, uncertain_aggs
            )
        elif standard_aggs or query.group_by:
            relation = self._as_relation(
                self._to_output(body, body_certain), "aggregation"
            )
            result = self._evaluate_standard_aggregation(query, items, relation)
        else:
            lowered_items = [
                (self._lower(i.expr), self._item_name(i, k))
                for k, i in enumerate(items)
            ]
            # Self-joins project the same bare column name from both sides
            # (``select x.a, y.a from t x, t y``); qualify the colliding
            # output columns by their table alias so the output schema is
            # legal (duplicate bare names under distinct qualifiers).
            qualifiers = _output_qualifiers(items, [n for _, n in lowered_items])
            # ORDER BY may reference input columns that are not projected
            # (standard SQL); carry them through as hidden sort columns.
            hidden = self._hidden_sort_columns(
                query, body, lowered_items, qualifiers
            )
            projected = _project_qualified(
                body, lowered_items + hidden, qualifiers + [None] * len(hidden)
            )
            if query.possible:
                result = agg.possible(projected)
            elif body_certain:
                result = projected.payload_relation()
            else:
                result = projected
            if isinstance(result, Relation):
                if query.distinct:
                    result = result.distinct()
                result = self._order_limit(query, result)
                if hidden:
                    result = result.project_positions(
                        list(range(len(lowered_items)))
                    )
            return result

        if isinstance(result, Relation):
            if query.distinct:
                result = result.distinct()
            result = self._order_limit(query, result)
        return result

    def _hidden_sort_columns(
        self,
        query: ast.SelectQuery,
        body: URelation,
        lowered_items: List[Tuple[Expr, str]],
        qualifiers: Optional[List[Optional[str]]] = None,
    ) -> List[Tuple[Expr, str]]:
        """Sort expressions not computable from the select list become
        hidden projection columns ``_s{i}`` (stripped after ordering)."""
        if not query.order_by:
            return []
        if qualifiers is None:
            qualifiers = [None] * len(lowered_items)
        body_schema = body.payload_schema
        visible = Schema(
            Column(name, expr.infer_type(body_schema), qualifier)
            for (expr, name), qualifier in zip(lowered_items, qualifiers)
        )
        hidden: List[Tuple[Expr, str]] = []
        for position, (sort_expr, _) in enumerate(query.order_by):
            lowered = self._lower(sort_expr)
            try:
                lowered.infer_type(visible)
            except MayBMSError:
                if query.distinct or query.possible:
                    # Hidden sort columns would change what DISTINCT /
                    # possible deduplicate (PostgreSQL rejects this too).
                    raise AnalysisError(
                        "for SELECT DISTINCT / POSSIBLE, ORDER BY "
                        "expressions must appear in the select list"
                    )
                hidden.append((lowered, f"_s{position}"))
        return hidden

    def _to_output(self, body: URelation, body_certain: bool) -> QueryOutput:
        return body.payload_relation() if body_certain else body

    def _expand_select_items(
        self, items: Sequence[ast.SelectItem], body: URelation
    ) -> List[ast.SelectItem]:
        expanded: List[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.SqlStar):
                for column in body.payload_schema:
                    if item.expr.qualifier is not None and (
                        column.qualifier is None
                        or column.qualifier.lower() != item.expr.qualifier.lower()
                    ):
                        continue
                    expanded.append(
                        ast.SelectItem(
                            ast.SqlColumn(column.name, column.qualifier), None
                        )
                    )
                continue
            expanded.append(item)
        if not expanded:
            raise AnalysisError("SELECT list is empty after * expansion")
        return expanded

    def _item_name(self, item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.SqlColumn):
            return item.expr.name
        if isinstance(item.expr, ast.SqlFunction):
            return item.expr.name
        return f"column{position + 1}"

    # -- FROM/WHERE evaluation ----------------------------------------------------
    def _evaluate_from_where(self, query: ast.SelectQuery) -> Tuple[URelation, bool]:
        """Produce the joined, filtered body as a U-relation, plus a flag
        telling whether it is actually certain data."""
        body_certain = self.analyzer._body_is_certain(query)

        sources: List[URelation] = []
        for item in query.from_items:
            sources.append(self._evaluate_from_item(item))

        if not sources:
            # SELECT without FROM: a single empty row.
            dummy = Relation(Schema([Column("_dummy", type_from_name("integer"))]), [(0,)])
            body = URelation.t_certain(dummy, self.registry)
        else:
            body = sources[0]

        # Split WHERE into plain conjuncts and IN-subquery conjuncts.
        plain: List[ast.SqlExpr] = []
        in_subqueries: List[ast.SqlInQuery] = []
        if query.where is not None:
            for conjunct in _sql_conjuncts(query.where):
                if isinstance(conjunct, ast.SqlInQuery):
                    in_subqueries.append(conjunct)
                else:
                    plain.append(conjunct)

        lowered = [self._lower(e) for e in plain]
        pending: List[Expr] = list(lowered)

        def attachable(expr: Expr, schema: Schema) -> bool:
            try:
                expr.infer_type(schema)
                return True
            except Exception:
                return False

        # Fold join inputs left to right, attaching every pending conjunct
        # as soon as its columns are in scope (so the planner can hash-join).
        applied: List[Expr] = []
        current_schema = body.payload_schema
        attach_now = [e for e in pending if attachable(e, current_schema)]
        if attach_now:
            body = u_select(body, conjunction(attach_now))
            applied.extend(attach_now)
            pending = [e for e in pending if e not in attach_now]

        for source in sources[1:]:
            combined_schema = body.payload_schema.concat(source.payload_schema)
            attach_now = [e for e in pending if attachable(e, combined_schema)]
            body = u_join(body, source, conjunction(attach_now))
            pending = [e for e in pending if e not in attach_now]

        if pending:
            body = u_select(body, conjunction(pending))

        # IN-subqueries: t-certain ones become IN-lists; uncertain ones
        # become joins (positive occurrence guarantees correctness of the
        # multiset rewrite for confidence computation).
        for node in in_subqueries:
            body = self._apply_in_subquery(body, node)
            if not self.analyzer.query_is_certain(node.query):
                body_certain = False

        return body, body_certain

    def _evaluate_from_item(self, item: ast.FromItem) -> URelation:
        if isinstance(item, ast.TableRef):
            entry = self.catalog.entry(item.name)
            alias = item.alias if item.alias is not None else item.name
            if entry.is_urelation:
                urel = URelation(
                    self._table_snapshot(item.name, entry),
                    int(entry.properties["payload_arity"]),
                    int(entry.properties["cond_arity"]),
                    self.registry,
                )
            else:
                urel = URelation.t_certain(
                    self._table_snapshot(item.name, entry), self.registry
                )
            return u_rename(urel, alias)
        if isinstance(item, ast.SubqueryRef):
            output = self.evaluate_query(item.query)
            urel = self._as_urelation(output)
            return u_rename(urel, item.alias) if item.alias else urel
        if isinstance(item, ast.RepairKeyRef):
            urel = self._evaluate_repair_key(item)
            return u_rename(urel, item.alias) if item.alias else urel
        if isinstance(item, ast.PickTuplesRef):
            urel = self._evaluate_pick_tuples(item)
            return u_rename(urel, item.alias) if item.alias else urel
        raise AnalysisError(f"unsupported FROM item {item!r}")

    def _apply_in_subquery(self, body: URelation, node: ast.SqlInQuery) -> URelation:
        output = self.evaluate_query(node.query)
        operand = self._lower(node.operand)
        if isinstance(output, Relation):
            if len(output.schema) != 1:
                raise AnalysisError("IN subquery must produce exactly one column")
            values = [row[0] for row in output]
            condition: Expr = InList(operand, [Literal(v) for v in values], node.negated)
            return u_select(body, condition)
        if node.negated:
            raise AnalysisError(
                "uncertain subqueries may only occur positively in IN conditions"
            )
        if output.payload_arity != 1:
            raise AnalysisError("IN subquery must produce exactly one column")
        subquery = u_rename(output, "_in")
        # The operand references the *outer* scope only; resolve it against
        # the body's payload schema and rebase to positions so that a
        # same-named subquery column cannot shadow it.
        rebased_operand = _rebase_to_positions(operand, body.payload_schema)
        inner_ref = PositionRef(len(body.schema), subquery.payload_schema[0].type)
        predicate = Comparison("=", rebased_operand, inner_ref)
        joined = u_join(body, subquery, predicate)
        # Project back onto the outer payload columns.
        items = [
            (ColumnRef(c.name, c.qualifier), c.name)
            for c in body.payload_schema
        ]
        projected = u_project(joined, items)
        # Restore the outer qualifiers (u_project outputs unqualified names).
        return projected.with_schema(
            Schema(
                list(body.payload_schema)
                + list(projected.schema[projected.payload_arity :])
            )
        )

    # -- aggregation -----------------------------------------------------------
    def _evaluate_uncertain_aggregation(
        self,
        query: ast.SelectQuery,
        items: List[ast.SelectItem],
        body: URelation,
        uncertain_aggs: List[ast.SqlFunction],
    ) -> Relation:
        tconf_calls = [a for a in uncertain_aggs if a.name == "tconf"]
        if tconf_calls:
            return self._evaluate_tconf(items, body)

        # Pre-project the body onto the group-by expressions plus every
        # aggregate argument, so grouping happens over named columns.
        group_names: List[str] = []
        project_items: List[Tuple[Expr, str]] = []
        for position, expr in enumerate(query.group_by):
            name = f"_g{position}"
            group_names.append(name)
            project_items.append((self._lower(expr), name))

        agg_specs: List[Tuple[ast.SqlFunction, str, Optional[str]]] = []
        for position, node in enumerate(uncertain_aggs):
            value_name: Optional[str] = None
            if node.name == "esum" or (node.name == "ecount" and node.args):
                value_name = f"_a{position}"
                project_items.append((self._lower(node.args[0]), value_name))
            agg_specs.append((node, f"_r{position}", value_name))

        if not project_items:
            # conf() without group by: aggregate the whole relation; keep a
            # constant column so the projection is non-empty.
            project_items.append((Literal(1), "_g_dummy"))
            prepared = u_project(body, project_items)
            group_names = []
        else:
            prepared = u_project(body, project_items)
        # Several aggregates share the prepared body (and ecount(expr)
        # selects from it): run its plan once, here.
        _materialized(prepared)

        # Compute each aggregate and merge results on the group key.
        merged: Dict[tuple, Dict[str, Any]] = {}
        order: List[tuple] = []
        group_values: Dict[tuple, tuple] = {}
        for node, result_name, value_name in agg_specs:
            table = self._run_uncertain_aggregate(
                prepared, node, group_names, value_name, result_name
            )
            for row in table:
                key = row[: len(group_names)]
                if key not in merged:
                    merged[key] = {}
                    order.append(key)
                    group_values[key] = key
                merged[key][result_name] = row[-1]

        # Assemble the select list.
        out_columns: List[Column] = []
        out_rows: List[List[Any]] = [[] for _ in order]
        agg_by_id = {id(node): result_name for node, result_name, _ in agg_specs}

        out_names = [self._item_name(item, k) for k, item in enumerate(items)]
        out_qualifiers = _output_qualifiers(items, out_names)
        for position, item in enumerate(items):
            name = out_names[position]
            qualifier = out_qualifiers[position]
            if isinstance(item.expr, ast.SqlFunction) and aggregate_kind(
                item.expr.name
            ) == "uncertain":
                result_name = agg_by_id[id(item.expr)]
                out_columns.append(Column(name, type_from_name("float"), qualifier))
                for row_index, key in enumerate(order):
                    out_rows[row_index].append(merged[key].get(result_name, 0.0))
            else:
                # A group-by expression: find its index in the group list.
                index = self._group_index(item.expr, query.group_by)
                source_type = self._lower(item.expr).infer_type(
                    body.payload_schema
                )
                out_columns.append(Column(name, source_type, qualifier))
                for row_index, key in enumerate(order):
                    out_rows[row_index].append(group_values[key][index])

        result = Relation(Schema(out_columns), [tuple(r) for r in out_rows])

        # HAVING over the t-certain aggregation result: aggregate calls
        # that syntactically match a select-list aggregate refer to its
        # output column; other columns resolve by name against the output.
        if query.having is not None:
            having = self._rewrite_having_over_output(
                query.having, items, result.schema
            )
            predicate = having.compile(result.schema)
            result = result.filter(lambda row: predicate(row) is True)
        return result

    def _rewrite_having_over_output(
        self,
        having: ast.SqlExpr,
        items: List[ast.SelectItem],
        output_schema: Schema,
    ) -> Expr:
        """Lower a HAVING predicate against the assembled output columns.

        ``having conf() > 0.5`` matches the select item ``conf() as p`` by
        syntactic equality; ``having p > 0.5`` matches by output name.
        """

        def rewrite(node: ast.SqlExpr) -> Expr:
            for position, item in enumerate(items):
                if node == item.expr:
                    return ColumnRef(self._item_name(item, position))
            if isinstance(node, ast.SqlFunction) and aggregate_kind(node.name):
                raise AnalysisError(
                    f"HAVING aggregate {node.name!r} must also appear in "
                    "the select list"
                )
            if isinstance(node, ast.SqlBinary):
                return _combine_binary(node.op, rewrite(node.left), rewrite(node.right))
            if isinstance(node, ast.SqlUnary):
                operand = rewrite(node.operand)
                if node.op == "-":
                    return Negate(operand)
                if node.op == "+":
                    return operand
                return Not(operand)
            if isinstance(node, ast.SqlLiteral):
                return Literal(node.value)
            if isinstance(node, ast.SqlIsNull):
                return IsNull(rewrite(node.operand), node.negated)
            if isinstance(node, ast.SqlBetween):
                return Between(
                    rewrite(node.operand),
                    rewrite(node.low),
                    rewrite(node.high),
                    node.negated,
                )
            if isinstance(node, ast.SqlColumn):
                if output_schema.has(node.name):
                    return ColumnRef(node.name)
                raise AnalysisError(
                    f"HAVING column {node.name!r} must be a group-by column "
                    "or select alias"
                )
            raise AnalysisError(f"unsupported HAVING expression {node!r}")

        return rewrite(having)

    def _run_uncertain_aggregate(
        self,
        prepared: URelation,
        node: ast.SqlFunction,
        group_names: List[str],
        value_name: Optional[str],
        result_name: str,
    ) -> Relation:
        if node.name == "conf":
            return agg.conf(
                prepared,
                group_names,
                result_name,
                dispatcher=self.dispatcher,
            )
        if node.name == "aconf":
            epsilon = _literal_float(node.args[0], "aconf epsilon")
            delta = _literal_float(node.args[1], "aconf delta")
            return agg.aconf(
                prepared,
                epsilon,
                delta,
                group_names,
                result_name,
                dispatcher=self.dispatcher,
                base_seed=self.base_seed,
            )
        if node.name == "esum":
            assert value_name is not None
            return agg.esum(prepared, value_name, group_names, result_name)
        if node.name == "ecount":
            if value_name is not None:
                # ecount(expr): count rows whose expr is non-NULL -- weight
                # each row by P(condition) if value non-NULL.
                filtered = u_select(
                    prepared, IsNull(ColumnRef(value_name), negated=True)
                )
                return agg.ecount(filtered, group_names, result_name)
            return agg.ecount(prepared, group_names, result_name)
        raise AnalysisError(f"unknown uncertain aggregate {node.name!r}")

    def _group_index(
        self, expr: ast.SqlExpr, group_by: Tuple[ast.SqlExpr, ...]
    ) -> int:
        for index, g in enumerate(group_by):
            if expr == g:
                return index
            if isinstance(expr, ast.SqlColumn) and isinstance(g, ast.SqlColumn):
                if expr.name.lower() == g.name.lower() and (
                    expr.qualifier is None
                    or g.qualifier is None
                    or expr.qualifier.lower() == g.qualifier.lower()
                ):
                    return index
        raise AnalysisError(f"select item {expr!r} is not in GROUP BY")

    def _evaluate_tconf(
        self, items: List[ast.SelectItem], body: URelation
    ) -> Relation:
        # Plain items are projected under positional placeholder names so
        # that a self-join's duplicate output names (``x.a``, ``y.a``)
        # never collide; the real (alias-qualified) names are attached to
        # the assembled output below.
        out_names = [self._item_name(item, k) for k, item in enumerate(items)]
        out_qualifiers = _output_qualifiers(items, out_names)
        plain_items: List[Tuple[Expr, str]] = []
        layout: List[Tuple[str, str]] = []  # ("plain", internal) | ("tconf", "")
        for position, item in enumerate(items):
            if isinstance(item.expr, ast.SqlFunction) and item.expr.name == "tconf":
                layout.append(("tconf", ""))
            else:
                internal = f"_q{position}"
                plain_items.append((self._lower(item.expr), internal))
                layout.append(("plain", internal))
        if not plain_items:
            plain_items = [(Literal(1), "_dummy")]
        projected = u_project(body, plain_items)
        with_probability = agg.tconf(projected, result_name="_tconf")
        # Reorder into the requested select-list order.
        columns: List[Column] = []
        positions: List[int] = []
        for position, (kind, internal) in enumerate(layout):
            name = out_names[position]
            qualifier = out_qualifiers[position]
            if kind == "tconf":
                positions.append(len(with_probability.schema) - 1)
                columns.append(Column(name, type_from_name("float"), qualifier))
            else:
                index = with_probability.schema.resolve(internal)
                positions.append(index)
                columns.append(
                    Column(name, with_probability.schema[index].type, qualifier)
                )
        rows = [tuple(row[i] for i in positions) for row in with_probability]
        return Relation(Schema(columns), rows)

    def _evaluate_standard_aggregation(
        self,
        query: ast.SelectQuery,
        items: List[ast.SelectItem],
        relation: Relation,
    ) -> Relation:
        scan = algebra.RelationScan(relation)
        group_items = [
            (self._lower(expr), f"_g{i}") for i, expr in enumerate(query.group_by)
        ]
        specs: List[algebra.AggregateSpec] = []
        agg_names: Dict[int, str] = {}
        for position, item in enumerate(items):
            for node in aggregates_in(item.expr):
                name = f"_r{len(specs)}"
                agg_names[id(node)] = name
                if node.star or (node.name == "count" and not node.args):
                    specs.append(algebra.AggregateSpec("count_star", None, name))
                elif node.name == "argmax":
                    specs.append(
                        algebra.AggregateSpec(
                            "argmax",
                            self._lower(node.args[0]),
                            name,
                            second=self._lower(node.args[1]),
                        )
                    )
                else:
                    specs.append(
                        algebra.AggregateSpec(
                            node.name,
                            self._lower(node.args[0]),
                            name,
                            distinct=node.distinct,
                        )
                    )
        grouped = algebra.GroupBy(scan, group_items, specs)
        result = planner.run(grouped)

        # HAVING filters over group keys and aggregate results; rewrite the
        # predicate's aggregate calls into references to the result columns.
        if query.having is not None:
            having_expr, extra_specs = self._rewrite_post_aggregation(
                query.having, query.group_by, agg_names, len(specs)
            )
            if extra_specs:
                specs = specs + extra_specs
                grouped = algebra.GroupBy(scan, group_items, specs)
                result = planner.run(grouped)
            predicate = having_expr.compile(result.schema)
            result = result.filter(lambda row: predicate(row) is True)

        # Final projection: map each select item onto the grouped schema.
        out_names = [self._item_name(item, k) for k, item in enumerate(items)]
        out_qualifiers = _output_qualifiers(items, out_names)
        rewritten_items: List[Expr] = []
        for item in items:
            rewritten, _ = self._rewrite_post_aggregation(
                item.expr, query.group_by, agg_names, len(specs)
            )
            rewritten_items.append(rewritten)
        if not any(q is not None for q in out_qualifiers):
            plan = algebra.Project(
                algebra.RelationScan(result),
                list(zip(rewritten_items, out_names)),
            )
            return planner.run(plan)
        # Colliding self-join names: project under placeholders, then
        # attach the alias-qualified schema (see _project_qualified).
        plan = algebra.Project(
            algebra.RelationScan(result),
            [(e, f"_o{i}") for i, e in enumerate(rewritten_items)],
        )
        out = planner.run(plan)
        return out.with_schema(
            Schema(
                Column(name, out.schema[i].type, qualifier)
                for i, (name, qualifier) in enumerate(
                    zip(out_names, out_qualifiers)
                )
            )
        )

    def _rewrite_post_aggregation(
        self,
        expr: ast.SqlExpr,
        group_by: Tuple[ast.SqlExpr, ...],
        agg_names: Dict[int, str],
        next_index: int,
    ) -> Tuple[Expr, List[algebra.AggregateSpec]]:
        """Lower an expression evaluated *after* grouping: aggregate calls
        become references to their result columns, group-by expressions
        become references to their key columns."""
        extra: List[algebra.AggregateSpec] = []

        def rewrite(node: ast.SqlExpr) -> Expr:
            if isinstance(node, ast.SqlFunction) and aggregate_kind(node.name):
                if id(node) in agg_names:
                    return ColumnRef(agg_names[id(node)])
                # An aggregate appearing only in HAVING: add a spec for it.
                name = f"_r{next_index + len(extra)}"
                agg_names[id(node)] = name
                if node.star or (node.name == "count" and not node.args):
                    extra.append(algebra.AggregateSpec("count_star", None, name))
                elif node.name == "argmax":
                    extra.append(
                        algebra.AggregateSpec(
                            "argmax",
                            self._lower(node.args[0]),
                            name,
                            second=self._lower(node.args[1]),
                        )
                    )
                else:
                    extra.append(
                        algebra.AggregateSpec(
                            node.name,
                            self._lower(node.args[0]),
                            name,
                            distinct=node.distinct,
                        )
                    )
                return ColumnRef(name)
            for index, g in enumerate(group_by):
                if node == g:
                    return ColumnRef(f"_g{index}")
                if isinstance(node, ast.SqlColumn) and isinstance(g, ast.SqlColumn):
                    if node.name.lower() == g.name.lower() and (
                        node.qualifier is None
                        or g.qualifier is None
                        or node.qualifier.lower() == g.qualifier.lower()
                    ):
                        return ColumnRef(f"_g{index}")
            # Structural recursion for composite expressions.
            if isinstance(node, ast.SqlBinary):
                return _combine_binary(node.op, rewrite(node.left), rewrite(node.right))
            if isinstance(node, ast.SqlUnary):
                operand = rewrite(node.operand)
                if node.op == "-":
                    return Negate(operand)
                if node.op == "+":
                    return operand
                return Not(operand)
            if isinstance(node, ast.SqlLiteral):
                return Literal(node.value)
            if isinstance(node, ast.SqlCase):
                return Case(
                    [(rewrite(c), rewrite(v)) for c, v in node.branches],
                    rewrite(node.default) if node.default is not None else None,
                )
            if isinstance(node, ast.SqlCast):
                return Cast(rewrite(node.operand), type_from_name(node.type_name))
            if isinstance(node, ast.SqlIsNull):
                return IsNull(rewrite(node.operand), node.negated)
            if isinstance(node, ast.SqlColumn):
                raise AnalysisError(
                    f"column {node.name!r} must appear in GROUP BY or an aggregate"
                )
            raise AnalysisError(f"unsupported expression after aggregation: {node!r}")

        return rewrite(expr), extra

    # -- ordering ---------------------------------------------------------------
    def _order_limit(self, query: ast.SelectQuery, relation: Relation) -> Relation:
        if query.order_by:
            scan = algebra.RelationScan(relation)
            items = []
            for position, (expr, ascending) in enumerate(query.order_by):
                lowered = self._lower(expr)
                try:
                    lowered.infer_type(relation.schema)
                except MayBMSError:
                    # Aggregation outputs are unqualified: "order by
                    # R1.player" should match output column "player".
                    if (
                        isinstance(lowered, ColumnRef)
                        and lowered.qualifier is not None
                        and relation.schema.has(lowered.name)
                    ):
                        lowered = ColumnRef(lowered.name)
                    else:
                        # The expression lives in a hidden sort column.
                        lowered = ColumnRef(f"_s{position}")
                items.append((lowered, ascending))
            relation = planner.run(algebra.Sort(scan, items))
        if query.limit is not None or query.offset:
            relation = Relation(
                relation.schema,
                relation.rows[query.offset : (
                    None if query.limit is None else query.offset + query.limit
                )],
            )
        return relation


def _materialized(output: QueryOutput) -> QueryOutput:
    """``output`` with its rows computed.  A query's U-relation result is
    lazy until read (see :mod:`repro.core.translate`); it must be read
    before the statement ends -- inside its locks, pins, transaction and
    traces."""
    if isinstance(output, URelation):
        output.relation
    return output


def resolve_scalar_subqueries(expr: ast.SqlExpr, executor: "Executor") -> ast.SqlExpr:
    """Replace every scalar subquery in a syntactic expression by the
    literal it evaluates to.

    Subqueries have no outer references (correlation is outside the
    supported subset), so pre-evaluation is sound.  A scalar subquery must
    produce one column and at most one row; an empty result is NULL.
    """

    def rewrite(node: ast.SqlExpr) -> ast.SqlExpr:
        if isinstance(node, ast.SqlScalarSubquery):
            output = executor.evaluate_query(node.query)
            if isinstance(output, URelation):
                raise AnalysisError("scalar subqueries must be t-certain")
            if len(output.schema) != 1:
                raise AnalysisError(
                    "scalar subquery must produce exactly one column, got "
                    f"{len(output.schema)}"
                )
            if len(output) > 1:
                raise AnalysisError(
                    f"scalar subquery produced {len(output)} rows; at most one allowed"
                )
            value = output.rows[0][0] if output.rows else None
            return ast.SqlLiteral(value, output.schema[0].type.name)
        if isinstance(node, ast.SqlUnary):
            return ast.SqlUnary(node.op, rewrite(node.operand))
        if isinstance(node, ast.SqlBinary):
            return ast.SqlBinary(node.op, rewrite(node.left), rewrite(node.right))
        if isinstance(node, ast.SqlIsNull):
            return ast.SqlIsNull(rewrite(node.operand), node.negated)
        if isinstance(node, ast.SqlInList):
            return ast.SqlInList(
                rewrite(node.operand), tuple(rewrite(i) for i in node.items),
                node.negated,
            )
        if isinstance(node, ast.SqlInQuery):
            return ast.SqlInQuery(rewrite(node.operand), node.query, node.negated)
        if isinstance(node, ast.SqlBetween):
            return ast.SqlBetween(
                rewrite(node.operand), rewrite(node.low), rewrite(node.high),
                node.negated,
            )
        if isinstance(node, ast.SqlCase):
            return ast.SqlCase(
                tuple((rewrite(c), rewrite(v)) for c, v in node.branches),
                rewrite(node.default) if node.default is not None else None,
            )
        if isinstance(node, ast.SqlCast):
            return ast.SqlCast(rewrite(node.operand), node.type_name)
        if isinstance(node, ast.SqlFunction):
            return ast.SqlFunction(
                node.name, tuple(rewrite(a) for a in node.args),
                node.distinct, node.star,
            )
        return node

    return rewrite(expr)


def _rebase_to_positions(expr: Expr, schema: Schema) -> Expr:
    """Replace every ColumnRef in an engine expression by a PositionRef
    resolved against ``schema`` (used to pin references to one join side)."""
    if isinstance(expr, ColumnRef):
        position = schema.resolve(expr.name, expr.qualifier)
        return PositionRef(position, schema[position].type)
    if isinstance(expr, Arithmetic):
        return Arithmetic(
            expr.op,
            _rebase_to_positions(expr.left, schema),
            _rebase_to_positions(expr.right, schema),
        )
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            _rebase_to_positions(expr.left, schema),
            _rebase_to_positions(expr.right, schema),
        )
    if isinstance(expr, Negate):
        return Negate(_rebase_to_positions(expr.operand, schema))
    if isinstance(expr, Cast):
        return Cast(_rebase_to_positions(expr.operand, schema), expr.target)
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name, [_rebase_to_positions(a, schema) for a in expr.args]
        )
    if isinstance(expr, Literal) or isinstance(expr, PositionRef):
        return expr
    # Composite predicates rarely appear as IN operands; resolve eagerly to
    # catch unsupported shapes instead of silently mis-binding.
    refs = expr.column_refs()
    if not refs:
        return expr
    raise AnalysisError(
        f"unsupported IN operand expression {expr!r}; use a column or a "
        "scalar computation over columns"
    )


def _sql_conjuncts(expr: ast.SqlExpr) -> List[ast.SqlExpr]:
    """Flatten a WHERE clause into top-level AND-ed conjuncts."""
    if isinstance(expr, ast.SqlBinary) and expr.op == "and":
        return _sql_conjuncts(expr.left) + _sql_conjuncts(expr.right)
    return [expr]


def _output_qualifiers(
    items: Sequence[ast.SelectItem], names: Sequence[str]
) -> List[Optional[str]]:
    """Table-alias qualifiers for the output columns of a select list.

    SQL allows ``select x.a, y.a from t x, t y`` -- two output columns
    with the same bare name.  Our :class:`Schema` rejects duplicate
    *qualified* names only, so when a bare output name collides, unaliased
    qualified column references keep their table alias as the output
    qualifier (exactly how a join schema represents the same situation).
    Unique names stay unqualified, preserving the historical output shape.
    """
    counts: Dict[str, int] = {}
    for name in names:
        counts[name.lower()] = counts.get(name.lower(), 0) + 1
    qualifiers: List[Optional[str]] = []
    for item, name in zip(items, names):
        qualifier = None
        if (
            counts[name.lower()] > 1
            and item.alias is None
            and isinstance(item.expr, ast.SqlColumn)
        ):
            qualifier = item.expr.qualifier
        qualifiers.append(qualifier)
    return qualifiers


def _project_qualified(
    body: URelation,
    items: Sequence[Tuple[Expr, str]],
    qualifiers: Sequence[Optional[str]],
) -> URelation:
    """``u_project`` with table-alias qualifiers on the output columns.

    The projection plan itself needs unique column names, so when any
    qualifier is present the items are projected under positional
    placeholders and the real (qualified) schema is attached afterwards --
    the same trick ``u_join`` uses for clashing payload names.
    """
    if not any(q is not None for q in qualifiers):
        return u_project(body, list(items))
    placeholders = [(expr, f"_q{i}") for i, (expr, _) in enumerate(items)]
    projected = u_project(body, placeholders)
    columns = [
        Column(name, projected.schema[i].type, qualifiers[i])
        for i, (_, name) in enumerate(items)
    ]
    columns.extend(projected.schema[len(items):])
    return projected.with_schema(Schema(columns))


# ---------------------------------------------------------------------------
# Expression lowering (syntax -> engine expressions).
# ---------------------------------------------------------------------------


def _combine_binary(op: str, left: Expr, right: Expr) -> Expr:
    if op in ("and", "or"):
        return BoolOp(op.upper(), [left, right])
    if op in ("=", "<>", "!=", "<", "<=", ">", ">="):
        return Comparison(op, left, right)
    if op == "||":
        return Arithmetic("+", left, right)
    return Arithmetic(op, left, right)


def lower_expression(expr: ast.SqlExpr) -> Expr:
    """Translate a syntactic expression into an engine expression.

    Aggregate calls must have been handled (rewritten) by the caller;
    encountering one here is an analysis bug surfaced as an error.
    """
    if isinstance(expr, ast.SqlLiteral):
        if expr.type_name is not None:
            return Literal(expr.value, type_from_name(expr.type_name))
        return Literal(expr.value)
    if isinstance(expr, ast.SqlColumn):
        return ColumnRef(expr.name, expr.qualifier)
    if isinstance(expr, ast.SqlUnary):
        operand = lower_expression(expr.operand)
        if expr.op == "-":
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return Negate(operand)
        if expr.op == "+":
            return operand
        return Not(operand)
    if isinstance(expr, ast.SqlBinary):
        return _combine_binary(
            expr.op, lower_expression(expr.left), lower_expression(expr.right)
        )
    if isinstance(expr, ast.SqlIsNull):
        return IsNull(lower_expression(expr.operand), expr.negated)
    if isinstance(expr, ast.SqlInList):
        return InList(
            lower_expression(expr.operand),
            [lower_expression(i) for i in expr.items],
            expr.negated,
        )
    if isinstance(expr, ast.SqlBetween):
        return Between(
            lower_expression(expr.operand),
            lower_expression(expr.low),
            lower_expression(expr.high),
            expr.negated,
        )
    if isinstance(expr, ast.SqlCase):
        return Case(
            [
                (lower_expression(c), lower_expression(v))
                for c, v in expr.branches
            ],
            lower_expression(expr.default) if expr.default is not None else None,
        )
    if isinstance(expr, ast.SqlCast):
        return Cast(lower_expression(expr.operand), type_from_name(expr.type_name))
    if isinstance(expr, ast.SqlFunction):
        if aggregate_kind(expr.name) is not None:
            raise AnalysisError(
                f"aggregate {expr.name!r} is not allowed in this context"
            )
        return FunctionCall(expr.name, [lower_expression(a) for a in expr.args])
    if isinstance(expr, ast.SqlInQuery):
        raise AnalysisError(
            "IN (subquery) is only supported as a top-level conjunct of WHERE"
        )
    if isinstance(expr, ast.SqlStar):
        raise AnalysisError("* is only allowed in the select list or count(*)")
    raise AnalysisError(f"unsupported expression {expr!r}")


def _literal_float(expr: ast.SqlExpr, what: str) -> float:
    if isinstance(expr, ast.SqlLiteral) and isinstance(expr.value, (int, float)):
        return float(expr.value)
    if isinstance(expr, ast.SqlUnary) and expr.op in ("-", "+"):
        value = _literal_float(expr.operand, what)
        return -value if expr.op == "-" else value
    raise AnalysisError(f"{what} must be a numeric literal")
