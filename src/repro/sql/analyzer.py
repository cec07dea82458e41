"""Semantic analysis: certainty inference and the paper's restrictions.

Section 2.2 constrains the language so "query evaluation is feasible":

- standard SQL aggregates (``sum``, ``count``, ``avg``, ``min``, ``max``)
  are **not** supported on uncertain relations -- they would have
  exponentially many distinct answers across the worlds; ``esum``/
  ``ecount``/confidence computation are the supported alternatives;
- ``select distinct`` is not supported on uncertain relations (and plain
  ``UNION``, which deduplicates, is rejected the same way); duplicate
  elimination on uncertain data happens through ``possible``;
- ``repair key`` and ``pick tuples`` consume *t-certain* queries;
- uncertain subqueries may appear only in positively occurring
  ``IN`` conditions.

The analyzer classifies every query as t-certain or uncertain (the paper's
three construct classes: uncertain→t-certain via confidence computation,
t-certain→uncertain via repair-key/pick-tuples, and certainty-preserving
full SQL) and raises :class:`~repro.errors.AnalysisError` subclasses on
violations, before any execution starts.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple

from repro.engine.catalog import Catalog
from repro.engine.expressions import scalar_function_names
from repro.errors import (
    AnalysisError,
    UncertainAggregateError,
    UncertainDistinctError,
)
from repro.sql import ast_nodes as ast

#: Aggregates inherited from SQL; legal only on t-certain inputs.
STANDARD_AGGREGATES = frozenset({"sum", "count", "avg", "min", "max", "argmax"})

#: The uncertainty-aware aggregates of Section 2.2.
CONFIDENCE_AGGREGATES = frozenset({"conf", "aconf", "tconf"})
EXPECTATION_AGGREGATES = frozenset({"esum", "ecount"})
UNCERTAIN_AGGREGATES = CONFIDENCE_AGGREGATES | EXPECTATION_AGGREGATES

SCALAR_FUNCTIONS = frozenset(scalar_function_names())


def aggregate_kind(name: str) -> Optional[str]:
    """Classify a function name: "standard", "uncertain", or None (scalar)."""
    lowered = name.lower()
    if lowered in STANDARD_AGGREGATES:
        return "standard"
    if lowered in UNCERTAIN_AGGREGATES:
        return "uncertain"
    return None


def walk_expr(expr: ast.SqlExpr) -> Iterator[ast.SqlExpr]:
    """Pre-order traversal of a syntactic expression."""
    yield expr
    if isinstance(expr, ast.SqlUnary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ast.SqlBinary):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, ast.SqlIsNull):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ast.SqlInList):
        yield from walk_expr(expr.operand)
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, ast.SqlInQuery):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ast.SqlScalarSubquery):
        pass  # the nested query is a separate scope, analyzed on its own
    elif isinstance(expr, ast.SqlBetween):
        yield from walk_expr(expr.operand)
        yield from walk_expr(expr.low)
        yield from walk_expr(expr.high)
    elif isinstance(expr, ast.SqlCase):
        for condition, value in expr.branches:
            yield from walk_expr(condition)
            yield from walk_expr(value)
        if expr.default is not None:
            yield from walk_expr(expr.default)
    elif isinstance(expr, ast.SqlCast):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ast.SqlFunction):
        for arg in expr.args:
            yield from walk_expr(arg)


def aggregates_in(expr: ast.SqlExpr) -> List[ast.SqlFunction]:
    """All aggregate calls in an expression tree."""
    return [
        node
        for node in walk_expr(expr)
        if isinstance(node, ast.SqlFunction) and aggregate_kind(node.name) is not None
    ]


def referenced_tables(statement: ast.Statement) -> Tuple[Set[str], Set[str]]:
    """The ``(read, write)`` table-name sets a statement touches.

    Drives statement-scoped lock acquisition in the multi-session facade:
    read tables take shared locks, write tables exclusive locks.  Names
    are lower-cased (the catalog folds identifiers); tables that do not
    exist yet (CREATE TABLE targets) are included -- locks are by name,
    which also serializes two sessions racing to create the same table.
    """
    reads: Set[str] = set()
    writes: Set[str] = set()

    def add_expr(expr: Optional[ast.SqlExpr]) -> None:
        if expr is None:
            return
        for node in walk_expr(expr):
            if isinstance(node, (ast.SqlInQuery, ast.SqlScalarSubquery)):
                add_query(node.query)

    def add_query(query: ast.SqlQuery) -> None:
        if isinstance(query, ast.UnionQuery):
            add_query(query.left)
            add_query(query.right)
            return
        if isinstance(query, (ast.RepairKeyRef, ast.PickTuplesRef)):
            source = query.source
            if isinstance(source, ast.TableRef):
                reads.add(source.name.lower())
            else:
                add_query(source)
            add_expr(getattr(query, "weight", None))
            add_expr(getattr(query, "probability", None))
            return
        assert isinstance(query, ast.SelectQuery)
        for item in query.from_items:
            if isinstance(item, ast.TableRef):
                reads.add(item.name.lower())
            elif isinstance(item, ast.SubqueryRef):
                add_query(item.query)
            elif isinstance(item, (ast.RepairKeyRef, ast.PickTuplesRef)):
                add_query(item)
        for select_item in query.items:
            add_expr(select_item.expr)
        for group_expr in query.group_by:
            add_expr(group_expr)
        add_expr(query.where)
        add_expr(query.having)
        for order_expr, _ in query.order_by:
            add_expr(order_expr)

    if isinstance(statement, ast.CreateTable):
        writes.add(statement.name.lower())
    elif isinstance(statement, ast.CreateTableAs):
        writes.add(statement.name.lower())
        add_query(statement.query)
    elif isinstance(statement, ast.DropTable):
        writes.add(statement.name.lower())
    elif isinstance(statement, ast.InsertValues):
        writes.add(statement.table.lower())
        for row in statement.rows:
            for expr in row:
                add_expr(expr)
    elif isinstance(statement, ast.InsertQuery):
        writes.add(statement.table.lower())
        add_query(statement.query)
    elif isinstance(statement, ast.Update):
        writes.add(statement.table.lower())
        add_expr(statement.where)
        for _, expr in statement.assignments:
            add_expr(expr)
    elif isinstance(statement, ast.Delete):
        writes.add(statement.table.lower())
        add_expr(statement.where)
    elif isinstance(statement, ast.Explain):
        add_query(statement.query)
    elif isinstance(
        statement,
        (ast.SelectQuery, ast.UnionQuery, ast.RepairKeyRef, ast.PickTuplesRef),
    ):
        add_query(statement)
    # TransactionStatement / Checkpoint touch no tables; CHECKPOINT takes
    # the store gate itself.
    reads -= writes
    return reads, writes


def creates_variables(statement: ast.Statement) -> bool:
    """Does the statement contain ``repair key`` / ``pick tuples``?

    No statement path asks any more: the constructs mint into the
    statement's own scope, so read-only sessions run them like any read.
    The function stays only because the benchmark harness's tracer
    (``benchmarks/harness/layers.py``) patches it by name; it goes when
    the harness stops naming it.
    """
    found = False

    def scan_expr(expr: Optional[ast.SqlExpr]) -> None:
        if expr is None:
            return
        for node in walk_expr(expr):
            if isinstance(node, (ast.SqlInQuery, ast.SqlScalarSubquery)):
                scan_query(node.query)

    def scan_query(query: ast.SqlQuery) -> None:
        nonlocal found
        if found:
            return
        if isinstance(query, ast.UnionQuery):
            scan_query(query.left)
            scan_query(query.right)
            return
        if isinstance(query, (ast.RepairKeyRef, ast.PickTuplesRef)):
            found = True
            return
        assert isinstance(query, ast.SelectQuery)
        for item in query.from_items:
            if isinstance(item, (ast.RepairKeyRef, ast.PickTuplesRef)):
                found = True
                return
            if isinstance(item, ast.SubqueryRef):
                scan_query(item.query)
        for select_item in query.items:
            scan_expr(select_item.expr)
        scan_expr(query.where)
        scan_expr(query.having)

    if isinstance(
        statement,
        (ast.SelectQuery, ast.UnionQuery, ast.RepairKeyRef, ast.PickTuplesRef),
    ):
        scan_query(statement)
    elif isinstance(statement, (ast.CreateTableAs, ast.InsertQuery, ast.Explain)):
        scan_query(statement.query)
    return found


class Analyzer:
    """Validates statements against a catalog before execution."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- certainty inference ----------------------------------------------------
    def query_is_certain(self, query: ast.SqlQuery) -> bool:
        """Is the *result* of this query t-certain?"""
        if isinstance(query, (ast.RepairKeyRef, ast.PickTuplesRef)):
            return False
        if isinstance(query, ast.UnionQuery):
            return self.query_is_certain(query.left) and self.query_is_certain(
                query.right
            )
        assert isinstance(query, ast.SelectQuery)
        if not self._body_is_certain(query):
            # An uncertain body becomes t-certain through confidence
            # computation, expectation aggregates, or ``possible``.
            return query.possible or self._has_certifying_aggregate(query)
        return True

    def _body_is_certain(self, query: ast.SelectQuery) -> bool:
        """Is the FROM/WHERE body (before aggregation) certain?"""
        for item in query.from_items:
            if isinstance(item, (ast.RepairKeyRef, ast.PickTuplesRef)):
                return False
            if isinstance(item, ast.TableRef):
                if self.catalog.has_table(item.name) and self.catalog.entry(
                    item.name
                ).is_urelation:
                    return False
            elif isinstance(item, ast.SubqueryRef):
                if not self.query_is_certain(item.query):
                    return False
        # Uncertain IN-subqueries make the body uncertain too.
        if query.where is not None:
            for node in walk_expr(query.where):
                if isinstance(node, ast.SqlInQuery) and not self.query_is_certain(
                    node.query
                ):
                    return False
        return True

    def _has_certifying_aggregate(self, query: ast.SelectQuery) -> bool:
        for item in query.items:
            for agg in aggregates_in(item.expr):
                if agg.name in UNCERTAIN_AGGREGATES:
                    return True
        return False

    # -- validation ---------------------------------------------------------------
    def analyze_statement(self, statement: ast.Statement) -> None:
        if isinstance(
            statement,
            (ast.SelectQuery, ast.UnionQuery, ast.RepairKeyRef, ast.PickTuplesRef),
        ):
            self.analyze_query(statement)
        elif isinstance(statement, ast.CreateTableAs):
            self.analyze_query(statement.query)
        elif isinstance(statement, ast.InsertQuery):
            self.analyze_query(statement.query)
        elif isinstance(statement, ast.Explain):
            self.analyze_query(statement.query)
        # Other statements (DDL/DML over one table, CHECKPOINT, transaction
        # control) have nothing query-like to validate beyond what execution
        # checks anyway.

    def analyze_query(self, query: ast.SqlQuery) -> None:
        if isinstance(query, ast.UnionQuery):
            self.analyze_query(query.left)
            self.analyze_query(query.right)
            if not query.all and not (
                self.query_is_certain(query.left)
                and self.query_is_certain(query.right)
            ):
                raise UncertainDistinctError(
                    "UNION (with duplicate elimination) is not supported on "
                    "uncertain relations; use UNION ALL, or apply possible/conf"
                )
            return
        if isinstance(query, (ast.RepairKeyRef, ast.PickTuplesRef)):
            self._analyze_construct(query)
            return
        assert isinstance(query, ast.SelectQuery)
        self._analyze_select(query)

    def _analyze_construct(self, ref) -> None:
        source = ref.source
        if isinstance(source, ast.TableRef):
            if self.catalog.has_table(source.name) and self.catalog.entry(
                source.name
            ).is_urelation:
                construct = (
                    "repair key" if isinstance(ref, ast.RepairKeyRef) else "pick tuples"
                )
                raise AnalysisError(
                    f"{construct} requires a t-certain input, but "
                    f"{source.name!r} is a U-relation"
                )
        else:
            self.analyze_query(source)
            if not self.query_is_certain(source):
                construct = (
                    "repair key" if isinstance(ref, ast.RepairKeyRef) else "pick tuples"
                )
                raise AnalysisError(f"{construct} requires a t-certain subquery")
        if isinstance(ref, ast.RepairKeyRef) and ref.weight is not None:
            if aggregates_in(ref.weight):
                raise AnalysisError("weight by expression cannot contain aggregates")
        if isinstance(ref, ast.PickTuplesRef) and ref.probability is not None:
            if aggregates_in(ref.probability):
                raise AnalysisError(
                    "with probability expression cannot contain aggregates"
                )

    def _analyze_select(self, query: ast.SelectQuery) -> None:
        # Recurse into FROM subqueries and constructs first.
        for item in query.from_items:
            if isinstance(item, ast.SubqueryRef):
                self.analyze_query(item.query)
            elif isinstance(item, (ast.RepairKeyRef, ast.PickTuplesRef)):
                self._analyze_construct(item)
            elif isinstance(item, ast.TableRef):
                if not self.catalog.has_table(item.name):
                    raise AnalysisError(f"table {item.name!r} does not exist")

        body_certain = self._body_is_certain(query)

        # Collect aggregates from the select list.
        standard_aggs: List[ast.SqlFunction] = []
        uncertain_aggs: List[ast.SqlFunction] = []
        for item in query.items:
            for agg in aggregates_in(item.expr):
                if aggregate_kind(agg.name) == "standard":
                    standard_aggs.append(agg)
                else:
                    uncertain_aggs.append(agg)
            self._check_no_nested_aggregates(item.expr)

        if query.where is not None:
            if aggregates_in(query.where):
                raise AnalysisError("aggregates are not allowed in WHERE")
            self._check_in_subqueries(query.where)

        # Scalar subqueries anywhere in the statement must be t-certain
        # ("any *t-certain* subqueries in the conditions", Section 2.2).
        scalar_hosts: List[ast.SqlExpr] = [i.expr for i in query.items]
        scalar_hosts.extend(query.group_by)
        if query.where is not None:
            scalar_hosts.append(query.where)
        if query.having is not None:
            scalar_hosts.append(query.having)
        for expr, _ in query.order_by:
            scalar_hosts.append(expr)
        for host in scalar_hosts:
            for node in walk_expr(host):
                if isinstance(node, ast.SqlScalarSubquery):
                    self.analyze_query(node.query)
                    if not self.query_is_certain(node.query):
                        raise AnalysisError(
                            "scalar subqueries must be t-certain; apply "
                            "conf/possible/esum to the uncertain subquery first"
                        )

        if not body_certain:
            if query.distinct:
                raise UncertainDistinctError(
                    "select distinct is not supported on uncertain relations; "
                    "use the possible construct"
                )
            if standard_aggs:
                names = sorted({a.name for a in standard_aggs})
                raise UncertainAggregateError(
                    f"standard SQL aggregates {names} are not supported on "
                    "uncertain relations (exponentially many possible "
                    "answers); use esum/ecount or confidence computation"
                )
        if body_certain and uncertain_aggs:
            # Degenerate but legal: conf() over certain data is the
            # indicator function (probability 1 for present groups).
            pass

        if standard_aggs and uncertain_aggs:
            raise AnalysisError(
                "cannot mix standard aggregates with confidence/expectation "
                "aggregates in one SELECT"
            )

        tconf_aggs = [a for a in uncertain_aggs if a.name == "tconf"]
        if tconf_aggs and query.group_by:
            raise AnalysisError(
                "tconf computes per-tuple marginals and cannot be combined "
                "with GROUP BY; use conf for per-group confidence"
            )

        group_based = [a for a in uncertain_aggs if a.name != "tconf"]

        # Arity checks for the uncertainty aggregates.
        for agg in uncertain_aggs:
            self._check_aggregate_arity(agg)
        for agg in standard_aggs:
            self._check_aggregate_arity(agg)

        # Non-aggregate select items must be group-by expressions when any
        # group-based aggregation happens (standard SQL rule; MayBMS's conf
        # relies on it to define the groups).
        if query.group_by or standard_aggs or group_based:
            for item in query.items:
                if isinstance(item.expr, ast.SqlStar):
                    raise AnalysisError("SELECT * cannot be combined with GROUP BY")
                if aggregates_in(item.expr):
                    continue
                if not self._covered_by_group_by(item.expr, query.group_by):
                    raise AnalysisError(
                        f"select item {item.expr!r} must appear in GROUP BY "
                        "or be used in an aggregate"
                    )

        if query.having is not None:
            if not query.group_by:
                raise AnalysisError("HAVING requires GROUP BY")
            if not self.query_is_certain(query):
                raise AnalysisError("HAVING is only supported on t-certain results")

        if (query.order_by or query.limit is not None) and not self.query_is_certain(
            query
        ):
            raise AnalysisError(
                "ORDER BY / LIMIT are only supported on t-certain results; "
                "uncertain relations have no deterministic row order"
            )

        if query.possible and body_certain:
            # possible on certain data degenerates to DISTINCT; allowed.
            pass

        # Unknown function names fail fast.
        for item in query.items:
            for node in walk_expr(item.expr):
                if isinstance(node, ast.SqlFunction):
                    name = node.name.lower()
                    if (
                        aggregate_kind(name) is None
                        and name not in SCALAR_FUNCTIONS
                    ):
                        raise AnalysisError(f"unknown function {node.name!r}")

    def _check_aggregate_arity(self, agg: ast.SqlFunction) -> None:
        name = agg.name.lower()
        arity = len(agg.args)
        if name == "conf" and arity != 0:
            raise AnalysisError("conf() takes no arguments")
        if name == "tconf" and arity != 0:
            raise AnalysisError("tconf() takes no arguments")
        if name == "aconf":
            if arity != 2:
                raise AnalysisError("aconf(epsilon, delta) takes two arguments")
            for argument, what in zip(agg.args, ("epsilon", "delta")):
                self._check_aconf_parameter(argument, what)
        if name == "esum" and arity != 1:
            raise AnalysisError("esum(expression) takes one argument")
        if name == "ecount" and arity > 1 and not agg.star:
            raise AnalysisError("ecount() / ecount(expression) takes at most one argument")
        if name == "argmax" and arity != 2:
            raise AnalysisError("argmax(argument, value) takes two arguments")
        if name == "count" and arity > 1:
            raise AnalysisError("count takes one argument or *")
        if name in ("sum", "avg", "min", "max") and (arity != 1 or agg.star):
            raise AnalysisError(f"{name} takes exactly one argument")

    def _check_aconf_parameter(self, expr: ast.SqlExpr, what: str) -> None:
        """``aconf(ε, δ)`` parameters must be numeric literals in (0, 1).

        Validated here, at analysis time, so a bad call fails with a clear
        :class:`SqlError` before any (possibly expensive) execution starts
        instead of surfacing as a :class:`ConfidenceError` mid-query.
        """
        value = _numeric_literal_value(expr)
        if value is None:
            raise AnalysisError(
                f"aconf {what} must be a numeric literal (the DKLR "
                f"guarantee is fixed per query), got {expr!r}"
            )
        if not (0.0 < value < 1.0):
            raise AnalysisError(
                f"aconf {what} must be in the open interval (0, 1), got {value:g}"
            )

    def _check_no_nested_aggregates(self, expr: ast.SqlExpr) -> None:
        for node in walk_expr(expr):
            if isinstance(node, ast.SqlFunction) and aggregate_kind(node.name):
                for arg in node.args:
                    if aggregates_in(arg):
                        raise AnalysisError(
                            f"nested aggregate inside {node.name!r}"
                        )

    def _check_in_subqueries(self, where: ast.SqlExpr) -> None:
        """Uncertain subqueries only in *positively occurring* IN conditions.

        Track negation polarity while walking the predicate: NOT IN, or IN
        under an odd number of NOTs, is a negative occurrence.
        """

        def check(node: ast.SqlExpr, positive: bool) -> None:
            if isinstance(node, ast.SqlUnary) and node.op == "not":
                check(node.operand, not positive)
                return
            if isinstance(node, ast.SqlBinary):
                if node.op in ("and", "or"):
                    check(node.left, positive)
                    check(node.right, positive)
                    return
            if isinstance(node, ast.SqlInQuery):
                self.analyze_query(node.query)
                certain = self.query_is_certain(node.query)
                effective_positive = positive != node.negated
                if not certain and not effective_positive:
                    raise AnalysisError(
                        "uncertain subqueries may only occur positively in "
                        "IN conditions (Section 2.2)"
                    )
                if len(_query_output_arity_hint(node.query) or [0]) > 1:
                    pass  # arity validated at execution when schemas are known
                return
            # Other nodes cannot contain IN-subqueries except through their
            # children, which walk_expr would visit; recurse shallowly.
            for child in _children_of(node):
                check(child, positive)

        check(where, True)


def _numeric_literal_value(expr: ast.SqlExpr) -> Optional[float]:
    """The value of a (possibly sign-prefixed) numeric literal, else None."""
    if isinstance(expr, ast.SqlLiteral) and isinstance(expr.value, (int, float)):
        if isinstance(expr.value, bool):
            return None
        return float(expr.value)
    if isinstance(expr, ast.SqlUnary) and expr.op in ("-", "+"):
        inner = _numeric_literal_value(expr.operand)
        if inner is None:
            return None
        return -inner if expr.op == "-" else inner
    return None


def _children_of(node: ast.SqlExpr) -> Tuple[ast.SqlExpr, ...]:
    if isinstance(node, ast.SqlUnary):
        return (node.operand,)
    if isinstance(node, ast.SqlBinary):
        return (node.left, node.right)
    if isinstance(node, ast.SqlIsNull):
        return (node.operand,)
    if isinstance(node, ast.SqlInList):
        return (node.operand, *node.items)
    if isinstance(node, ast.SqlBetween):
        return (node.operand, node.low, node.high)
    if isinstance(node, ast.SqlCase):
        out: List[ast.SqlExpr] = []
        for condition, value in node.branches:
            out.extend((condition, value))
        if node.default is not None:
            out.append(node.default)
        return tuple(out)
    if isinstance(node, ast.SqlCast):
        return (node.operand,)
    if isinstance(node, ast.SqlFunction):
        return node.args
    return ()


def _query_output_arity_hint(query: ast.SqlQuery) -> Optional[List[int]]:
    """Best-effort arity of a query's select list (None when unknown,
    e.g. SELECT *)."""
    if isinstance(query, ast.SelectQuery):
        if any(isinstance(i.expr, ast.SqlStar) for i in query.items):
            return None
        return list(range(len(query.items)))
    return None


def _expr_equal(a: ast.SqlExpr, b: ast.SqlExpr) -> bool:
    """Syntactic equality modulo column-name case (dataclass equality)."""
    return a == b


# Attach as a method (kept separate for readability).
def _covered_by_group_by(
    self: Analyzer, expr: ast.SqlExpr, group_by: Tuple[ast.SqlExpr, ...]
) -> bool:
    for g in group_by:
        if _expr_equal(expr, g):
            return True
        # An unqualified column matches a qualified group-by column with
        # the same name, and vice versa (the paper's FT2 query writes
        # "group by R1.player" but selects "R1.Player").
        if isinstance(expr, ast.SqlColumn) and isinstance(g, ast.SqlColumn):
            if expr.name.lower() == g.name.lower() and (
                expr.qualifier is None
                or g.qualifier is None
                or expr.qualifier.lower() == g.qualifier.lower()
            ):
                return True
    return False


Analyzer._covered_by_group_by = _covered_by_group_by
