"""Unit tests for the columnar executor.

Covers three layers: :class:`ColumnBatch` itself, the expression kernel
compiler (:mod:`repro.engine.kernels`) including SQL NULL semantics and
the specialized consistency-filter kernel, and operator equivalence
between the executor and the reference row evaluator on hand-built
plans.
"""

import random

import pytest

from reference import ENGINES, running_on, row_engine
from repro.engine import algebra, planner
from repro.engine.columnar import (
    BATCH_SIZE,
    ColumnBatch,
    batches_of_columns,
    concat_batches,
)
from repro.engine.expressions import (
    Arithmetic,
    BoolOp,
    ColumnRef,
    Comparison,
    ConsistencyPredicate,
    Literal,
    PositionRef,
)
from repro.engine.kernels import compile_kernel
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, NULL, TEXT
from repro.errors import ExpressionError


class TestColumnBatch:
    def test_from_rows_roundtrip(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        batch = ColumnBatch.from_rows(rows, 2)
        assert batch.length == 3
        assert batch.arity == 2
        assert list(batch.rows()) == rows

    def test_empty(self):
        batch = ColumnBatch.empty(3)
        assert batch.length == 0
        assert batch.arity == 3
        assert list(batch.rows()) == []

    def test_take(self):
        batch = ColumnBatch.from_rows([(1, 10), (2, 20), (3, 30)], 2)
        taken = batch.take([2, 0, 2])
        assert list(taken.rows()) == [(3, 30), (1, 10), (3, 30)]

    def test_filter_by_mask_three_valued(self):
        batch = ColumnBatch.from_rows([(1,), (2,), (3,)], 1)
        # NULL (None) must behave as "not kept", exactly like the row
        # engine's `predicate(row) is True` test.
        filtered = batch.filter_by_mask([True, None, False])
        assert list(filtered.rows()) == [(1,)]

    def test_filter_all_true_is_zero_copy(self):
        batch = ColumnBatch.from_rows([(1,), (2,)], 1)
        assert batch.filter_by_mask([True, True]) is batch

    def test_slice_and_concat_columns(self):
        batch = ColumnBatch.from_rows([(1, "x"), (2, "y"), (3, "z")], 2)
        assert list(batch.slice(1, 3).rows()) == [(2, "y"), (3, "z")]
        wide = batch.concat_columns(ColumnBatch.from_rows([(7,), (8,), (9,)], 1))
        assert list(wide.rows()) == [(1, "x", 7), (2, "y", 8), (3, "z", 9)]

    def test_batches_of_columns_single_batch_shares_columns(self):
        columns = ([1, 2, 3], ["a", "b", "c"])
        batches = list(batches_of_columns(columns, 3))
        assert len(batches) == 1
        # Zero-copy: small scans hand the columns through untouched.
        assert batches[0].columns[0] is columns[0]

    def test_batches_of_columns_splits(self):
        n = BATCH_SIZE * 2 + 5
        columns = (list(range(n)),)
        batches = list(batches_of_columns(columns, n))
        assert [b.length for b in batches] == [BATCH_SIZE, BATCH_SIZE, 5]
        assert [row[0] for b in batches for row in b.rows()] == list(range(n))

    def test_concat_batches(self):
        a = ColumnBatch.from_rows([(1,), (2,)], 1)
        b = ColumnBatch.from_rows([(3,)], 1)
        merged = concat_batches([a, b], 1)
        assert list(merged.rows()) == [(1,), (2,), (3,)]
        assert concat_batches([], 1).length == 0


def _run_kernel(expr, schema, rows):
    kernel = compile_kernel(expr, schema)
    batch = ColumnBatch.from_rows(rows, len(schema))
    return list(kernel(batch.columns, batch.length))


def _run_rowwise(expr, schema, rows):
    evaluate = expr.compile(schema)
    return [evaluate(row) for row in rows]


class TestKernels:
    SCHEMA = Schema.of(("a", INTEGER), ("b", INTEGER), ("t", TEXT))
    ROWS = [(1, 2, "x"), (2, 2, "y"), (NULL, 5, NULL), (7, NULL, "x")]

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_comparisons_match_row_engine(self, op):
        expr = Comparison(op, ColumnRef("a"), ColumnRef("b"))
        assert _run_kernel(expr, self.SCHEMA, self.ROWS) == _run_rowwise(
            expr, self.SCHEMA, self.ROWS
        )

    def test_comparison_null_propagates(self):
        expr = Comparison("=", ColumnRef("a"), ColumnRef("b"))
        assert _run_kernel(expr, self.SCHEMA, self.ROWS)[2] is NULL

    def test_boolop_kleene(self):
        expr = BoolOp(
            "OR",
            [
                Comparison("=", ColumnRef("a"), ColumnRef("b")),
                Comparison("=", ColumnRef("t"), Literal("x")),
            ],
        )
        assert _run_kernel(expr, self.SCHEMA, self.ROWS) == _run_rowwise(
            expr, self.SCHEMA, self.ROWS
        )

    def test_arithmetic_null_propagates(self):
        expr = Arithmetic("+", ColumnRef("a"), ColumnRef("b"))
        assert _run_kernel(expr, self.SCHEMA, self.ROWS) == [3, 4, NULL, NULL]

    def test_division_by_zero_raises(self):
        schema = Schema.of(("a", INTEGER), ("b", INTEGER))
        expr = Arithmetic("/", ColumnRef("a"), ColumnRef("b"))
        with pytest.raises(ExpressionError):
            _run_kernel(expr, schema, [(4, 2), (1, 0)])

    def test_guarded_division_short_circuits_like_row_engine(self):
        """`b <> 0 AND a / b > 1` must not divide by zero: AND over an
        operand that can raise falls back to the row engine's
        short-circuit evaluation."""
        schema = Schema.of(("a", INTEGER), ("b", INTEGER))
        expr = BoolOp(
            "AND",
            [
                Comparison("<>", ColumnRef("b"), Literal(0)),
                Comparison(
                    ">", Arithmetic("/", ColumnRef("a"), ColumnRef("b")), Literal(1)
                ),
            ],
        )
        rows = [(4, 2), (1, 0), (9, 3)]
        assert _run_kernel(expr, schema, rows) == [True, False, True]

    def test_text_concat(self):
        schema = Schema.of(("t", TEXT), ("u", TEXT))
        expr = Arithmetic("+", ColumnRef("t"), ColumnRef("u"))
        assert _run_kernel(expr, schema, [("a", "b"), (NULL, "c")]) == ["ab", NULL]


class TestConsistencyKernel:
    def _wide_schema(self):
        # payload, then two condition pairs (v, d) x 2.
        return Schema.of(
            ("x", INTEGER),
            ("_v0", INTEGER), ("_d0", INTEGER),
            ("_v1", INTEGER), ("_d1", INTEGER),
        )

    def _random_rows(self, count, rng):
        rows = []
        for _ in range(count):
            rows.append(
                (
                    rng.randrange(5),
                    rng.randrange(4), rng.randrange(3),
                    rng.randrange(4), rng.randrange(3),
                )
            )
        return rows

    @pytest.mark.parametrize("count", [3, 200])
    def test_kernel_matches_row_compile(self, count):
        """The vectorized kernel (NumPy path kicks in at count=200) agrees
        with the row closure on random condition columns."""
        schema = self._wide_schema()
        predicate = ConsistencyPredicate([(1, 2, 3, 4)])
        rows = self._random_rows(count, random.Random(42))
        assert _run_kernel(predicate, schema, rows) == _run_rowwise(
            predicate, schema, rows
        )

    def test_multi_pair(self):
        schema = self._wide_schema()
        predicate = ConsistencyPredicate([(1, 2, 3, 4), (3, 4, 1, 2)])
        rows = self._random_rows(64, random.Random(7))
        assert _run_kernel(predicate, schema, rows) == _run_rowwise(
            predicate, schema, rows
        )

    def test_semantics(self):
        schema = self._wide_schema()
        predicate = ConsistencyPredicate([(1, 2, 3, 4)])
        rows = [
            (0, 3, 1, 3, 1),  # same variable, same value: keep
            (0, 3, 1, 3, 2),  # same variable, different value: drop
            (0, 3, 1, 9, 2),  # different variables: keep
        ]
        assert _run_kernel(predicate, schema, rows) == [True, False, True]


def _random_relation(rng, count):
    schema = Schema.of(("k", INTEGER), ("v", INTEGER), ("t", TEXT), qualifier="r")
    rows = [
        (
            rng.randrange(8),
            rng.randrange(100) if rng.random() > 0.1 else NULL,
            rng.choice(["a", "b", "c"]),
        )
        for _ in range(count)
    ]
    return Relation(schema, rows)


def _assert_engines_agree(plan):
    row_result = row_engine.run(plan)
    batch_result = planner.run(plan)
    # Exact row order, not just multiset equality: the executor promises
    # the reference's ordering operator by operator.
    assert batch_result.rows == row_result.rows
    assert batch_result.schema.names == row_result.schema.names


class TestOperatorEquivalence:
    def setup_method(self):
        rng = random.Random(11)
        self.r = _random_relation(rng, 150)
        schema = Schema.of(("k", INTEGER), ("w", FLOAT), qualifier="s")
        self.s = Relation(
            schema,
            [(rng.randrange(8), rng.random()) for _ in range(90)],
        )

    def test_filter_project(self):
        plan = algebra.Project(
            algebra.Select(
                algebra.RelationScan(self.r),
                Comparison(">", ColumnRef("v"), Literal(30)),
            ),
            [(ColumnRef("k"), "k"), (Arithmetic("*", ColumnRef("v"), Literal(2)), "vv")],
        )
        _assert_engines_agree(plan)

    def test_hash_join_with_residual(self):
        plan = algebra.Select(
            algebra.Join(
                algebra.RelationScan(self.r),
                algebra.RelationScan(self.s),
                Comparison("=", ColumnRef("k", "r"), ColumnRef("k", "s")),
            ),
            Comparison(">", ColumnRef("w"), Literal(0.25)),
        )
        _assert_engines_agree(plan)

    def test_nested_loop_join(self):
        plan = algebra.Join(
            algebra.RelationScan(self.r),
            algebra.RelationScan(self.s),
            Comparison("<", ColumnRef("k", "r"), ColumnRef("k", "s")),
        )
        _assert_engines_agree(plan)

    def test_cross_join(self):
        small = Relation(Schema.of(("z", INTEGER)), [(1,), (2,)])
        plan = algebra.Join(algebra.RelationScan(self.r), algebra.RelationScan(small))
        _assert_engines_agree(plan)

    def test_group_by_aggregates(self):
        plan = algebra.GroupBy(
            algebra.RelationScan(self.r),
            [(ColumnRef("k"), "k")],
            [
                algebra.AggregateSpec("count_star", None, "n"),
                algebra.AggregateSpec("sum", ColumnRef("v"), "total"),
                algebra.AggregateSpec("min", ColumnRef("t"), "lo"),
                algebra.AggregateSpec("avg", ColumnRef("v"), "mean"),
            ],
        )
        _assert_engines_agree(plan)

    def test_scalar_aggregate_over_empty_input(self):
        empty = Relation(self.r.schema, [])
        plan = algebra.GroupBy(
            algebra.RelationScan(empty),
            [],
            [
                algebra.AggregateSpec("count_star", None, "n"),
                algebra.AggregateSpec("sum", ColumnRef("v"), "total"),
            ],
        )
        _assert_engines_agree(plan)

    def test_argmax_expansion(self):
        plan = algebra.GroupBy(
            algebra.RelationScan(self.r),
            [(ColumnRef("t"), "t")],
            [algebra.AggregateSpec("argmax", ColumnRef("k"), "best", second=ColumnRef("v"))],
        )
        _assert_engines_agree(plan)

    def test_sort_distinct_limit(self):
        plan = algebra.Limit(
            algebra.Sort(
                algebra.Distinct(
                    algebra.Project(
                        algebra.RelationScan(self.r),
                        [(ColumnRef("k"), "k"), (ColumnRef("t"), "t")],
                    )
                ),
                [(ColumnRef("k"), False), (ColumnRef("t"), True)],
            ),
            count=7,
            offset=3,
        )
        _assert_engines_agree(plan)

    def test_sort_nulls_last_ascending(self):
        plan = algebra.Sort(
            algebra.RelationScan(self.r), [(ColumnRef("v"), True)]
        )
        _assert_engines_agree(plan)

    def test_union_all(self):
        left = algebra.Project(
            algebra.RelationScan(self.r), [(ColumnRef("k"), "k")]
        )
        right = algebra.Project(
            algebra.RelationScan(self.s), [(ColumnRef("k"), "k")]
        )
        _assert_engines_agree(algebra.Union(left, right))

    def test_values(self):
        plan = algebra.Values(
            Schema.of(("x", INTEGER), ("y", TEXT)),
            ((1, "a"), (2, "b")),
        )
        _assert_engines_agree(plan)

    def test_values_ragged_rows_rejected_by_both_engines(self):
        """Regression: the executor must reject malformed Values rows
        with the same SchemaError a Relation raises, not silently
        truncate them."""
        from repro.errors import SchemaError

        plan = algebra.Values(
            Schema.of(("x", INTEGER), ("y", INTEGER)), ((1,), (2,))
        )
        for engine in ENGINES:
            with running_on(engine):
                with pytest.raises(SchemaError):
                    planner.run(plan)

    def test_zero_arity_relation_keeps_row_count(self):
        """Regression: a zero-column batch still carries its row count --
        the engines must agree on scans of zero-arity relations."""
        empty_schema = Schema([])
        relation = Relation(empty_schema, [(), (), ()])
        _assert_engines_agree(algebra.RelationScan(relation))
        batch = ColumnBatch((), 3)
        assert list(batch.rows()) == [(), (), ()]

    def test_large_input_spans_batches(self):
        rng = random.Random(5)
        big = _random_relation(rng, BATCH_SIZE * 2 + 17)
        plan = algebra.Select(
            algebra.RelationScan(big),
            Comparison(">", ColumnRef("v"), Literal(20)),
        )
        _assert_engines_agree(plan)
