"""Differential tests for the vectorized paths of the executor.

Every plan here runs three ways -- the executor as it is, the executor
with ``_NUMPY_MIN_ROWS`` raised above every input (the Python kernels
that serve small inputs), and the reference row evaluator -- and must
produce the same rows in the same order.  Rows are compared by ``repr``
so that NaN equals NaN, ``-0.0`` differs from ``0.0`` and ``1`` differs
from ``1.0``.

The second half pins where mirrors and join build tables are cached: in
the column cell of a base-table snapshot (once per table version, shared
with ``with_schema`` aliases) and nowhere else.
"""

import math
import random

import pytest

from reference import row_engine
from repro.core.translate import u_rename
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.db import MayBMS
from repro.engine import algebra, columnar, kernels, physical, planner
from repro.engine.expressions import (
    Arithmetic,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    ConsistencyPredicate,
    IsNull,
    Literal,
    PositionRef,
)
from repro.engine.kernels import _NUMPY_MIN_ROWS, compile_vector_filter
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.storage import Table
from repro.engine.types import FLOAT, INTEGER, TEXT

NAN = float("nan")
BIG = 2**53

SCHEMA = Schema.of(
    ("i", INTEGER),  # NULL-free ints
    ("f", FLOAT),  # NULL-free floats: NaN, infinities, signed zeros
    ("n", FLOAT),  # floats with NULLs
    ("j", INTEGER),  # ints with NULLs
    ("t", TEXT),
    ("w", INTEGER),  # NULL-free ints beyond 2**53
)


def _rows(rng, count):
    floats = [NAN, -0.0, 0.0, math.inf, -math.inf, 1.5, 2.0, 3.0, -7.25]
    out = []
    for k in range(count):
        out.append(
            (
                rng.randint(-5, 5),
                rng.choice(floats) if rng.random() < 0.5 else round(rng.uniform(-5, 5), 1),
                None if rng.random() < 0.2 else rng.choice(floats),
                None if rng.random() < 0.2 else rng.randint(-3, 3),
                rng.choice(["a", "b", "c"]),
                rng.choice([BIG - 1, BIG, BIG + 1, BIG + 2, 2**60 + 1, 2**60 + 2, -BIG - 1, 7]),
            )
        )
    return out


def _base(rows, schema=SCHEMA, name="t"):
    """A base-table snapshot (``source`` set, derived structures cached)."""
    table = Table(name, schema)
    for row in rows:
        table.insert(row)
    return table.snapshot()


def _canon(relation):
    return [tuple(repr(v) for v in row) for row in relation.rows]


def three_ways(plan, monkeypatch):
    """Run ``plan`` on the executor, on the executor's Python kernels and
    on the reference; assert equal rows in equal order."""
    vectorized = _canon(planner.run(plan))
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_NUMPY_MIN_ROWS", 2**62)
        python = _canon(planner.run(plan))
    row = _canon(row_engine.run(plan))
    assert vectorized == row
    assert python == row
    return row


def notes_of(plan):
    with planner.trace_plans() as trace:
        planner.run(plan)
    (_, notes), = trace
    return [note for lines in notes.values() for note in lines]


# -- generated predicates ----------------------------------------------------------

_OPS = ["=", "<>", "!=", "<", "<=", ">", ">="]
_NUMERIC = ["i", "f", "n", "j", "w"]
_LITERALS = [0, 1, -2, 2.0, -0.0, 1.5, NAN, math.inf, BIG, BIG + 1, 2**60 + 1, float(2**60 + 2), 2**70]


def _comparison(rng):
    left = ColumnRef(rng.choice(_NUMERIC))
    if rng.random() < 0.3:
        right = ColumnRef(rng.choice(_NUMERIC))
    else:
        right = Literal(rng.choice(_LITERALS))
    if rng.random() < 0.2:
        left, right = right, left
    return Comparison(rng.choice(_OPS), left, right)


def _leaf(rng):
    pick = rng.random()
    if pick < 0.6:
        return _comparison(rng)
    if pick < 0.75:
        low, high = sorted(rng.sample([-3, -1.5, 0, 2, 2.5, BIG], 2))
        return Between(
            ColumnRef(rng.choice(_NUMERIC)), Literal(low), Literal(high), rng.random() < 0.3
        )
    if pick < 0.9:
        return Comparison(rng.choice(_OPS), ColumnRef("t"), Literal(rng.choice("abc")))
    return IsNull(ColumnRef(rng.choice(["n", "j"])), rng.random() < 0.5)


def _predicate(rng, depth=0):
    if depth < 2 and rng.random() < 0.6:
        return BoolOp(
            rng.choice(["AND", "OR"]),
            [_predicate(rng, depth + 1) for _ in range(rng.randint(2, 3))],
        )
    return _leaf(rng)


@pytest.mark.parametrize("size", [5, _NUMPY_MIN_ROWS, 40, 3000])
@pytest.mark.parametrize("seed", range(6))
def test_generated_filters_agree(seed, size, monkeypatch):
    rng = random.Random(seed * 1000 + size)
    rows = _rows(rng, size)
    for relation in (_base(rows), Relation(SCHEMA, rows)):
        for _ in range(12):
            predicate = _predicate(rng)
            three_ways(algebra.Select(algebra.RelationScan(relation), predicate), monkeypatch)


class TestFilterSemantics:
    def _select(self, rows, predicate, schema=SCHEMA):
        return algebra.Select(algebra.RelationScan(_base(rows, schema)), predicate)

    def test_band_filter_is_vectorized_and_exact(self, monkeypatch):
        rows = _rows(random.Random(1), 500)
        band = BoolOp(
            "AND",
            [
                Comparison(">", ColumnRef("f"), Literal(-1.0)),
                Comparison("<=", ColumnRef("f"), Literal(2.0)),
            ],
        )
        plan = self._select(rows, band)
        assert notes_of(plan) == ["filter: vectorized[f:float64]"]
        got = three_ways(plan, monkeypatch)
        assert got and len(got) < len(rows)

    def test_nan_sorts_above_everything(self, monkeypatch):
        """compare_values() has no 'unordered': NaN > x and x > NaN both hold."""
        schema = Schema.of(("f", FLOAT))
        rows = [(NAN,), (1.0,), (-math.inf,), (math.inf,)] * 5
        for op, expected in ((">", 20), (">=", 20), ("<", 0), ("<=", 0), ("=", 0), ("<>", 20)):
            for predicate in (
                Comparison(op, ColumnRef("f"), Literal(NAN)),
                Comparison(op, Literal(NAN), ColumnRef("f")),
            ):
                plan = self._select(rows, predicate, schema)
                assert "filter: vectorized[f:float64]" in notes_of(plan)
                assert len(three_ways(plan, monkeypatch)) == expected

    def test_negative_zero_equals_zero_and_keeps_its_sign(self, monkeypatch):
        schema = Schema.of(("f", FLOAT))
        rows = [(-0.0,), (0.0,), (1.0,)] * 6
        got = three_ways(
            self._select(rows, Comparison("=", ColumnRef("f"), Literal(0.0)), schema),
            monkeypatch,
        )
        assert got == [("-0.0",), ("0.0",)] * 6

    def test_nulls_in_the_filtered_column_fall_back(self, monkeypatch):
        rows = _rows(random.Random(2), 200)
        plan = self._select(rows, Comparison(">", ColumnRef("n"), Literal(0.0)))
        assert notes_of(plan) == ["filter: python kernels"]
        three_ways(plan, monkeypatch)

    def test_ints_beyond_2_53_compare_exactly(self, monkeypatch):
        """Python compares int with float exactly: 2**60 + 1 <= 2.0**60 is
        false, but true once the int is rounded to float64.  The INTEGER
        column is not mirrorable as float64 (values beyond 2**53), so the
        comparison stays in Python."""
        rows = _rows(random.Random(3), 200)
        plan = self._select(rows, Comparison("<=", ColumnRef("w"), Literal(2.0**60)))
        assert notes_of(plan) == ["filter: python kernels"]
        got = three_ways(plan, monkeypatch)
        kept = {row[5] for row in got}
        assert repr(BIG + 1) in kept and repr(2**60 + 1) not in kept
        # Against an int literal the same column runs as int64, exactly.
        plan = self._select(rows, Comparison("<=", ColumnRef("w"), Literal(2**60)))
        assert notes_of(plan) == ["filter: vectorized[w:int64]"]
        assert three_ways(plan, monkeypatch) == got

    def test_integer_column_against_float_literal(self, monkeypatch):
        rows = _rows(random.Random(4), 200)
        plan = self._select(rows, Comparison(">=", ColumnRef("i"), Literal(1.5)))
        assert notes_of(plan) == ["filter: vectorized[i:float64]"]
        got = three_ways(plan, monkeypatch)
        assert got and all(int(row[0]) >= 2 for row in got)

    def test_literal_too_large_for_the_mirror_falls_back(self, monkeypatch):
        rows = _rows(random.Random(5), 100)
        for predicate in (
            Comparison("<", ColumnRef("i"), Literal(2**70)),
            Comparison("<", ColumnRef("f"), Literal(BIG + 1)),
        ):
            assert compile_vector_filter(predicate, SCHEMA) is None
            three_ways(self._select(rows, predicate), monkeypatch)

    def test_text_conjunct_runs_after_the_mask(self, monkeypatch):
        rows = _rows(random.Random(6), 300)
        predicate = BoolOp(
            "AND",
            [
                Comparison("=", ColumnRef("t"), Literal("a")),
                Comparison(">", ColumnRef("i"), Literal(0)),
                IsNull(ColumnRef("j")),
            ],
        )
        plan = self._select(rows, predicate)
        assert notes_of(plan) == ["filter: vectorized[i:int64]"]
        got = three_ways(plan, monkeypatch)
        assert got and all(row[4] == "'a'" and row[3] == "None" for row in got)

    def test_text_disjunct_keeps_the_python_kernels(self, monkeypatch):
        rows = _rows(random.Random(7), 300)
        predicate = BoolOp(
            "OR",
            [
                Comparison("=", ColumnRef("t"), Literal("a")),
                Comparison(">", ColumnRef("i"), Literal(3)),
            ],
        )
        assert compile_vector_filter(predicate, SCHEMA) is None
        three_ways(self._select(rows, predicate), monkeypatch)

    def test_a_conjunct_that_did_not_compile_asks_for_no_mirror(self, monkeypatch):
        """``(n > 1 OR t = 'a') AND i = 3``: the OR has no array form, so the
        NULLs in ``n`` must not push ``i = 3`` back to the Python kernels,
        and EXPLAIN must not name a column that was never compared on
        arrays."""
        rows = _rows(random.Random(9), 300)
        predicate = BoolOp(
            "AND",
            [
                BoolOp(
                    "OR",
                    [
                        Comparison(">", ColumnRef("n"), Literal(1.0)),
                        Comparison("=", ColumnRef("t"), Literal("a")),
                    ],
                ),
                Comparison("=", ColumnRef("i"), Literal(3)),
            ],
        )
        plan = self._select(rows, predicate)
        assert notes_of(plan) == ["filter: vectorized[i:int64]"]
        got = three_ways(plan, monkeypatch)
        assert got and all(row[0] == "3" for row in got)

    def test_conjunct_that_can_raise_is_not_reordered(self, monkeypatch):
        """``10 / i > 1 AND f > 0``: the row engine divides first, on every
        row, and raises on i = 0 -- so must the batch engine."""
        rows = [(k % 3, float(k), None, None, "a", 7) for k in range(60)]
        predicate = BoolOp(
            "AND",
            [
                Comparison(">", Arithmetic("/", Literal(10), ColumnRef("i")), Literal(1)),
                Comparison(">", ColumnRef("f"), Literal(1000.0)),
            ],
        )
        assert compile_vector_filter(predicate, SCHEMA) is None

    @pytest.mark.parametrize("literal,expected", [(-100.0, "all"), (100.0, "none")])
    def test_all_pass_and_none_pass_masks(self, literal, expected, monkeypatch):
        rows = [(k, float(k % 7), None, None, "a", 7) for k in range(2500)]
        plan = self._select(rows, Comparison(">", ColumnRef("f"), Literal(literal)))
        got = three_ways(plan, monkeypatch)
        assert len(got) == (len(rows) if expected == "all" else 0)

    @pytest.mark.parametrize("count,offset", [(0, 0), (10, 0), (10, 5), (1024, 0), (1500, 700), (None, 1030)])
    def test_limit_over_a_vectorized_scan(self, count, offset, monkeypatch):
        rows = [(k, float(k % 7), None, None, "a", 7) for k in range(4000)]
        plan = algebra.Limit(
            self._select(rows, Comparison(">", ColumnRef("f"), Literal(1.0))), count, offset
        )
        kept = [k for k in range(4000) if k % 7 > 1][offset:]
        got = three_ways(plan, monkeypatch)
        assert [int(row[0]) for row in got] == (kept if count is None else kept[:count])

    def test_limit_stops_the_scan_after_the_first_batch(self, monkeypatch):
        """The mask covers the whole relation, but only the first
        BATCH_SIZE survivors are gathered when the consumer stops there."""
        rows = [(k, 1.0, None, None, "a", 7) for k in range(5000)]
        relation = _base(rows)
        scan = physical.batch_scan_filter(
            relation,
            compile_vector_filter(Comparison(">", ColumnRef("f"), Literal(0.0)), SCHEMA),
            None,
        )
        batches = scan()
        assert next(batches).length == columnar.BATCH_SIZE
        assert next(batches).length == 5000 - columnar.BATCH_SIZE
        assert next(batches, None) is None
        pulled = []

        def counting():
            for batch in scan():
                pulled.append(batch.length)
                yield batch

        limited = physical.batch_limit(counting, 10, 0)
        assert [batch.length for batch in limited()] == [10]
        assert pulled == [columnar.BATCH_SIZE]

    def test_empty_relation(self, monkeypatch):
        plan = self._select([], Comparison(">", ColumnRef("f"), Literal(0.0)))
        assert three_ways(plan, monkeypatch) == []

    def test_below_the_numpy_threshold_stays_python(self):
        rows = _rows(random.Random(8), _NUMPY_MIN_ROWS - 1)
        plan = self._select(rows, Comparison(">", ColumnRef("i"), Literal(0)))
        assert notes_of(plan) == ["filter: python kernels"]


# -- mirrors -----------------------------------------------------------------------


class TestStrictMirrors:
    def test_float_mirror_rejects_what_it_cannot_hold(self):
        assert columnar.float_array([None, 2.0], 2) is None
        assert columnar.float_array([True, 2.0], 2) is None
        assert columnar.float_array(["1", 2.0], 2) is None
        assert columnar.float_array([BIG + 1, 2.0], 2) is None
        assert columnar.float_array([-BIG - 1], 1) is None
        assert columnar.float_array([BIG, -BIG, 2, 0.5], 4).tolist() == [BIG, -BIG, 2.0, 0.5]

    def test_int_mirror_rejects_what_it_cannot_hold(self):
        assert columnar.int_array([1.5, 2], 2) is None
        assert columnar.int_array([2.0, 2], 2) is None
        assert columnar.int_array([None, 2], 2) is None
        assert columnar.int_array([True, 2], 2) is None
        assert columnar.int_array([2**63], 1) is None
        assert columnar.int_array([-(2**63) - 1], 1) is None
        exact = columnar.int_array([2**63 - 1, -(2**63), 2**60 + 1], 3)
        assert exact.tolist() == [2**63 - 1, -(2**63), 2**60 + 1]

    def test_empty_columns_mirror(self):
        assert columnar.float_array([], 0).tolist() == []
        assert columnar.int_array((), 0).tolist() == []


class _Counter:
    """Wraps a builder and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def builders(monkeypatch):
    """Counting wrappers around the three derived-structure builders."""
    counters = {
        "float": _Counter(columnar.float_array),
        "int": _Counter(columnar.int_array),
        "hash": _Counter(physical._hash_keys),
    }
    monkeypatch.setattr(columnar, "float_array", counters["float"])
    monkeypatch.setattr(columnar, "int_array", counters["int"])
    monkeypatch.setattr(physical, "_hash_keys", counters["hash"])
    return counters


@pytest.fixture
def shop():
    db = MayBMS(seed=5)
    db.execute("create table orders (okey integer, ckey integer, total float)")
    db.execute("create table customers (ckey integer, name text)")
    db.execute(
        "insert into customers values "
        + ", ".join(f"({c}, 'c{c}')" for c in range(30))
    )
    db.execute(
        "insert into orders values "
        + ", ".join(f"({o}, {o % 30}, {float(o)})" for o in range(200))
    )
    return db


_JOIN = (
    "select o.okey, c.name from orders o, customers c "
    "where o.ckey = c.ckey and o.total > 50.5 and o.total <= 120.0"
)


class TestDerivedStructureCaching:
    def test_second_statement_on_the_same_version_builds_nothing(self, shop, builders):
        first = shop.query(_JOIN).rows
        built = {name: counter.calls for name, counter in builders.items()}
        assert built == {"float": 1, "int": 0, "hash": 1}
        assert shop.query(_JOIN).rows == first
        assert shop.query(_JOIN.replace("50.5", "10.0")).rows != first
        assert {name: counter.calls for name, counter in builders.items()} == built

    def test_an_insert_builds_afresh(self, shop, builders):
        before = shop.query(_JOIN).rows
        shop.execute("insert into orders values (1000, 3, 100.0)")
        after = shop.query(_JOIN).rows
        assert len(after) == len(before) + 1
        # orders changed (new mirror); customers did not (same build table).
        assert builders["float"].calls == 2
        assert builders["hash"].calls == 1

    def test_a_pinned_version_keeps_its_own_mirror(self, shop):
        table = shop.catalog.entry("orders").table
        version, pinned, _ = table.pin_snapshot()
        try:
            old = pinned.mirror(2, "float64")
            shop.execute("insert into orders values (1000, 3, 100.0)")
            current = table.snapshot()
            assert current is not pinned
            assert len(current.mirror(2, "float64")) == len(old) + 1
            assert pinned.mirror(2, "float64") is old
        finally:
            table.unpin_snapshot(version)

    def test_aliases_share_the_cell(self, shop):
        table = shop.catalog.entry("orders").table
        base = table.snapshot()
        aliased = u_rename(URelation.t_certain(base, VariableRegistry()), "x").relation
        assert aliased is not base
        mirror = aliased.mirror(0, "int64")
        assert base.mirror(0, "int64") is mirror
        assert table.snapshot("y").mirror(0, "int64") is mirror

    def test_negative_answers_are_cached_too(self, builders):
        snapshot = _base([(None,), (1.0,)] * 20, Schema.of(("f", FLOAT)))
        assert snapshot.mirror(0, "float64") is None
        assert snapshot.mirror(0, "float64") is None
        assert builders["float"].calls == 1

    def test_nothing_is_cached_on_derived_relations(self, builders):
        derived = Relation(Schema.of(("k", INTEGER), ("f", FLOAT)), [(k, float(k)) for k in range(50)])
        assert derived.mirror(1, "float64") is not derived.mirror(1, "float64")
        probe = _base([(k % 50,) for k in range(100)], Schema.of(("p", INTEGER)), "probe")
        join = algebra.Join(
            algebra.RelationScan(probe),
            algebra.RelationScan(derived),
            Comparison("=", PositionRef(0, INTEGER), PositionRef(1, INTEGER)),
        )
        assert notes_of(join) == ["hash join: single-key, built"]
        assert notes_of(join) == ["hash join: single-key, built"]
        assert derived._columns.derived == {}


# -- joins ---------------------------------------------------------------------------


def _join_inputs(rng, probe_rows, build_rows, key_pool):
    schema_l = Schema.of(("k", INTEGER), ("g", TEXT), ("x", FLOAT))
    schema_r = Schema.of(("k2", INTEGER), ("g2", TEXT), ("y", INTEGER))
    left = [
        (rng.choice(key_pool), rng.choice("ab"), float(i)) for i in range(probe_rows)
    ]
    right = [(rng.choice(key_pool), rng.choice("ab"), i) for i in range(build_rows)]
    return schema_l, left, schema_r, right


class TestHashJoin:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("unique_build", [True, False])
    def test_single_key_with_null_and_duplicate_keys(self, seed, unique_build, monkeypatch):
        rng = random.Random(seed)
        pool = [None, 0, 1, 2, 3, 4, 5, 6, 7]
        schema_l, left, schema_r, right = _join_inputs(rng, 2500, 40, pool)
        if unique_build:
            right = [(k, "a", k) for k in range(6)] + [(None, "b", -1)]
        plan = algebra.Select(
            algebra.Join(
                algebra.RelationScan(_base(left, schema_l, "l")),
                algebra.RelationScan(_base(right, schema_r, "r")),
            ),
            BoolOp(
                "AND",
                [
                    Comparison("=", ColumnRef("k"), ColumnRef("k2")),
                    Comparison(">", ColumnRef("x"), Literal(100.0)),
                ],
            ),
        )
        notes = notes_of(plan)
        assert "hash join: single-key, built" in notes
        assert "filter: vectorized[x:float64]" in notes
        got = three_ways(plan, monkeypatch)
        assert got and all(row[0] == row[3] != "None" for row in got)

    @pytest.mark.parametrize("unique_build", [True, False])
    def test_multi_key_join_takes_the_general_path(self, unique_build, monkeypatch):
        """Several keys hash as tuples (no cached build, whatever the right
        input); a NULL in any part of a key never matches."""
        rng = random.Random(11)
        schema_l, left, schema_r, right = _join_inputs(rng, 1500, 60, [None, 0, 1, 2])
        left[::7] = [(k, None, x) for k, _, x in left[::7]]
        if unique_build:
            right = [(k, g, 0) for k in (None, 0, 1, 2) for g in (None, "a", "b")]
        else:
            right[::5] = [(k, None, y) for k, _, y in right[::5]]
        plan = algebra.Join(
            algebra.RelationScan(_base(left, schema_l, "l")),
            algebra.RelationScan(_base(right, schema_r, "r")),
            BoolOp(
                "AND",
                [
                    Comparison("=", ColumnRef("k"), ColumnRef("k2")),
                    Comparison("=", ColumnRef("g"), ColumnRef("g2")),
                ],
            ),
        )
        assert notes_of(plan) == ["hash join: 2 keys, built"]
        assert notes_of(plan) == ["hash join: 2 keys, built"]
        got = three_ways(plan, monkeypatch)
        assert got and all("None" not in (row[0], row[1]) for row in got)

    def test_nan_and_mixed_numeric_keys_match_as_in_the_row_engine(self, monkeypatch):
        """SQL equality, as the reference row evaluator applies it: NaN = NaN
        is not TRUE, so a NaN key matches nothing -- not even the very same
        NaN object on the other side -- while -0.0 = 0.0 and 1 = 1.0 match."""
        left = _base([(NAN,), (1.0,), (2.0,), (-0.0,)] * 8, Schema.of(("k", FLOAT)), "l")
        right = _base([(NAN,), (1.0,), (0.0,)], Schema.of(("k2", FLOAT)), "r")
        ints = _base([(1,), (0,), (2,)] * 8, Schema.of(("i", INTEGER)), "i")
        floats = Relation(Schema.of(("g", FLOAT), ("f", FLOAT)), [(NAN, NAN), (1.0, NAN), (1.0, 1.0)])
        for probe, build, keys, expected in (
            (left, right, [("k", "k2")], [("1.0", "1.0"), ("-0.0", "0.0")] * 8),
            (ints, right, [("i", "k2")], [("1", "1.0"), ("0", "0.0")] * 8),
            (floats, floats.with_schema(Schema.of(("g2", FLOAT), ("f2", FLOAT))),
             [("g", "g2"), ("f", "f2")], [("1.0", "1.0", "1.0", "1.0")]),
        ):
            plan = algebra.Join(
                algebra.RelationScan(probe),
                algebra.RelationScan(build),
                BoolOp("AND", [Comparison("=", ColumnRef(a), ColumnRef(b)) for a, b in keys]),
            )
            assert three_ways(plan, monkeypatch) == expected

    @pytest.mark.parametrize("filtered", [False, True])
    def test_consistency_filter_on_mirrors(self, filtered, monkeypatch):
        """A translated join whose two sides share variables: rows whose
        conditions contradict each other are dropped, whether the
        condition columns come from cached mirrors (base scans, filtered
        or not) or from the joined batch."""
        rng = random.Random(13)
        schema_l = Schema.of(("k", INTEGER), ("x", FLOAT), ("_v0", INTEGER), ("_d0", INTEGER))
        schema_r = Schema.of(("k2", INTEGER), ("_v1", INTEGER), ("_d1", INTEGER))
        left = [(i % 20, float(i), rng.randint(1, 3), rng.randint(0, 1)) for i in range(600)]
        right = [(k, rng.randint(1, 3), rng.randint(0, 1)) for k in range(20)]
        predicate = BoolOp(
            "AND",
            [
                Comparison("=", PositionRef(0, INTEGER), PositionRef(4, INTEGER)),
                ConsistencyPredicate([(2, 3, 5, 6)]),
            ],
        )
        for make in (_base, lambda rows, schema, name: Relation(schema, rows)):
            scan = algebra.RelationScan(make(left, schema_l, "l"))
            if filtered:
                scan = algebra.Select(scan, Comparison(">", ColumnRef("x"), Literal(99.5)))
            plan = algebra.Join(scan, algebra.RelationScan(make(right, schema_r, "r")), predicate)
            got = three_ways(plan, monkeypatch)
            assert 0 < len(got) < (500 if filtered else 600)
            assert all(row[2] != row[5] or row[3] == row[6] for row in got)

    def test_derived_build_side_costs_the_output_not_batches_times_build(self, monkeypatch):
        """A build side that is no base snapshot has no cached mirrors.  Its
        condition columns are converted from the joined rows -- work
        proportional to the output -- never once per probe batch over the
        whole build side (50 probe batches x 50k build rows here)."""
        n = 50_000
        schema_l = Schema.of(("k", INTEGER), ("_v0", INTEGER), ("_d0", INTEGER))
        schema_r = Schema.of(("k2", INTEGER), ("_v1", INTEGER), ("_d1", INTEGER))
        left = Relation(schema_l, [(i, 1 + i % 5, i % 2) for i in range(n)])
        right = Relation(schema_r, [(i, 1 + i % 7, i % 3 % 2) for i in range(n)])
        plan = algebra.Join(
            algebra.RelationScan(left),
            algebra.RelationScan(right),
            BoolOp(
                "AND",
                [
                    Comparison("=", PositionRef(0, INTEGER), PositionRef(3, INTEGER)),
                    ConsistencyPredicate([(1, 2, 4, 5)]),
                ],
            ),
        )
        converted = []
        int_array = columnar.int_array

        def counting(column, length):
            converted.append(length)
            return int_array(column, length)

        with monkeypatch.context() as patch:
            patch.setattr(columnar, "int_array", counting)
            got = planner.run(plan)
        assert 0 < len(got) < n
        assert sum(converted) == 4 * n  # four condition columns of n joined rows
        assert got.rows == row_engine.run(plan).rows

    def test_base_build_side_cuts_its_mirrors_once_per_run(self, monkeypatch):
        """Filtered or not, a base-snapshot build side hands every probe
        batch the same arrays: one cut per condition column per join run."""
        schema_l = Schema.of(("k", INTEGER), ("_v0", INTEGER), ("_d0", INTEGER))
        schema_r = Schema.of(("k2", INTEGER), ("y", INTEGER), ("_v1", INTEGER), ("_d1", INTEGER))
        left = Relation(schema_l, [(i % 40, 1 + i % 5, i % 2) for i in range(5000)])
        right = [(k, k, 1 + k % 3, k % 2) for k in range(40)]
        predicate = BoolOp(
            "AND",
            [
                Comparison("=", PositionRef(0, INTEGER), PositionRef(3, INTEGER)),
                ConsistencyPredicate([(1, 2, 5, 6)]),
            ],
        )
        for filtered in (False, True):
            build = algebra.RelationScan(_base(right, schema_r, "r"))
            if filtered:
                build = algebra.Select(build, Comparison(">=", ColumnRef("y"), Literal(10)))
            plan = algebra.Join(algebra.RelationScan(left), build, predicate)
            cuts = []
            int_mirror = columnar.ColumnBatch.int_mirror

            def counting(batch, position):
                mirror = int_mirror(batch, position)
                if mirror is not None:
                    cuts.append((batch.length, position))
                return mirror

            with monkeypatch.context() as patch:
                patch.setattr(columnar.ColumnBatch, "int_mirror", counting)
                got = planner.run(plan)
            assert sorted(cuts) == [(30 if filtered else 40, 2), (30 if filtered else 40, 3)]
            assert got.rows == row_engine.run(plan).rows

    def test_build_table_is_cached_on_the_base_scan(self):
        rng = random.Random(17)
        schema_l, left, schema_r, right = _join_inputs(rng, 100, 30, [0, 1, 2, 3])
        build = _base(right, schema_r, "r")
        plan = algebra.Join(
            algebra.RelationScan(Relation(schema_l, left)),
            algebra.RelationScan(build),
            Comparison("=", ColumnRef("k"), ColumnRef("k2")),
        )
        assert notes_of(plan) == ["hash join: single-key, built"]
        assert notes_of(plan) == ["hash join: single-key, build cached"]
        # A filtered build side is not the relation any more: nothing kept.
        filtered = algebra.Join(
            algebra.RelationScan(Relation(schema_l, left)),
            algebra.Select(
                algebra.RelationScan(_base(right, schema_r, "r2")),
                Comparison(">", ColumnRef("y"), Literal(3)),
            ),
            Comparison("=", ColumnRef("k"), ColumnRef("k2")),
        )
        assert notes_of(filtered)[-1] == "hash join: single-key, built"
        assert notes_of(filtered)[-1] == "hash join: single-key, built"
