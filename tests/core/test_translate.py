"""Tests for the parsimonious translation of positive relational algebra.

The correctness criterion from [1]: for every positive RA query Q and
every world w,  Q(instance of D in w) = instance of (translated Q)(D) in
w.  The tests check exactly that, world by world, via the enumeration
oracle -- plus the structural properties (condition columns ride along,
no duplicate elimination, consistency filtering on joins).
"""

import pytest

from reference.confidence import row_conditions
from reference.worlds import enumerate_worlds, in_world, rows_with_conditions
from repro.core.lineage import row_clauses
from repro.core.repair_key import repair_key
from repro.core.translate import (
    consistency_predicate,
    u_join,
    u_project,
    u_rename,
    u_select,
    u_union,
)
from repro.core.urelation import URelation, atom_positions
from repro.core.variables import VariableRegistry
from repro.engine import algebra, planner
from repro.engine.expressions import (
    Arithmetic,
    BoolOp,
    ColumnRef,
    Comparison,
    Literal,
    PositionRef as _pos,
)
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, TEXT
from repro.errors import MayBMSError, PlanError, SchemaError


@pytest.fixture
def registry():
    return VariableRegistry()


@pytest.fixture
def r_and_s(registry):
    """Two small uncertain relations sharing variable x (correlated!)."""
    x = registry.fresh([0.5, 0.5], name="x")
    y = registry.fresh([0.3, 0.7], name="y")
    r = URelation.from_conditions(
        Schema.of(("a", INTEGER), ("b", TEXT)),
        [(1, "p"), (2, "q"), (2, "r")],
        [((x, 0),), ((x, 1),), ((y, 1),)],
        registry,
    )
    s = URelation.from_conditions(
        Schema.of(("a", INTEGER), ("c", FLOAT)),
        [(1, 1.5), (2, 2.5)],
        [((x, 0),), ((x, 0),)],
        registry,
    )
    return r, s, x, y


def worlds_of(registry):
    return enumerate_worlds(registry)


def assert_commutes(result: URelation, oracle, registry):
    """For every world w: result instantiated in w == oracle(w)."""
    for world, _ in worlds_of(registry):
        got = sorted(in_world(result, world).rows)
        expected = sorted(oracle(world))
        assert got == expected, f"world {world}: {got} != {expected}"


class TestSelect:
    def test_commutes_with_worlds(self, r_and_s, registry):
        r, s, x, y = r_and_s
        selected = u_select(r, Comparison("=", ColumnRef("a"), Literal(2)))

        def oracle(world):
            return [row for row in in_world(r, world) if row[0] == 2]

        assert_commutes(selected, oracle, registry)

    def test_keeps_condition_columns(self, r_and_s):
        r, *_ = r_and_s
        selected = u_select(r, Comparison(">", ColumnRef("a"), Literal(0)))
        assert selected.cond_arity == r.cond_arity
        assert len(selected) == len(r)


class TestProject:
    def test_commutes_with_worlds(self, r_and_s, registry):
        r, *_ = r_and_s
        projected = u_project(r, [(ColumnRef("b"), "b")])

        def oracle(world):
            return [(row[1],) for row in in_world(r, world)]

        assert_commutes(projected, oracle, registry)

    def test_no_duplicate_elimination(self, registry):
        x = registry.fresh([0.5, 0.5])
        r = URelation.from_conditions(
            Schema.of(("a", INTEGER), ("b", INTEGER)),
            [(1, 10), (1, 20)],
            [((x, 0),), ((x, 1),)],
            registry,
        )
        projected = u_project(r, [(ColumnRef("a"), "a")])
        assert len(projected) == 2  # both rows survive with their conditions

    def test_computed_expression(self, r_and_s, registry):
        r, *_ = r_and_s
        projected = u_project(
            r, [(Arithmetic("*", ColumnRef("a"), Literal(10)), "a10")]
        )

        def oracle(world):
            return [(row[0] * 10,) for row in in_world(r, world)]

        assert_commutes(projected, oracle, registry)


class TestJoin:
    def test_commutes_with_worlds(self, r_and_s, registry):
        r, s, *_ = r_and_s
        joined = u_join(
            u_rename(r, "r"),
            u_rename(s, "s"),
            Comparison("=", ColumnRef("a", "r"), ColumnRef("a", "s")),
        )

        def oracle(world):
            out = []
            for left in in_world(r, world):
                for right in in_world(s, world):
                    if left[0] == right[0]:
                        out.append(left + right)
            return out

        assert_commutes(joined, oracle, registry)

    def test_correlation_through_shared_variables(self, r_and_s, registry):
        """R's (2,'q') needs x=1 but S's rows need x=0: joining them on
        a=2 must yield an empty or filtered result in every world --
        the consistency filter at work."""
        r, s, x, y = r_and_s
        joined = u_join(
            u_rename(r, "r"),
            u_rename(s, "s"),
            Comparison("=", ColumnRef("a", "r"), ColumnRef("a", "s")),
        )
        # Contradictory combination (x=1 ∧ x=0) must not be present.
        for condition in row_conditions(joined):
            assert condition is not None

    def test_cross_join_arity(self, r_and_s):
        r, s, *_ = r_and_s
        joined = u_join(u_rename(r, "r"), u_rename(s, "s"))
        assert joined.payload_arity == 4
        assert joined.cond_arity == r.cond_arity + s.cond_arity

    def test_registry_mismatch_rejected(self, r_and_s):
        r, *_ = r_and_s
        other = VariableRegistry()
        s2 = URelation.t_certain(
            Relation(Schema.of(("z", INTEGER)), [(1,)]), other
        )
        with pytest.raises(PlanError):
            u_join(r, s2)

    def test_self_join_with_aliases(self, registry):
        x = registry.fresh([0.5, 0.5])
        r = URelation.from_conditions(
            Schema.of(("a", INTEGER),),
            [(1,), (2,)],
            [((x, 0),), ((x, 1),)],
            registry,
        )
        joined = u_join(r, r, None, left_alias="r1", right_alias="r2")
        # Payload (1,2) and (2,1) combine x=0 with x=1: contradictory,
        # dropped by the consistency filter at probability level -- they
        # may appear as rows only if the filter kept them, so check worlds.
        for world, _ in enumerate_worlds(registry):
            instance = sorted(in_world(joined, world).rows)
            value = 1 if world[x] == 0 else 2
            assert instance == [(value, value)]

    def test_consistency_predicate_none_when_no_conditions(self):
        assert consistency_predicate([], []) is None
        assert consistency_predicate(atom_positions(2, 1), []) is None

    def test_consistency_predicate_pair_count(self):
        predicate = consistency_predicate(atom_positions(1, 2), atom_positions(6, 3))
        # 2x3 condition pairs -> 6 (V_i ≠ V'_j ∨ D_i = D'_j) conjuncts,
        # carried as a specialized kernel expression.
        from repro.engine.expressions import ConsistencyPredicate

        assert isinstance(predicate, ConsistencyPredicate)
        assert len(predicate.pairs) == 6

    def test_consistency_predicate_matches_generic_evaluation(self):
        """The specialized predicate agrees with the generic AND-of-OR
        formulation it replaces, row by row."""
        from repro.engine.expressions import conjunction
        from repro.engine.schema import Schema as _Schema

        # Left payload at 0, its pair at 1-2; right payload at 3, pair at 4-5.
        predicate = consistency_predicate(atom_positions(1, 1), atom_positions(4, 1))
        generic = conjunction(
            [
                BoolOp(
                    "OR",
                    [
                        Comparison(
                            "<>",
                            _pos(1, INTEGER),
                            _pos(4, INTEGER),
                        ),
                        Comparison("=", _pos(2, INTEGER), _pos(5, INTEGER)),
                    ],
                )
            ]
        )
        schema = _Schema([])
        rows = [
            (0, 7, 1, 0, 7, 1),  # same var, same value: keep
            (0, 7, 1, 0, 7, 2),  # same var, different value: drop
            (0, 7, 1, 0, 8, 2),  # different vars: keep
        ]
        fast = predicate.compile(schema)
        slow = generic.compile(schema)
        for row in rows:
            assert fast(row) == slow(row)


class TestUnion:
    def test_commutes_with_worlds(self, r_and_s, registry):
        r, s, *_ = r_and_s
        r_part = u_project(r, [(ColumnRef("a"), "a")])
        s_part = u_project(s, [(ColumnRef("a"), "a")])
        unioned = u_union(r_part, s_part)

        def oracle(world):
            return (
                [(row[0],) for row in in_world(r, world)]
                + [(row[0],) for row in in_world(s, world)]
            )

        assert_commutes(unioned, oracle, registry)

    def test_pads_condition_arity(self, registry):
        x = registry.fresh([0.5, 0.5])
        narrow = URelation.t_certain(
            Relation(Schema.of(("a", INTEGER)), [(9,)]), registry
        )
        wide = URelation.from_conditions(
            Schema.of(("a", INTEGER)),
            [(1,)],
            [((x, 0),)],
            registry,
        )
        unioned = u_union(wide, narrow)
        assert unioned.cond_arity == 1
        assert len(unioned) == 2

    def test_incompatible_payloads_rejected(self, r_and_s, registry):
        r, s, *_ = r_and_s
        with pytest.raises(SchemaError):
            u_union(r, s)


class TestComposition:
    def test_three_way_pipeline_commutes(self, registry):
        """sigma(pi(R) join S) translated end-to-end equals per-world
        evaluation -- the full parsimonious-translation correctness on a
        repair-key-generated input."""
        base = Relation(
            Schema.of(("k", INTEGER), ("v", INTEGER), ("w", FLOAT)),
            [(1, 10, 1.0), (1, 20, 3.0), (2, 30, 1.0), (2, 40, 1.0)],
        )
        r = repair_key(base, ["k"], registry, weight_by="w")
        lookup = URelation.t_certain(
            Relation(Schema.of(("v", INTEGER), ("tag", TEXT)),
                     [(10, "ten"), (30, "thirty"), (40, "forty")]),
            registry,
        )
        pipeline = u_select(
            u_join(
                u_rename(u_project(r, [(ColumnRef("v"), "v")]), "l"),
                u_rename(lookup, "t"),
                Comparison("=", ColumnRef("v", "l"), ColumnRef("v", "t")),
            ),
            Comparison("<", ColumnRef("v", "l"), Literal(40)),
        )

        def oracle(world):
            out = []
            for row in in_world(r, world):
                for lrow in in_world(lookup, world):
                    if row[1] == lrow[0] and row[1] < 40:
                        out.append((row[1], lrow[0], lrow[1]))
            return out

        assert_commutes(pipeline, oracle, registry)


class TestLazyPlans:
    """The translation operators compose one plan; reading ``relation``
    runs it, once."""

    @staticmethod
    def _chain(r, s):
        selected = u_select(r, Comparison("=", ColumnRef("a"), Literal(2)))
        joined = u_join(
            selected,
            s,
            Comparison("=", ColumnRef("a", "l"), ColumnRef("a", "r")),
            left_alias="l",
            right_alias="r",
        )
        return u_project(joined, [(ColumnRef("b"), "b"), (ColumnRef("c"), "c")])

    def test_select_join_project_is_one_planner_run(self, r_and_s):
        r, s, x, y = r_and_s
        with planner.trace_plans() as trace:
            chain = self._chain(r, s)
            assert trace == []  # composing runs nothing
            assert chain.schema.names[:2] == ["b", "c"]  # nor does the schema
            assert chain.payload_schema.names == ["b", "c"]
            assert trace == []
            rows = chain.relation.rows
        assert len(trace) == 1
        plan, _ = trace[0]
        kinds = [type(node).__name__ for node in algebra.walk(plan)]
        assert kinds.count("Join") == 1 and kinds.count("Select") == 1
        assert kinds[0] == "Project"
        # (2, q) holds under x=1 and s's (2, 2.5) under x=0: inconsistent.
        assert sorted(row[:2] for row in rows) == [("r", 2.5)]

    def test_plan_runs_once_however_often_relation_is_read(self, r_and_s, monkeypatch):
        r, s, x, y = r_and_s
        runs = []
        real_run = planner.run
        monkeypatch.setattr(
            planner, "run", lambda plan, *a, **kw: runs.append(plan) or real_run(plan, *a, **kw)
        )
        chain = self._chain(r, s)
        first = chain.relation
        assert chain.relation is first
        assert len(chain) == len(first.rows)
        assert list(rows_with_conditions(chain))
        assert row_clauses(chain) and chain.condition_probabilities()
        assert len(runs) == 1

    def test_operators_on_a_read_urelation_scan_its_rows(self, r_and_s):
        r, s, x, y = r_and_s
        selected = u_select(r, Comparison("=", ColumnRef("a"), Literal(2)))
        materialized = selected.relation
        with planner.trace_plans() as trace:
            again = u_select(selected, Comparison("=", ColumnRef("b"), Literal("q")))
            assert again.relation.rows == [row for row in materialized.rows if row[1] == "q"]
        (plan, _), = trace
        scans = [n for n in algebra.walk(plan) if isinstance(n, algebra.RelationScan)]
        assert [scan.relation for scan in scans] == [materialized]

    def test_lazy_result_matches_the_eager_encoding(self, r_and_s, registry):
        r, s, x, y = r_and_s
        chain = self._chain(r, s)
        assert chain.cond_arity == r.cond_arity + s.cond_arity
        assert chain.relation.schema == chain.schema
        assert len(chain.relation.schema) == chain.payload_arity + 2 * chain.cond_arity

    def test_ill_typed_predicate_is_rejected_when_composed(self, r_and_s):
        r, s, x, y = r_and_s
        with pytest.raises(MayBMSError):
            u_select(r, Comparison("=", ColumnRef("a"), Literal("two")))
