"""The array pass for hierarchical ``conf()`` against two references.

Every generated U-relation is answered three ways: by
:func:`hierarchical_confidences` (through ``agg.conf`` and directly), by
the per-lineage dispatcher under the forced ``exact`` policy (which
skips the array pass), and
by possible-worlds enumeration (:mod:`reference.worlds`, at most 12
variables per group).  The exact paths must agree to 1e-12, and a group
the array pass cannot evaluate must be *declined* -- left to the
dispatcher -- never guessed.
"""

import random

import pytest

from reference.worlds import tuple_confidence_by_enumeration
from repro.core import aggregates as agg
from repro.core.confidence.columnar import hierarchical_confidences
from repro.core.confidence.dispatch import (
    STRATEGY_VECTORIZED,
    ConfidenceDispatcher,
    DispatchPolicy,
    trace_confidence,
)
from repro.core.urelation import URelation, condition_columns
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.db import MayBMS
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import INTEGER
from repro.errors import ConditionError

EXACT = 1e-12
TOP = (TOP_VARIABLE, 0)


def per_lineage():
    """A dispatcher that leaves every group to the per-lineage ws-tree:
    forced ``exact`` never enters the array pass."""
    return ConfidenceDispatcher(DispatchPolicy(strategy="exact"))


def build(registry, arity, rows):
    """A U-relation ``(g, condition columns)`` from ``(g, atoms)`` rows,
    the atoms given in column order -- column positions are the point
    here, so nothing is canonicalised."""
    schema = Schema([Column("g", INTEGER)] + condition_columns(arity))
    wide = []
    for g, atoms in rows:
        assert len(atoms) == arity
        row = [g]
        for var, value in atoms:
            row += [var, value]
        wide.append(tuple(row))
    return URelation(Relation(schema, wide), 1, arity, registry)


def answers(urel):
    """``{g: (array pass or None when declined, per-lineage, enumeration)}``."""
    projections, row_groups = agg._group_rows(urel, (0,))
    probabilities, answered = hierarchical_confidences(urel, row_groups)
    reference = dict(agg.conf(urel, ["g"], dispatcher=per_lineage()).rows)
    out = {}
    for (g,), p, ok in zip(projections, probabilities.tolist(), answered.tolist()):
        out[g] = (
            p if ok else None,
            reference[g],
            tuple_confidence_by_enumeration(urel, (g,)),
        )
    return out


def assert_agree(urel, declined=()):
    """The three ways agree; exactly the groups in ``declined`` were left
    to the dispatcher, and ``agg.conf`` answers those correctly too."""
    got = answers(urel)
    assert {g for g, (array, _, _) in got.items() if array is None} == set(declined)
    with trace_confidence() as events:
        through_conf = dict(agg.conf(urel, ["g"]).rows)
    for g, (array, reference, truth) in got.items():
        assert reference == pytest.approx(truth, abs=EXACT), g
        assert through_conf[g] == pytest.approx(truth, abs=EXACT), g
        if array is not None:
            assert array == pytest.approx(truth, abs=EXACT), g
            assert through_conf[g] == array
    vectorized = dict(events[0].strategy_counts).get(STRATEGY_VECTORIZED, 0)
    assert vectorized == len(got) - len(set(declined))
    return got


# -- shapes the array pass answers --------------------------------------------------


class TestTupleIndependentJoins:
    def test_one_column(self):
        registry = VariableRegistry()
        rows = []
        for g in range(4):
            for _ in range(1 + g):
                rows.append((g, [(registry.fresh_boolean(0.1 + 0.2 * g), 1)]))
        got = assert_agree(build(registry, 1, rows))
        assert got[0][0] == pytest.approx(0.1)
        assert got[2][0] == pytest.approx(1 - 0.5 ** 3)

    def test_two_columns_root_in_either_position(self):
        # R(x) join S(x, y): {r ^ s1, ..., r ^ sk}.  Group 0 has the root
        # in the second column (the conf_safe layout: orders, customer),
        # group 1 in the first.
        registry = VariableRegistry()
        r0, r1 = registry.fresh_boolean(0.8), registry.fresh_boolean(0.6)
        rows = [(0, [(registry.fresh_boolean(0.5), 1), (r0, 1)]) for _ in range(3)]
        rows += [(1, [(r1, 1), (registry.fresh_boolean(0.3), 1)]) for _ in range(4)]
        got = assert_agree(build(registry, 2, rows))
        assert got[0][0] == pytest.approx(0.8 * (1 - 0.5 ** 3))
        assert got[1][0] == pytest.approx(0.6 * (1 - 0.7 ** 4))

    def test_three_columns_nested(self):
        # R(x), S(x, y), T(x, y, z): t determines s determines r.
        registry = VariableRegistry()
        rows = []
        for g in range(2):
            for _ in range(2):
                r = registry.fresh_boolean(0.7)
                for _ in range(2):
                    s = registry.fresh_boolean(0.6)
                    for _ in range(1 + g):
                        t = registry.fresh_boolean(0.5)
                        rows.append((g, [(s, 1), (t, 1), (r, 1)]))
        assert_agree(build(registry, 3, rows))

    def test_several_roots_per_group(self):
        # group by nation: many customers, each with its orders.
        registry = VariableRegistry()
        rows = []
        for g in range(3):
            for _ in range(3):
                customer = registry.fresh_boolean(0.8)
                for _ in range(random.Random(g).randrange(1, 4)):
                    rows.append((g, [(registry.fresh_boolean(0.8), 1), (customer, 1)]))
        assert_agree(build(registry, 2, rows))


class TestRepairKeyAlternatives:
    def test_values_of_one_variable_add_up(self):
        registry = VariableRegistry()
        x = registry.fresh([0.2, 0.3, 0.5])
        got = assert_agree(
            build(registry, 1, [(0, [(x, 0)]), (0, [(x, 2)]), (1, [(x, 1)])]),
        )
        # Combined as independent events this would be 1 - 0.8 * 0.5 = 0.6.
        assert got[0][0] == pytest.approx(0.7)
        assert got[1][0] == pytest.approx(0.3)

    def test_one_variable_across_groups_and_under_alternatives(self):
        # The random walk: x picks the first step, y_a the second step out
        # of state a; the same x serves every group.
        registry = VariableRegistry()
        x = registry.fresh([0.5, 0.3, 0.2])
        y = [registry.fresh([0.6, 0.4]) for _ in range(3)]
        rows = []
        for final in range(2):
            for a in range(3):
                rows.append((final, [(x, a), (y[a], final)]))
        got = assert_agree(build(registry, 2, rows))
        assert got[0][0] == pytest.approx(0.6)
        assert got[1][0] == pytest.approx(0.4)

    def test_one_child_value_under_two_parent_values(self):
        # (x=0 ^ y=1) v (x=1 ^ y=1) v (x=0 ^ y=0): y determines the
        # *variable* x, not its value.
        registry = VariableRegistry()
        x, y = registry.fresh([0.3, 0.3, 0.4]), registry.fresh([0.25, 0.75])
        rows = [(0, [(x, 0), (y, 1)]), (0, [(x, 1), (y, 1)]), (0, [(x, 0), (y, 0)])]
        got = assert_agree(build(registry, 2, rows))
        assert got[0][0] == pytest.approx(0.3 * 1.0 + 0.3 * 0.75)


class TestClauseHygiene:
    def test_duplicate_clauses_count_once(self):
        registry = VariableRegistry()
        x = registry.fresh([0.4, 0.6])
        r, s = registry.fresh_boolean(0.5), registry.fresh_boolean(0.5)
        rows = [(0, [(x, 1), TOP])] * 3 + [(1, [(r, 1), (s, 1)])] * 2
        got = assert_agree(build(registry, 2, rows))
        assert got[0][0] == 0.6
        assert got[1][0] == 0.25

    def test_zero_probability_atoms(self):
        registry = VariableRegistry()
        never = registry.fresh([1.0, 0.0])
        x = registry.fresh_boolean(0.5)
        rows = [
            (0, [(never, 1), (registry.fresh_boolean(0.9), 1)]),
            (0, [(never, 1), (registry.fresh_boolean(0.9), 1)]),
            (1, [(x, 1), (never, 1)]),
            (2, [(x, 1), (never, 0)]),
            (3, [(x, 7), (never, 0)]),  # a value outside the domain
        ]
        got = assert_agree(build(registry, 2, rows))
        assert [got[g][0] for g in range(4)] == [0.0, 0.0, 0.5, 0.0]


class TestPadding:
    def test_union_of_arities(self):
        # A union of a one-table branch (padded) and a join branch: groups
        # of one branch each are answered, column order chosen per group;
        # a group holding rows of both is declined (check a).
        registry = VariableRegistry()
        fresh = registry.fresh_boolean
        r = fresh(0.7)
        rows = [
            (0, [(fresh(0.5), 1), TOP]),
            (0, [(fresh(0.4), 1), TOP]),
            (1, [(fresh(0.5), 1), (r, 1)]),
            (1, [(fresh(0.4), 1), (r, 1)]),
            (2, [TOP, (fresh(0.3), 1)]),
            (3, [(fresh(0.5), 1), TOP]),
            (3, [(fresh(0.5), 1), (fresh(0.5), 1)]),
        ]
        got = assert_agree(build(registry, 2, rows), declined=[3])
        assert got[0][0] == pytest.approx(0.7)
        assert got[2][0] == 0.3

    def test_wider_clause_absorbed_by_a_padded_one_is_declined(self):
        # x v (x ^ y) = x: what mixing padding with atoms can hide.
        registry = VariableRegistry()
        x, y = registry.fresh_boolean(0.5), registry.fresh_boolean(0.5)
        got = assert_agree(
            build(registry, 2, [(0, [(x, 1), TOP]), (0, [(x, 1), (y, 1)])]),
            declined=[0],
        )
        assert got[0][1] == pytest.approx(0.5)

    def test_all_top_column_is_exact(self):
        registry = VariableRegistry()
        rows = [
            (g, [TOP, (registry.fresh_boolean(0.1 * (1 + g)), 1), TOP])
            for g in range(5)
            for _ in range(1 + g % 2)
        ]
        got = assert_agree(build(registry, 3, rows))
        assert got[0][0] == 0.1  # not 1 - (1 - 0.1)
        assert got[2][0] == pytest.approx(0.3)

    def test_certain_rows(self):
        registry = VariableRegistry()
        got = assert_agree(build(registry, 1, [(0, [TOP]), (0, [TOP])]))
        assert got[0][0] == 1.0

    def test_top_atoms_are_true_whatever_their_value(self):
        registry = VariableRegistry()
        x = registry.fresh_boolean(0.5)
        urel = build(registry, 2, [(0, [(x, 1), TOP]), (0, [(x, 1), TOP])])
        rows = list(urel.relation.rows)
        rows[1] = rows[1][:4] + (3,) + rows[1][5:]  # (TOP, 3)
        urel = URelation(Relation(urel.relation.schema, rows), 1, 2, registry)
        assert dict(agg.conf(urel, ["g"]).rows) == {0: 0.5}
        assert urel.condition_probabilities() == [0.5, 0.5]


class TestEdges:
    def test_empty_input(self):
        registry = VariableRegistry()
        urel = build(registry, 2, [])
        assert agg.conf(urel, ["g"]).rows == []
        assert agg.conf(urel, []).rows == [(0.0,)]
        probabilities, answered = hierarchical_confidences(urel, [])
        assert len(probabilities) == len(answered) == 0

    def test_conf_without_group_by(self):
        registry = VariableRegistry()
        r = registry.fresh_boolean(0.5)
        rows = [(g, [(r, 1), (registry.fresh_boolean(0.5), 1)]) for g in range(3)]
        urel = build(registry, 2, rows)
        with trace_confidence() as events:
            got = agg.conf(urel, []).rows
        assert events[0].render() == "conf: 1 group(s) via sprout[vectorized]"
        reference = agg.conf(urel, [], dispatcher=per_lineage()).rows[0][0]
        assert got[0][0] == pytest.approx(reference, abs=EXACT)
        assert got == [(pytest.approx(0.5 * (1 - 0.5 ** 3)),)]

    def test_every_size_is_answered_and_a_null_condition_is_refused(self):
        registry = VariableRegistry()
        rows = [(g, [(registry.fresh_boolean(0.5), 1)]) for g in range(20)]
        for size in (1, 2, 15, 16, 20):
            urel = build(registry, 1, rows[:size])
            probabilities, answered = hierarchical_confidences(
                urel, [[i] for i in range(size)]
            )
            assert answered.all() and probabilities.tolist() == [0.5] * size
        holed = list(urel.relation.rows)
        holed[3] = (3, None, None)
        urel = URelation(Relation(urel.relation.schema, holed), 1, 1, registry)
        with pytest.raises(ConditionError):
            hierarchical_confidences(urel, [[i] for i in range(20)])

    def test_the_bound_registry_is_read(self):
        # The same rows bound to a clone that gives x another
        # distribution (all mass on {1, 2}).
        registry = VariableRegistry()
        x = registry.fresh([0.5, 0.25, 0.25])
        y = registry.fresh_boolean(0.5)
        rows = [(0, [(x, 0), (y, 1)]), (0, [(x, 1), (y, 1)]), (1, [(x, 2), (y, 1)])]
        stored = build(registry, 2, rows)
        clone = registry.copy()
        clone.restore(x, {0: 0.0, 1: 0.5, 2: 0.5})
        conditioned = URelation(stored.relation, 1, 2, clone)
        got = assert_agree(conditioned)
        assert got[0][0] == pytest.approx(0.25)  # (0 + 0.5) * 0.5
        assert got[1][0] == pytest.approx(0.25)
        assert assert_agree(stored)[0][0] == pytest.approx(0.375)


# -- shapes it must decline -----------------------------------------------------------


def explain(db, sql):
    return "\n".join(row[0] for row in db.execute("explain " + sql).relation.rows)


def both_ways(db, sql):
    rows = sorted(db.query(sql).rows)
    db.set_confidence_strategy("exact")
    reference = sorted(db.query(sql).rows)
    db.set_confidence_strategy("auto")
    assert [row[:-1] for row in rows] == [row[:-1] for row in reference]
    for row, expected in zip(rows, reference):
        assert row[-1] == pytest.approx(expected[-1], abs=EXACT)
    return rows


class TestDeclined:
    def test_self_join_puts_one_variable_in_two_columns(self):
        db = MayBMS(seed=1)
        db.execute("create table t (k integer, v integer)")
        db.execute(
            "insert into t values "
            + ", ".join(f"({i % 6}, {i})" for i in range(18))
        )
        db.execute(
            "create table u as select * from "
            "(pick tuples from t independently with probability 0.5) x"
        )
        sql = "select x.k, conf() as p from u x, u y where x.k = y.k group by x.k"
        rows = both_ways(db, sql)
        # Three tuples per key, each present with 0.5: P(at least one).
        assert [p for _, p in rows] == [pytest.approx(1 - 0.5 ** 3)] * 6
        assert "conf: 6 group(s) via" in explain(db, sql)
        assert STRATEGY_VECTORIZED not in explain(db, sql)

    def test_check_b_alone_stands_between_a_shared_variable_and_a_wrong_answer(self):
        # (a ^ b) v (c ^ a): every column's variable determines the other
        # column's (check c passes either way round), yet a is shared.
        registry = VariableRegistry()
        a, b, c = (registry.fresh_boolean(0.5) for _ in range(3))
        got = assert_agree(
            build(registry, 2, [(0, [(a, 1), (b, 1)]), (0, [(c, 1), (a, 1)])]),
            declined=[0],
        )
        assert got[0][1] == pytest.approx(0.5 * 0.75)  # not 1 - 0.75 ** 2

    def test_conf_hard_three_way_join(self):
        db = MayBMS(seed=2)
        db.execute("create table o (okey integer, ckey integer, yr integer)")
        db.execute("create table c (ckey integer, nation integer)")
        db.execute("create table y (yr integer)")
        db.execute(
            "insert into o values "
            + ", ".join(f"({i}, {i % 4}, {2000 + i % 3})" for i in range(12))
        )
        db.execute("insert into c values (0, 0), (1, 0), (2, 1), (3, 1)")
        db.execute("insert into y values (2000), (2001), (2002)")
        for table in ("o", "c", "y"):
            db.execute(
                f"create table u_{table} as select * from "
                f"(pick tuples from {table} independently with probability 0.6) x"
            )
        sql = (
            "select c.nation, conf() as p from u_o o, u_c c, u_y y "
            "where o.ckey = c.ckey and o.yr = y.yr group by c.nation"
        )
        rows = both_ways(db, sql)
        assert len(rows) == 2
        text = explain(db, sql)
        assert STRATEGY_VECTORIZED not in text and "exact" in text
        db.set_confidence_strategy("exact")
        for row, exact in zip(rows, sorted(db.query(sql).rows)):
            assert row[1] == pytest.approx(exact[1], abs=EXACT)

    def test_only_the_crossing_group_falls_back(self):
        registry = VariableRegistry()
        fresh = registry.fresh_boolean
        rows = []
        for g in (0, 2):
            r = fresh(0.6)
            rows += [(g, [(r, 1), (fresh(0.5), 1)]) for _ in range(3)]
        # Group 1: a hierarchical part plus x1^y1, x1^y2, x2^y2 (crossing).
        r = fresh(0.6)
        rows += [(1, [(r, 1), (fresh(0.5), 1)]) for _ in range(2)]
        x1, x2, y1, y2 = fresh(0.5), fresh(0.5), fresh(0.5), fresh(0.5)
        rows += [(1, [(x1, 1), (y1, 1)]), (1, [(x1, 1), (y2, 1)]), (1, [(x2, 1), (y2, 1)])]
        urel = build(registry, 2, rows)
        assert_agree(urel, declined=[1])
        with trace_confidence() as events:
            agg.conf(urel, ["g"])
        assert events[0].render().startswith(
            "conf: 3 group(s) via sprout[vectorized] x2, "
        )


# -- generated relations --------------------------------------------------------------


def grow_tree(registry, rng, depth):
    """Root-to-leaf atom paths of a random clause tree ``depth`` levels
    deep: one or two variables per node, a random subset of each one's
    values, fresh variables below every value."""
    if depth == 0:
        return [[]]
    paths = []
    for _ in range(rng.randrange(1, 3)):
        domain = rng.randrange(2, 4)
        weights = [rng.random() for _ in range(domain)]
        if rng.random() < 0.2:
            weights[0] = 0.0
        var = registry.fresh([w / sum(weights) for w in weights])
        for value in rng.sample(range(domain), rng.randrange(1, domain + 1)):
            for below in grow_tree(registry, rng, depth - 1):
                paths.append([(var, value)] + below)
    return paths


def small_tree(registry, rng, depth, variables=10):
    """A :func:`grow_tree` the enumeration oracle can afford."""
    while True:
        paths = grow_tree(registry, rng, depth)
        if len({var for path in paths for var, _ in path}) <= variables:
            return paths


class TestGenerated:
    def test_random_trees_are_answered_and_agree(self):
        rng = random.Random(20090629)
        for trial in range(150):
            registry = VariableRegistry()
            arity = rng.randrange(1, 4)
            rows = []
            for g in range(rng.randrange(1, 5)):
                used = rng.randrange(1, arity + 1)
                # This group's levels sit in a random choice of columns.
                columns = rng.sample(range(arity), used)
                for path in small_tree(registry, rng, used):
                    atoms = [TOP] * arity
                    for column, atom in zip(columns, path):
                        atoms[column] = atom
                    rows += [(g, atoms)] * rng.randrange(1, 3)
            rng.shuffle(rows)
            assert_agree(build(registry, arity, rows))

    def test_random_clauses_are_never_guessed(self):
        # Arbitrary clauses over a small variable pool: whatever the array
        # pass answers must be right, whatever it declines the dispatcher
        # answers; across the sweep both must happen.
        rng = random.Random(15)
        answered = declined = 0
        for trial in range(150):
            registry = VariableRegistry()
            pool = [
                registry.fresh([0.5, 0.3, 0.2]) if rng.random() < 0.3
                else registry.fresh_boolean(rng.uniform(0.1, 0.9))
                for _ in range(rng.randrange(2, 7))
            ]
            arity = rng.randrange(1, 4)
            rows = []
            for g in range(rng.randrange(1, 4)):
                for _ in range(rng.randrange(1, 6)):
                    atoms = []
                    while len(atoms) < arity:
                        var = rng.choice(pool + [TOP_VARIABLE])
                        value = 0 if var == TOP_VARIABLE else rng.randrange(2)
                        consistent = all(v != var or d == value for v, d in atoms)
                        if consistent:
                            atoms.append((var, value))
                    rows.append((g, atoms))
            got = answers(build(registry, arity, rows))
            for g, (array, reference, truth) in got.items():
                assert reference == pytest.approx(truth, abs=EXACT), (trial, g)
                if array is None:
                    declined += 1
                else:
                    answered += 1
                    assert array == pytest.approx(truth, abs=EXACT), (trial, g, rows)
        assert answered > 50 and declined > 50
