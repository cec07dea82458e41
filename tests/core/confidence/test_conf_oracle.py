"""``conf()`` on the clause path against the reference dispatch of
:mod:`reference.confidence`, which decodes each row on its own.

Seeded U-relations are written straight into the wide encoding, so their
condition columns hold what a translation can leave there: a variable
joined with itself (merged, or contradictory with another value),
multi-valued ``repair key`` variables, ``TOP_VARIABLE`` padding between
real atoms, zero-probability atoms, clauses wider than the subset
enumeration of simplification, NULL and NaN group keys, and relations of
0 to 60 rows.  Under ``auto`` (with
the default budget and with a budget of one subproblem, which sends the
crossing components to Monte Carlo) and under every forced policy, every
group must get the same decisions in the same order, the same Monte-Carlo
estimates, the same ws-tree counters and the same EXPLAIN event as the
oracle's, or both must refuse the input.  Every other probability agrees
to 1e-12: trees answered by array reductions and the folded recursion may
differ from the oracle's recursion in the last bits.
"""

import math
import random

import pytest

from reference import confidence as reference
from reference.ws_tree import components
from reference.worlds import tuple_confidence_by_enumeration
from repro.core import aggregates as agg
from repro.core.confidence import columnar, dispatch
from repro.core.confidence.dispatch import (
    STRATEGY_MONTE_CARLO,
    ConfidenceDispatcher,
    DispatchPolicy,
)
from repro.core import lineage
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.lineage import row_clauses
from repro.core.urelation import URelation, condition_columns
from repro.core.variables import TOP_VARIABLE, VariableRegistry
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import FLOAT
from repro.errors import UnsafeLineageError

NAN = float("nan")
EXACT = 1e-12
KEYS = (0.0, 1.0, 2.0, None, NAN)

POLICIES = {
    "auto": DispatchPolicy(),
    "auto, budget 1": DispatchPolicy(exact_budget=1, epsilon=0.3, delta=0.3),
    "exact": DispatchPolicy(strategy="exact"),
    "sprout": DispatchPolicy(strategy="sprout"),
    "monte-carlo": DispatchPolicy(strategy="monte-carlo", epsilon=0.3, delta=0.3),
}


def _variables(registry, rng, count):
    """Booleans and multi-valued variables, some with a zero-probability
    alternative."""
    variables = []
    for _ in range(count):
        if rng.random() < 0.5:
            variables.append(registry.fresh_boolean(rng.uniform(0.1, 0.9)))
            continue
        weights = [rng.uniform(0.1, 1.0) for _ in range(rng.randint(3, 4))]
        if rng.random() < 0.3:
            weights[rng.randrange(len(weights))] = 0.0
        variables.append(registry.fresh([w / sum(weights) for w in weights]))
    return variables


def _atoms(registry, rng, pool, width):
    """``width`` atoms over distinct variables of ``pool``; now and then a
    value outside the domain, a variable joined with itself, or a
    contradiction."""
    atoms = []
    for var in rng.sample(pool, width):
        domain = registry.domain(var)
        value = 7 if rng.random() < 0.05 else rng.choice(domain)
        atoms.append((var, value))
    if atoms and rng.random() < 0.15:
        var, value = rng.choice(atoms)
        if rng.random() < 0.5:
            value = next(v for v in registry.domain(var) if v != value)
        atoms.append((var, value))
    return atoms


def _row(registry, rng, key, atoms, cond_arity):
    """One wide row: the atoms at random condition positions, padding at
    the others."""
    slots = [(TOP_VARIABLE, rng.randrange(2))] * cond_arity
    for position, atom in zip(rng.sample(range(cond_arity), len(atoms)), atoms):
        slots[position] = atom
    return (key,) + tuple(x for slot in slots for x in slot)


def generated(seed, stored=False, count=None):
    """A seeded U-relation; ``count`` overrides its drawn row count."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    wide = seed % 7 == 3
    cond_arity = rng.randint(14, 15) if wide else rng.randint(1, 4)
    pool = _variables(registry, rng, rng.randint(16, 18) if wide else rng.randint(3, 9))
    drawn = rng.randint(1, 15) if seed % 2 else rng.randint(17, 60)
    count = drawn if count is None else count
    rows = []
    for _ in range(count):
        key = rng.choice(KEYS)
        if wide:
            width = rng.randint(11, cond_arity - 1)
        else:
            width = 0 if rng.random() < 0.03 else rng.randint(1, min(cond_arity, len(pool)))
        atoms = _atoms(registry, rng, pool, width)[:cond_arity]
        rows.append(_row(registry, rng, key, atoms, cond_arity))
        if wide and rng.random() < 0.3:
            # a wider clause over the same atoms: absorbed by a linear scan
            extra = [var for var in pool if var not in {v for v, _ in atoms}]
            if extra and len(atoms) < cond_arity:
                atoms = atoms + [(extra[0], registry.domain(extra[0])[-1])]
                rows.append(_row(registry, rng, key, atoms, cond_arity))
    rng.shuffle(rows)
    schema = Schema([Column("g", FLOAT)] + condition_columns(cond_arity))
    relation = Relation(schema, rows)
    if stored:
        relation.source = ("t", seed)
    return URelation(relation, 1, cond_arity, registry)


def _outcome(conf, urel, policy, seed):
    """(rows, per-group decisions and ws-tree counters, EXPLAIN events and
    their text) of one ``conf()`` call, or the refusal as text."""
    dispatcher = ConfidenceDispatcher(policy, random.Random(seed))
    with dispatch.trace_confidence() as events:
        try:
            rows, results = conf(urel, dispatcher)
        except UnsafeLineageError as error:
            return f"refused: {error}"
    return (
        rows,
        [(r.decisions, None if r.ws_tree is None else vars(r.ws_tree)) for r in results],
        events,
        [event.render() for event in events],
    )


def assert_agrees(got, expected):
    """``got`` equals ``expected``, except that probabilities other than
    Monte-Carlo estimates need only agree to 1e-12."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    rows, results, events, text = got
    assert (events, text) == expected[2:]
    assert [repr(row[:-1]) for row in rows] == [repr(row[:-1]) for row in expected[0]]
    for row, want in zip(rows, expected[0]):
        assert row[-1] == pytest.approx(want[-1], rel=0, abs=EXACT)
    assert len(results) == len(expected[1])
    for (decisions, counters), (want, want_counters) in zip(results, expected[1]):
        assert counters == want_counters
        assert [(d.strategy, d.clause_count, d.variable_count) for d in decisions] == [
            (d.strategy, d.clause_count, d.variable_count) for d in want
        ]
        for decision, truth in zip(decisions, want):
            if decision.strategy == STRATEGY_MONTE_CARLO:
                assert decision.probability == truth.probability
            else:
                assert decision.probability == pytest.approx(
                    truth.probability, rel=0, abs=EXACT
                )


def _system(urel, dispatcher):
    results = []
    group_probabilities = dispatcher.group_probabilities

    def recording(*args):
        out = group_probabilities(*args)
        results.extend(out)
        return out

    dispatcher.group_probabilities = recording
    return agg.conf(urel, ["g"], dispatcher=dispatcher).rows, results


def _reference(urel, dispatcher):
    return reference.conf(urel, ["g"], dispatcher)


#: aconf()'s (ε, δ) and store seed in the runs below.
ACONF = (0.3, 0.3, 17)


def _system_aconf(urel, dispatcher):
    results = []
    approximate = dispatcher.approximate

    def recording(*args, **kwargs):
        results.append(approximate(*args, **kwargs))
        return results[-1]

    dispatcher.approximate = recording
    epsilon, delta, seed = ACONF
    rows = agg.aconf(urel, epsilon, delta, ["g"], dispatcher=dispatcher, base_seed=seed)
    return rows.rows, results


def _reference_aconf(urel, dispatcher):
    return reference.aconf(urel, ["g"], dispatcher, *ACONF)


SEEDS = range(120)


@pytest.mark.parametrize("seed", SEEDS)
def test_conf_agrees_with_the_lineage_dispatch(seed):
    urel = generated(seed)
    assert row_clauses(urel) == reference.row_conditions(urel)
    for name, policy in POLICIES.items():
        expected = _outcome(_reference, urel, policy, seed)
        assert_agrees(_outcome(_system, urel, policy, seed), expected)


@pytest.mark.parametrize("seed", range(0, 120, 5))
def test_aconf_agrees_with_the_reference_dispatch(seed):
    urel = generated(seed)
    for name, policy in POLICIES.items():
        expected = _outcome(_reference_aconf, urel, policy, seed)
        assert_agrees(_outcome(_system_aconf, urel, policy, seed), expected)


@pytest.mark.parametrize("seed", [0, 2, 3, 10])
def test_a_stored_snapshot_decodes_once(seed, monkeypatch):
    urel = generated(seed, stored=True)
    decoded = []
    monkeypatch.setattr(
        lineage, "row_clauses", lambda u: decoded.append(1) or row_clauses(u)
    )
    policy = POLICIES["exact"]
    first = _outcome(_system, urel, policy, seed)
    assert_agrees(first, _outcome(_reference, urel, policy, seed))
    assert repr(_outcome(_system, urel, policy, seed)) == repr(first)
    assert len(decoded) == 1


def test_the_generator_covers_every_shape():
    shapes = set()
    for seed in SEEDS:
        urel = generated(seed)
        columns = urel.relation.columns()
        arity = urel.cond_arity
        for row, clause in zip(urel.relation.rows, reference.row_conditions(urel)):
            variables = [row[1 + 2 * i] for i in range(arity)]
            real = [v for v in variables if v != TOP_VARIABLE]
            if clause is None:
                shapes.add("contradictory")
            elif len(set(real)) < len(real):
                shapes.add("self-join")
            if real and len(real) < arity:
                shapes.add("padding")
            if not real:
                shapes.add("certain")
            if clause is not None and len(clause) > 12:
                shapes.add("wide")
            if clause is not None and reference.clause_probability(clause, urel.registry) == 0.0:
                shapes.add("zero probability")
        keys = columns[0]
        if any(k is None for k in keys):
            shapes.add("NULL key")
        if any(isinstance(k, float) and math.isnan(k) for k in keys):
            shapes.add("NaN key")
        if any(len(urel.registry.domain(v)) > 2 for v in urel.registry.variables()):
            shapes.add("multi-valued")
        _, results = _system(
            urel, ConfidenceDispatcher(POLICIES["auto, budget 1"], random.Random(seed))
        )
        for result in results:
            if len(result.decisions) > 1:
                shapes.add("components")
            if any(d.strategy == STRATEGY_MONTE_CARLO for d in result.decisions):
                shapes.add("monte-carlo fallback")
        if isinstance(_outcome(_system, urel, POLICIES["sprout"], seed), str):
            shapes.add("sprout refuses")
    assert shapes == {
        "contradictory", "self-join", "padding", "certain",
        "wide", "zero probability", "NULL key", "NaN key", "multi-valued",
        "components", "monte-carlo fallback", "sprout refuses",
    }


def _with_edge_rows(urel):
    """``urel`` with its first rows (as many as it has) replaced by an
    all-⊤ row, a row naming one variable twice with one value, and a
    contradictory row."""
    arity = urel.cond_arity
    var = next(iter(urel.registry.variables()))
    a, b = urel.registry.domain(var)[:2]
    padding = [(TOP_VARIABLE, 1)] * (arity - 2)
    edges = [
        [(TOP_VARIABLE, 0), (TOP_VARIABLE, 1)] + padding,
        [(var, a), (var, a)] + padding,
        [(var, a), (var, b)] + padding,
    ]
    rows = list(urel.relation.rows)
    for i, atoms in enumerate(edges[: len(rows)]):
        rows[i] = (rows[i][0],) + tuple(x for atom in atoms for x in atom)
    relation = Relation(urel.relation.schema, rows)
    return URelation(relation, 1, arity, urel.registry)


@pytest.mark.parametrize("count", [0, 1, 2, 15, 16, 17])
@pytest.mark.parametrize("seed", [0, 1, 3, 5])  # two to fourteen condition pairs
def test_every_size_decodes_and_answers_like_the_reference(seed, count):
    urel = _with_edge_rows(generated(seed, count=count))
    conditions = reference.row_conditions(urel)
    assert row_clauses(urel) == conditions
    expected = [
        0.0 if clause is None else reference.clause_probability(clause, urel.registry)
        for clause in conditions
    ]
    assert urel.condition_probabilities() == pytest.approx(expected, abs=1e-12)
    exact = ConfidenceDispatcher(POLICIES["exact"])
    for columns in (["g"], []):
        got = agg.conf(urel, columns).rows
        want = reference.conf(urel, columns, exact)[0]
        assert [repr(row[:-1]) for row in got] == [repr(row[:-1]) for row in want]
        for row, truth in zip(got, want):
            assert row[-1] == pytest.approx(truth[-1], abs=1e-12)
    if count == 0:
        assert agg.conf(urel, []).rows == [(0.0,)]


# -- conf_hard-shaped groups: the component split ----------------------------------


def joined(seed, booleans=False):
    """A U-relation shaped like ``conf_hard``'s three-way join, grouped by
    nation: a clause order ∧ customer ∧ (year, status) per row, its atoms
    at random condition positions.  Customers belong to one nation, the
    year variables are shared by all of them, so a nation's clauses split
    into tree-shaped and crossing components.  Unless ``booleans``, year
    and order variables may be multi-valued ``repair key`` variables with
    a zero-probability alternative (orders then repeat with other values),
    rows repeat, and a row may leave its order out, so that its nation's
    clauses have two widths.  0 to 17 rows."""
    rng = random.Random(seed)
    registry = VariableRegistry()

    def variable():
        if booleans or rng.random() < 0.6:
            return registry.fresh_boolean(rng.uniform(0.1, 0.9))
        return _variables(registry, rng, 1)[0]

    years = [variable() for _ in range(rng.randint(1, 4))]
    nations = rng.randint(1, 3)
    customers = [[variable() for _ in range(rng.randint(1, 4))] for _ in range(nations)]
    orders = []
    rows = []
    for _ in range(rng.randint(0, 17)):
        nation = rng.randrange(nations)
        if orders and not booleans and rng.random() < 0.15:
            order = rng.choice(orders)  # another alternative of a repair-key order
        else:
            order = variable()
            orders.append(order)
        atoms = [
            (var, rng.choice(registry.domain(var)) if len(registry.domain(var)) > 2 else 1)
            for var in (order, rng.choice(customers[nation]), rng.choice(years))
        ]
        if not booleans and rng.random() < 0.05:
            atoms = atoms[1:]
        rows.append(_row(registry, rng, float(nation), atoms, 3))
        if not booleans and rng.random() < 0.15:
            rows.append(rows[-1])
    rng.shuffle(rows)
    schema = Schema([Column("g", FLOAT)] + condition_columns(3))
    return URelation(Relation(schema, rows), 1, 3, registry)


JOINED = range(150)


@pytest.mark.parametrize("seed", JOINED)
def test_joined_groups_agree_with_the_reference_and_the_worlds(seed):
    urel = joined(seed)
    for name in ("auto", "auto, budget 1"):
        expected = _outcome(_reference, urel, POLICIES[name], seed)
        assert_agrees(_outcome(_system, urel, POLICIES[name], seed), expected)
    conditions = reference.row_conditions(urel)
    for g, p in agg.conf(urel, ["g"]).rows:
        variables = {
            var
            for row, clause in zip(urel.relation.rows, conditions)
            if clause is not None and row[0] == g
            for var, _ in clause
        }
        if len(variables) <= 12:
            truth = tuple_confidence_by_enumeration(urel, (g,))
            assert p == pytest.approx(truth, rel=0, abs=EXACT)


def _split_routes(urel):
    """What became of each group the array pass declined: its decisions
    under ``auto`` and the labels of its ws-tree calls."""
    calls = []
    probability = ExactConfidenceEngine.probability

    def recording(engine, clauses, roots_only=False):
        out = probability(engine, clauses, roots_only)
        calls.append(engine.label)
        return out

    ExactConfidenceEngine.probability = recording
    try:
        _, results = _system(urel, ConfidenceDispatcher(POLICIES["auto"]))
    finally:
        ExactConfidenceEngine.probability = probability
    return [d.strategy for r in results for d in r.decisions], calls


def test_the_joined_generator_covers_every_route():
    routes = set()
    for seed in JOINED:
        urel = joined(seed)
        strategies, calls = _split_routes(urel)
        routes.update(strategies)
        if calls:
            routes.add("ws-tree")
        for clause in (c for c in reference.row_conditions(urel) if c is not None):
            if reference.clause_probability(clause, urel.registry) == 0.0:
                routes.add("zero probability")
        if len(set(urel.relation.rows)) < len(urel.relation.rows):
            routes.add("duplicate rows")
        if len({len(c) for c in reference.row_conditions(urel) if c is not None}) > 1:
            routes.add("two widths")
        if not urel.relation.rows:
            routes.add("empty")
        _, results = _system(
            urel, ConfidenceDispatcher(POLICIES["auto, budget 1"], random.Random(seed))
        )
        if any(d.strategy == STRATEGY_MONTE_CARLO for r in results for d in r.decisions):
            routes.add("monte-carlo fallback")
    assert routes >= {
        "closed-form", "sprout", "exact", "ws-tree", "zero probability",
        "duplicate rows", "two widths", "empty", "monte-carlo fallback",
    }


def _conditioned(urel):
    """How many components of the declined groups the reference says the
    array pass conditions on their cutsets under the default policy."""
    _, _, row_groups = agg._groups(urel, ["g"])
    policy = DispatchPolicy()
    _, pending = agg._array_pass(urel, row_groups, policy)
    conditions = reference.row_conditions(urel)
    count = 0
    for g in pending:
        clauses = [conditions[i] for i in row_groups[g] if conditions[i] is not None]
        if len({len(clause) for clause in clauses}) != 1:
            continue
        for part, _ in components(reference.simplified(clauses, urel.registry)):
            count += (
                len(part) > 1
                and not reference.is_tree(part)
                and reference.conditioned(part, policy.exact_budget)
            )
    return count


@pytest.mark.parametrize("seed", range(40))
def test_only_crossing_components_reach_the_ws_tree(seed):
    """On boolean conf_hard-shaped lineage a component is a tree exactly
    when it is hierarchical, and a crossing one is conditioned on its
    cutset in arrays unless it is too large: every component that reaches
    the ws-tree is labelled ``exact`` there, and every ``exact`` decision
    that the pass left made one call."""
    urel = joined(seed, booleans=True)
    strategies, calls = _split_routes(urel)
    assert set(calls) <= {"exact"}
    assert len(calls) == strategies.count("exact") - _conditioned(urel)


@pytest.mark.parametrize("seed", range(40))
def test_a_small_cap_leaves_crossing_components_to_the_ws_tree(seed, monkeypatch):
    """The same under a cap of 8 (clause, world) rows, which leaves most
    crossing components to the ws-tree."""
    monkeypatch.setattr(columnar, "CONDITIONING_ROWS", 8)
    urel = joined(seed, booleans=True)
    strategies, calls = _split_routes(urel)
    assert set(calls) <= {"exact"}
    assert len(calls) == strategies.count("exact") - _conditioned(urel)
