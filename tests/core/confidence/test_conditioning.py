"""Crossing components answered in arrays by Shannon expansion on a
small cutset (:func:`repro.core.confidence.columnar.split_components`).

A declined component of one width whose variables each take one value
is conditioned on its cutset S: the shared variables that some clause
orders after its first (:func:`reference.confidence.cutset`).  In every
world over S the alive clauses form a two-level tree.  The answers must
agree with possible-worlds enumeration (:mod:`reference.naive` over
:mod:`reference.worlds`) and with the frozen ws-tree to 1e-12, and the
component must be conditioned exactly when the rule says so: at most
``CONDITIONING_ROWS`` (clause, world) rows and at most ``exact_budget``
worlds, every variable with one value.
"""

import random

import pytest

from reference import confidence as reference
from reference.naive import confidence_by_enumeration
from reference.ws_tree import WsTree
from repro.core.confidence import columnar
from repro.core.confidence.columnar import DECLINED, split_components
from repro.core.confidence.dispatch import (
    STRATEGY_EXACT,
    ConfidenceDispatcher,
    DispatchPolicy,
)
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.lineage import canonical_clause
from repro.core.variables import VariableRegistry

EXACT = 1e-12


def clause(*atoms):
    return canonical_clause(atoms)


def routes(split):
    """Per declined entry: "conditioned" when the pass answered it, else
    "ws-tree"."""
    return [
        "ws-tree" if part is not None else "conditioned"
        for kind, part in zip(split.kind.tolist(), split.declined)
        if kind == DECLINED
    ]


def dispatched(groups, registry, policy=None):
    """The ``conf()`` dispatch of ``groups`` and how many ws-tree calls it
    made."""
    calls = []

    class Counting(ExactConfidenceEngine):
        def probability(self, clauses, roots_only=False):
            calls.append(len(clauses))
            return super().probability(clauses, roots_only)

    dispatcher = ConfidenceDispatcher(policy)
    engine = dispatcher._engine
    dispatcher._engine = lambda registry: Counting(
        registry, engine(registry).max_subproblems
    )
    return dispatcher.group_probabilities(groups, registry), len(calls)


def one_valued(registry, rng, count):
    """Booleans and three-valued variables, each used at one value."""
    atoms = []
    for _ in range(count):
        if rng.random() < 0.5:
            atoms.append((registry.fresh_boolean(rng.uniform(0.1, 0.9)), 1))
        else:
            weights = [rng.uniform(0.1, 1.0) for _ in range(3)]
            var = registry.fresh([w / sum(weights) for w in weights])
            atoms.append((var, rng.randrange(3)))
    return atoms


class TestAgainstTheWorlds:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_groups_over_a_shared_pool(self, seed):
        rng = random.Random(seed)
        registry = VariableRegistry()
        pool = one_valued(registry, rng, rng.randint(4, 9))
        width = rng.randint(2, 3)
        groups = [
            [clause(*rng.sample(pool, width)) for _ in range(rng.randint(2, 9))]
            for _ in range(rng.randint(1, 3))
        ]
        results, _ = dispatched(groups, registry)
        for clauses, result in zip(groups, results):
            truth = confidence_by_enumeration(clauses, registry)
            assert result.probability == pytest.approx(truth, rel=0, abs=EXACT)

    def test_the_random_groups_are_conditioned(self):
        seen = []
        for seed in range(60):
            rng = random.Random(seed)
            registry = VariableRegistry()
            pool = one_valued(registry, rng, rng.randint(4, 9))
            width = rng.randint(2, 3)
            groups = [
                [clause(*rng.sample(pool, width)) for _ in range(rng.randint(2, 9))]
                for _ in range(rng.randint(1, 3))
            ]
            seen += routes(split_components(groups, registry, None))
        assert seen.count("conditioned") >= 20 and "ws-tree" not in seen


def conf_hard_shaped(seed, nations=3, clauses=(20, 60)):
    """``order ∧ customer ∧ year`` clauses grouped by nation: orders are
    private, customers belong to one nation, years are shared by all."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    fresh = lambda: (registry.fresh_boolean(rng.uniform(0.1, 0.9)), 1)
    years = [fresh() for _ in range(rng.randint(2, 6))]
    groups = []
    for _ in range(nations):
        customers = [fresh() for _ in range(rng.randint(2, 8))]
        groups.append(
            [
                clause(fresh(), rng.choice(customers), rng.choice(years))
                for _ in range(rng.randint(*clauses))
            ]
        )
    return groups, registry


class TestAgainstTheFrozenWsTree:
    @pytest.mark.parametrize("seed", range(30))
    def test_conf_hard_shaped_joins(self, seed):
        groups, registry = conf_hard_shaped(seed)
        results, calls = dispatched(groups, registry)
        for clauses, result in zip(groups, results):
            truth = WsTree(registry).probability(reference.simplified(clauses, registry))
            assert result.probability == pytest.approx(truth, rel=0, abs=EXACT)
        split = split_components(groups, registry, DispatchPolicy().exact_budget)
        assert calls == routes(split).count("ws-tree")
        for result in results:
            assert all(d.strategy != "monte-carlo" for d in result.decisions)

    def test_the_joins_take_both_routes(self):
        seen = []
        for seed in range(30):
            groups, registry = conf_hard_shaped(seed)
            seen += routes(split_components(groups, registry, None))
        assert len(seen) > seen.count("conditioned") > len(seen) / 2


class TestShapes:
    def test_a_variable_shared_by_components_of_two_groups(self):
        # The years belong to both groups; each group's component is
        # conditioned on its own (group, year) pairs.
        registry = VariableRegistry()
        fresh = lambda p: (registry.fresh_boolean(p), 1)
        y1, y2 = fresh(0.3), fresh(0.7)
        c1, c2, c3, c4 = fresh(0.4), fresh(0.6), fresh(0.5), fresh(0.9)
        groups = [
            [clause(fresh(0.5), c, y) for c, y in ((c1, y1), (c1, y2), (c2, y1))],
            [clause(fresh(0.8), c, y) for c, y in ((c3, y2), (c3, y1), (c4, y2))],
        ]
        split = split_components(groups, registry, None)
        assert routes(split) == ["conditioned", "conditioned"]
        results, calls = dispatched(groups, registry)
        assert calls == 0
        for clauses, result in zip(groups, results):
            assert [d.strategy for d in result.decisions] == [STRATEGY_EXACT]
            truth = confidence_by_enumeration(clauses, registry)
            assert result.probability == pytest.approx(truth, rel=0, abs=EXACT)

    def test_a_cutset_variable_heads_another_clause(self):
        # x1 ∧ y1, x1 ∧ y2, x2 ∧ y1: y1 follows x1 in the first clause, so
        # it is in S, and it heads the third.  That clause has no
        # remaining shared variable.
        registry = VariableRegistry()
        x1, y1, x2, y2 = (registry.fresh_boolean(p) for p in (0.3, 0.6, 0.8, 0.45))
        clauses = [clause((x1, 1), (y1, 1)), clause((x1, 1), (y2, 1)), clause((x2, 1), (y1, 1))]
        assert reference.cutset(clauses) == {y1}
        split = split_components([clauses], registry, None)
        assert routes(split) == ["conditioned"]
        truth = confidence_by_enumeration(clauses, registry)
        assert split.probability[0] == pytest.approx(truth, rel=0, abs=EXACT)

    def test_clauses_with_no_remaining_shared_variable(self):
        # A triangle a ∧ b, b ∧ c, a ∧ c with private atoms: S = {b, c},
        # and b ∧ c has no variable outside S to group it under.
        registry = VariableRegistry()
        a, b, c = (registry.fresh_boolean(p) for p in (0.2, 0.5, 0.7))
        private = [(registry.fresh_boolean(p), 1) for p in (0.9, 0.4, 0.6)]
        clauses = [
            clause((a, 1), (b, 1), private[0]),
            clause((b, 1), (c, 1), private[1]),
            clause((a, 1), (c, 1), private[2]),
        ]
        assert reference.cutset(clauses) == {b, c}
        split = split_components([clauses], registry, None)
        assert routes(split) == ["conditioned"]
        truth = confidence_by_enumeration(clauses, registry)
        assert split.probability[0] == pytest.approx(truth, rel=0, abs=EXACT)

    def test_a_multi_valued_crossing_component_goes_to_the_ws_tree(self):
        registry = VariableRegistry()
        x1 = registry.fresh([0.2, 0.3, 0.5])
        y1, x2, y2 = (registry.fresh_boolean(p) for p in (0.6, 0.8, 0.45))
        clauses = [clause((x1, 0), (y1, 1)), clause((x1, 1), (y2, 1)), clause((x2, 1), (y1, 1))]
        assert not reference.is_tree(clauses)
        assert routes(split_components([clauses], registry, None)) == ["ws-tree"]
        [result], calls = dispatched([clauses], registry)
        assert calls == 1
        assert [d.strategy for d in result.decisions] == [STRATEGY_EXACT]
        truth = confidence_by_enumeration(clauses, registry)
        assert result.probability == pytest.approx(truth, rel=0, abs=EXACT)


def chain(registry, length=6):
    """x₁ ∧ x₂, x₂ ∧ x₃, ...: crossing, S = {x₃, ..., x_length}."""
    variables = [registry.fresh_boolean(0.3 + 0.05 * i) for i in range(length + 1)]
    return [clause((variables[i], 1), (variables[i + 1], 1)) for i in range(length)]


class TestLimits:
    def test_at_the_row_cap_and_one_above(self, monkeypatch):
        registry = VariableRegistry()
        clauses = chain(registry)
        rows = len(clauses) * 2 ** len(reference.cutset(clauses))
        assert rows == 6 * 2**4
        monkeypatch.setattr(columnar, "CONDITIONING_ROWS", rows)
        split = split_components([clauses], registry, None)
        assert routes(split) == ["conditioned"]
        truth = confidence_by_enumeration(clauses, registry)
        assert split.probability[0] == pytest.approx(truth, rel=0, abs=EXACT)
        monkeypatch.setattr(columnar, "CONDITIONING_ROWS", rows - 1)
        assert routes(split_components([clauses], registry, None)) == ["ws-tree"]

    def test_at_the_exact_budget_and_one_above(self):
        registry = VariableRegistry()
        clauses = chain(registry)
        worlds = 2 ** len(reference.cutset(clauses))
        assert routes(split_components([clauses], registry, worlds)) == ["conditioned"]
        assert routes(split_components([clauses], registry, worlds - 1)) == ["ws-tree"]
        [result], calls = dispatched([clauses], registry, DispatchPolicy(exact_budget=worlds))
        assert calls == 0
        assert [d.strategy for d in result.decisions] == [STRATEGY_EXACT]
        # One above: the component is the ws-tree's, under the same budget.
        _, calls = dispatched([clauses], registry, DispatchPolicy(exact_budget=worlds - 1))
        assert calls == 1
