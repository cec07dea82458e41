"""The engine's ws-tree recursion against the frozen copy in
:mod:`reference.ws_tree`.

The engine folds each variable that occurs once among a call's clauses
into its clause's weight, closes single-clause components in place and
undoes a call that blows its budget.  None of that may change what the
recursion does: on the :func:`~repro.datagen.random_dnf` series (10 to 30
clauses, domains of 2 and 3 values) its probabilities agree with the
frozen copy's to 1e-12, its labels are the same, and so are its
statistics -- random weights make the folded subproblems as distinct as
the unfolded ones, so the memo hits the same subproblems.
"""

import random

import pytest

from reference.ws_tree import WsTree
from repro.core.confidence.exact import ExactConfidenceEngine
from repro.datagen.random_dnf import random_dnf
from repro.errors import CostBudgetExceededError

EXACT = 1e-12


def series():
    """(clause count, domain size, lineage, registry) of the series, one
    generator seeded with 7; from half as many to twice as many variables
    as clauses, so that some variables occur once and some many times."""
    rng = random.Random(7)
    for domain_size in (2, 3):
        for m in range(10, 31):
            n_variables = rng.choice((m // 2, m, 2 * m))
            lineage, registry = random_dnf(
                n_variables, m, rng.randint(2, 4), rng, domain_size=domain_size
            )
            yield m, domain_size, lineage, registry


SERIES = list(series())


@pytest.mark.parametrize("m, domain_size, lineage, registry", SERIES)
def test_the_folded_recursion_matches_the_frozen_one(m, domain_size, lineage, registry):
    engine, frozen = ExactConfidenceEngine(registry), WsTree(registry)
    # Twice: the second call answers from the memo in both.
    for _ in range(2):
        assert engine.probability(lineage) == pytest.approx(
            frozen.probability(lineage), rel=0, abs=EXACT
        )
        assert engine.label == frozen.label
        assert vars(engine.statistics) == vars(frozen.statistics)


def test_the_series_folds_and_eliminates():
    folded, labels = 0, set()
    for _, _, lineage, registry in SERIES:
        counts = {}
        for clause in lineage:
            for var, _ in clause:
                counts[var] = counts.get(var, 0) + 1
        folded += sum(1 for count in counts.values() if count == 1)
        engine = ExactConfidenceEngine(registry)
        engine.probability(lineage)
        labels.add(engine.label)
    assert folded > 2 * len(SERIES)
    assert "exact" in labels


@pytest.mark.parametrize("budget", [1, 5, 40])
def test_a_blown_budget_leaves_no_trace(budget):
    """Over the series, with both calls of a lineage on one engine loaded
    with all of it, a call that exceeds the budget raises where the frozen
    copy's does, and leaves the counters and the memo as they were."""

    def engines():
        engine = ExactConfidenceEngine(registry, max_subproblems=budget)
        engine.load(lineage)
        return engine, WsTree(registry, max_subproblems=budget)

    outcomes = set()
    for _, _, lineage, registry in SERIES:
        engine, frozen = engines()
        for clauses in (lineage[: len(lineage) // 2], lineage):
            before = dict(vars(engine.statistics))
            memo = dict(engine._memo)
            try:
                p = engine.probability(clauses)
            except CostBudgetExceededError:
                with pytest.raises(CostBudgetExceededError):
                    frozen.probability(clauses)
                assert vars(engine.statistics) == before
                assert engine._memo == memo
                # The frozen copy keeps what its partial run counted.
                engine, frozen = engines()
                outcomes.add("blown")
                continue
            assert p == pytest.approx(frozen.probability(clauses), rel=0, abs=EXACT)
            assert vars(engine.statistics) == vars(frozen.statistics)
            outcomes.add("answered")
    assert outcomes == {"blown", "answered"}


def test_a_load_folds_across_calls():
    """Once clauses are loaded, a variable is folded only when it occurs
    once among all of them: the calls then share memo entries as the
    frozen copy's do."""
    rng = random.Random(11)
    for _ in range(20):
        lineage, registry = random_dnf(8, 12, 3, rng)
        halves = (lineage[:6], lineage[6:], lineage[3:9], lineage)
        engine = ExactConfidenceEngine(registry)
        engine.load(lineage)
        frozen = WsTree(registry)
        for clauses in halves:
            assert engine.probability(clauses) == pytest.approx(
                frozen.probability(clauses), rel=0, abs=EXACT
            )
            assert engine.label == frozen.label
        assert vars(engine.statistics) == vars(frozen.statistics)
