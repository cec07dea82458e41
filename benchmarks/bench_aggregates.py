"""C-AGG: esum/ecount are linear while conf is #P-hard.

Section 2.2's justification for the language design: standard aggregates
on uncertain relations are forbidden, but expectations are cheap --
"these aggregates can be efficiently computed using linearity of
expectation", whereas confidence computation is #P-hard.

The experiment feeds both kinds of aggregate the *same* uncertain input
whose lineage gets progressively harder (chained variable sharing, the
regime where the exact engine must branch): esum/ecount stay linear in
the row count; conf's cost grows much faster.
"""

import pytest

from conftest import timed

from repro.core import aggregates as agg
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER


def chained_urelation(n_rows, chain_width=2):
    """Rows whose conditions chain consecutive variables: clause i uses
    variables i..i+width-1.  One payload group, so conf sees one lineage
    with n_rows clauses and heavy variable sharing; esum sees n_rows
    marginals.
    """
    registry = VariableRegistry()
    variables = [registry.fresh([0.6, 0.4]) for _ in range(n_rows + chain_width)]
    schema = Schema.of(("g", INTEGER), ("v", INTEGER))
    rows, conditions = [], []
    for i in range(n_rows):
        rows.append((1, i))
        conditions.append(tuple((variables[i + k], 1) for k in range(chain_width)))
    return URelation.from_conditions(schema, rows, conditions, registry)


def independent_urelation(n_rows):
    """Tuple-independent rows (a fresh variable each): conf's best case."""
    registry = VariableRegistry()
    schema = Schema.of(("g", INTEGER), ("v", INTEGER))
    rows, conditions = [], []
    for i in range(n_rows):
        var = registry.fresh([0.5, 0.5])
        rows.append((1, i))
        conditions.append(((var, 1),))
    return URelation.from_conditions(schema, rows, conditions, registry)


class TestShape:
    def test_expectation_vs_confidence_scaling(self, benchmark, report):
        rows = []
        for n in (50, 100, 200, 400, 800):
            urel = chained_urelation(n)
            esum_s, _ = timed(agg.esum, urel, "v", ["g"])
            ecount_s, _ = timed(agg.ecount, urel, ["g"])
            conf_s, _ = timed(agg.conf, urel, ["g"])
            rows.append((n, esum_s * 1e3, ecount_s * 1e3, conf_s * 1e3))
        report(
            "C-AGG: esum/ecount vs conf on chained lineage (one group)",
            ["rows", "esum_ms", "ecount_ms", "conf_ms"],
            rows,
        )
        # esum stays linear: 16x rows within ~64x time (generous).
        assert rows[-1][1] < rows[0][1] * 64
        # conf costs dramatically more than esum on the same input at the
        # largest size (the #P-hard vs linear separation).
        assert rows[-1][3] > rows[-1][1] * 10
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_expectations_match_closed_form(self):
        urel = chained_urelation(100)
        expected = 0.4 * 0.4  # each condition: two independent atoms at 0.4
        result = agg.ecount(urel, ["g"])
        assert result.rows[0][1] == pytest.approx(100 * expected)

    def test_conf_fast_on_independent_lineage(self, benchmark, report):
        """Balance: on tuple-independent lineage, conf is linear too (the
        decomposition rule fires immediately)."""
        rows = []
        for n in (100, 400, 1600):
            urel = independent_urelation(n)
            conf_s, result = timed(agg.conf, urel, ["g"])
            rows.append((n, conf_s * 1e3, result.rows[0][1]))
        report(
            "C-AGG: conf on tuple-independent lineage (decomposition)",
            ["rows", "conf_ms", "p"],
            rows,
        )
        assert rows[-1][1] < rows[0][1] * 160  # near-linear growth
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)


class TestHeadlineBenchmarks:
    def test_esum_large(self, benchmark):
        urel = chained_urelation(2000)
        result = benchmark(agg.esum, urel, "v", ["g"])
        assert len(result) == 1

    def test_ecount_large(self, benchmark):
        urel = chained_urelation(2000)
        result = benchmark(agg.ecount, urel, ["g"])
        assert len(result) == 1

    def test_conf_chained(self, benchmark):
        urel = chained_urelation(300)
        result = benchmark.pedantic(
            agg.conf, args=(urel, ["g"]), rounds=3, iterations=1
        )
        assert 0.0 <= result.rows[0][1] <= 1.0

    def test_tconf_large(self, benchmark):
        urel = chained_urelation(2000)
        result = benchmark(agg.tconf, urel)
        assert len(result) == 2000
