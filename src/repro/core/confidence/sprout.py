"""SPROUT: scalable confidence computation for tractable queries [5].

Section 2.3: "For tractable queries on probabilistic databases, MayBMS
uses the SPROUT codebase for scalable query processing by reduction of
confidence computation to a sequence of SQL-like aggregations."

For hierarchical queries (the variables' clause sets are nested or
disjoint) confidence computation reduces to two aggregation flavours:

- **independent join**: events over disjoint variable sets are
  independent, so P(⋁) = 1 − ∏(1 − pᵢ);
- **independent project**: the values of a *root variable* (one that
  occurs in every clause of a connected component) are mutually
  exclusive, so the probability is a sum over them.

SQL ``conf()`` runs this plan in two places.  The array pass
(:mod:`repro.core.confidence.columnar`) evaluates every tree-shaped group
of a relation at once, as one sort and a few segmented reductions over
the condition columns.  Per lineage, for the groups the array pass
declined (and for every group of a relation below the array kernels'
size threshold), the plan is the exact
ws-tree recursion of :mod:`repro.core.confidence.exact` restricted to
root eliminations: its heuristic eliminates a root whenever one exists,
so a lineage it evaluates with root eliminations only is labelled
``sprout``.  :func:`safe_lineage_confidence` runs that recursion in the
mode that refuses any other elimination.
"""

from __future__ import annotations

from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.lineage import Lineage


def safe_lineage_confidence(lineage: Lineage) -> float:
    """P(lineage) via SPROUT-style safe evaluation on the lineage IR.

    Independent components multiply, and a connected component is
    expanded on a root variable (occurring in every clause), recursively;
    single clauses and fully independent clause sets finish in closed
    form.  Every step removes a variable from each clause it keeps, so the
    work is polynomial.  It completes on every hierarchical lineage (the
    variables' clause sets are laminar); a connected component with no
    root variable raises
    :class:`~repro.errors.UnsafeLineageError`.
    """
    engine = ExactConfidenceEngine(lineage.arena.registry)
    return engine.probability(lineage, roots_only=True)
