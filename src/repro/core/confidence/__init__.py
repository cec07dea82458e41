"""Confidence computation (Section 2.3).

Computing ``conf`` of a result tuple means computing the probability of
its lineage -- a disjunction of conjunctive local conditions over
independent finite random variables, one clause per duplicate of the
tuple.  This is #P-hard in general.  Every method takes the one lineage
type, :class:`repro.core.lineage.Lineage`, and SQL reaches each through
one path:

- :mod:`repro.core.confidence.columnar` -- SPROUT's aggregation plan [5]
  as array kernels: every tree-shaped ``conf()`` / ``aconf()`` group of a
  relation in one sort-and-reduce pass over the condition columns;
- :mod:`repro.core.confidence.dispatch` -- the cost-based dispatcher for
  the groups that pass declines, choosing per independent component
  among:

  * :mod:`repro.core.confidence.exact` -- the Koch-Olteanu exact
    algorithm: variable elimination + decomposition into independent
    clause subsets, with cost-estimation heuristics [3], as one recursion
    that labels a run with root eliminations only as SPROUT's safe plan;
  * :mod:`repro.core.confidence.sprout` -- that recursion's root-only
    mode on one lineage (:func:`safe_lineage_confidence`);
  * :mod:`repro.core.confidence.karp_luby` -- the Karp-Luby unbiased
    estimator adapted to confidence computation, under
    :mod:`repro.core.confidence.dklr` -- the Dagum-Karp-Luby-Ross optimal
    Monte Carlo driver giving the ``aconf(ε,δ)`` guarantee [2];

- :mod:`repro.core.confidence.naive` -- exponential oracles (enumeration,
  inclusion-exclusion) used for testing.
"""

from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.karp_luby import KarpLubyEstimator
from repro.core.confidence.dklr import approximate_confidence
from repro.core.confidence.dispatch import (
    ConfidenceDispatcher,
    DispatchPolicy,
    trace_confidence,
)
from repro.core.confidence.naive import (
    confidence_by_enumeration,
    confidence_by_inclusion_exclusion,
)
from repro.core.confidence.sprout import safe_lineage_confidence

__all__ = [
    "ExactConfidenceEngine",
    "KarpLubyEstimator",
    "approximate_confidence",
    "ConfidenceDispatcher",
    "DispatchPolicy",
    "trace_confidence",
    "confidence_by_enumeration",
    "confidence_by_inclusion_exclusion",
    "safe_lineage_confidence",
]
