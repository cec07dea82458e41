"""Confidence computation (Section 2.3).

Computing ``conf`` of a result tuple means computing the probability of
its lineage -- a disjunction of conjunctive local conditions over
independent finite random variables, one clause per duplicate of the
tuple.  This is #P-hard in general.  Every method reads the one clause
form, canonical atom tuples (:data:`repro.core.lineage.Clause`), and SQL
reaches each through one path:

- :mod:`repro.core.confidence.columnar` -- SPROUT's aggregation plan [5]
  as array kernels: every tree-shaped ``conf()`` / ``aconf()`` group of a
  relation in one sort-and-reduce pass over the condition columns;
- :mod:`repro.core.confidence.dispatch` -- the cost-based dispatcher for
  the groups that pass declines, choosing per independent component
  among:

  * :mod:`repro.core.confidence.exact` -- the Koch-Olteanu exact
    algorithm: variable elimination + decomposition into independent
    clause subsets, with cost-estimation heuristics [3], as one recursion
    that labels a run with root eliminations only as SPROUT's safe plan,
    and refuses any other elimination in its root-only mode;
  * :mod:`repro.core.confidence.karp_luby` -- the Karp-Luby unbiased
    estimator adapted to confidence computation, under
    :mod:`repro.core.confidence.dklr` -- the Dagum-Karp-Luby-Ross optimal
    Monte Carlo driver giving the ``aconf(ε,δ)`` guarantee [2].

The exponential oracles (world enumeration, inclusion-exclusion) live
with the tests, in ``tests/reference``.
"""

from repro.core.confidence.exact import ExactConfidenceEngine
from repro.core.confidence.karp_luby import KarpLubyEstimator
from repro.core.confidence.dklr import approximate_confidence
from repro.core.confidence.dispatch import (
    ConfidenceDispatcher,
    DispatchPolicy,
    trace_confidence,
)

__all__ = [
    "ExactConfidenceEngine",
    "KarpLubyEstimator",
    "approximate_confidence",
    "ConfidenceDispatcher",
    "DispatchPolicy",
    "trace_confidence",
]
