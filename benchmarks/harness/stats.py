"""Percentiles and spreads, with the sample-count rule applied."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only if at least this many samples lie beyond it.
MIN_BEYOND = 10
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` %
    of the samples at or below it (always a value that was observed)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supported(count: int, q: float) -> bool:
    return count > 0 and (q <= 50.0 or samples_beyond(count, q) >= MIN_BEYOND)


def highest_supported(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` that ``count`` samples support."""
    best = None
    for q in PERCENTILES:
        if supported(count, q):
            best = q
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the steadiness measure of the benchmark contract."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def range_spread(values: Sequence[float]) -> float:
    """(max − min) ÷ median: the run-to-run spread ``compare`` sets against
    a metric's bound."""
    return (max(values) - min(values)) / statistics.median(values)
