"""Order statistics for the benchmark's reports.

Percentiles use the nearest-rank definition, so a virtual-time
percentile is always one of the measured samples and is exact for a
given seed. A tail percentile is reported only where at least
:data:`MIN_BEYOND` samples lie beyond it; :func:`tail` falls back to the
highest percentile that qualifies and says which one it used.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ``samples`` (non-empty)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float], want: int = 99) -> tuple[int, float]:
    """The highest whole percentile ``<= want`` with at least
    :data:`MIN_BEYOND` samples beyond it, and its value.

    ``n`` samples put ``n * (100 - p) / 100`` of them beyond the p-th
    percentile. When even the median does not qualify (fewer than 20
    samples), the median is returned.
    """
    n = len(samples)
    for pct in range(want, 50, -1):
        if n * (100 - pct) >= 100 * MIN_BEYOND:
            return pct, percentile(samples, pct)
    return 50, percentile(samples, 50)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; all
    three are the value itself for a single value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def median_iqr(values: Sequence[float]) -> tuple[float, float]:
    """Median and interquartile distance (0 for a single value)."""
    q1, med, q3 = quartiles(values)
    return med, q3 - q1
