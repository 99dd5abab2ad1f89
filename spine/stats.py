"""Sample aggregation shared by the runner, the layer pass and compare."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it.  With ``n`` samples,
    about ``n * (1 - fraction)`` of them lie beyond the result -- p99 of
    3000 leaves 29, of a run's 7500 or more at least 74."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the acceptance rule's definition); 0 for fewer than two
    samples.  End-to-end metrics are never 0."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
