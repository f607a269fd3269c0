"""Order statistics shared by the runner and the A/B comparer."""

import math
import statistics


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` % of the samples at or below it (p66 of 30 is the 20th
    smallest, which leaves ten samples beyond it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them, of two values or more."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
