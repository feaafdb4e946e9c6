"""Order statistics shared by the benchmark runner and the comparison tool.

Percentiles use the nearest-rank definition, so every reported value is
one that was actually measured.
"""

import math
import statistics

#: Percentiles a workload may report as its tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is only reported when at least this many samples lie
#: above it; fewer make the value one or two outliers.
MIN_ABOVE = 10


def _rank(n, pct):
    """1-based nearest rank of the ``pct``-th percentile of ``n`` values
    (``pct * n / 100`` keeps e.g. 99.9 % of 10000 exactly 9990)."""
    return max(1, math.ceil(pct * n / 100.0))


def nearest_rank(values, pct):
    """The ``pct``-th percentile of ``values`` by nearest rank."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def samples_above(n, pct):
    """How many of ``n`` samples lie above the ``pct``-th percentile."""
    return n - _rank(n, pct)


def tail_percentile(n):
    """The highest candidate percentile with MIN_ABOVE samples above it.

    Returns None when even the median lacks that many (``n`` < 20).
    """
    for pct in TAIL_CANDIDATES:
        if samples_above(n, pct) >= MIN_ABOVE:
            return pct
    return None


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3
