"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics

#: A tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def tail(values, min_beyond: int = MIN_BEYOND):
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(value, percentile, n)``, or None when there are too few
    samples for any percentile to have ``min_beyond`` beyond it.  The
    value is the sample ranked ``n - min_beyond`` of ``n`` (1-based), so
    exactly ``min_beyond`` samples rank above it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= min_beyond:
        return None
    rank = n - min_beyond
    return xs[rank - 1], 100.0 * rank / n, n


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Quartile spread, (q3 - q1) / median, as the steadiness rule takes it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
