"""Run-to-run statistics for the benchmark: medians, quartiles and the
spread check that proves a workload steady.

The spread of a metric over several runs is the distance between its
first and third quartile, as statistics.quantiles(values, n=4) gives
them, divided by the median. A metric is steady when that spread stays
within its bound from BENCHMARK.json.
"""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) with Python's default (exclusive) quantile method."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def worse_by(first_median, second_median, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    if better == "lower":
        return (second_median - first_median) / first_median
    return (first_median - second_median) / first_median


def check_spread(values, bound, target_share=1.0 / 3.0):
    """Return (spread, within_bound, within_target) for one metric; the
    target is the share of the bound a steady benchmark should stay under."""
    s = spread(values)
    return s, s <= bound, s <= bound * target_share
