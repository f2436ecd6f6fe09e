"""The tail rule, and the quartile spread of a run's samples."""

import random

import pytest

import stats


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (40, 75.0), (100, 90.0),
                                           (1000, 99.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, percentile):
    values = list(range(n))
    random.Random(n).shuffle(values)
    value, pct, count = stats.tail(values)
    assert count == n
    assert pct == pytest.approx(percentile)
    assert sum(1 for v in values if v > value) == 10


def test_no_tail_without_enough_samples():
    assert stats.tail(range(10)) is None


def test_spread_is_the_quartile_distance_over_the_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    q1, q2, q3 = 2.5, 5.0, 7.5  # statistics.quantiles' default (exclusive) method
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([3.0]) == 0.0
