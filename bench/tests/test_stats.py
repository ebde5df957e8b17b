import statistics

import pytest

from bench.stats import beyond, percentile, quartiles, spread, tail_quantile


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([7.0], 0.99) == 7.0


@pytest.mark.parametrize("values, q", [([], 0.5), ([1.0], 0.0), ([1.0], 1.5)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


@pytest.mark.parametrize("n, expected", [
    (1000, 0.99),  # exactly ten beyond p99
    (999, 0.95),   # nine beyond p99 is too few
    (200, 0.95),
    (199, 0.9),
    (20, 0.5),
    (19, None),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_quantile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, median, q3)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
