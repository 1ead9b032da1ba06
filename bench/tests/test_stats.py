"""Percentile helpers: nearest rank and the tail fallback."""

import pytest

from bench.stats import MIN_BEYOND, median_iqr, percentile, tail


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_reports_p99_with_enough_samples_beyond():
    samples = [float(i) for i in range(1000)]
    assert tail(samples) == (99, 989.0)
    beyond = sum(s > 989.0 for s in samples)
    assert beyond >= MIN_BEYOND


@pytest.mark.parametrize("n, want", [(999, 98), (500, 98), (200, 95), (40, 75), (20, 50)])
def test_tail_falls_back_when_fewer_than_ten_lie_beyond_p99(n, want):
    samples = [float(i) for i in range(n)]
    pct, value = tail(samples)
    assert pct == want
    assert value == percentile(samples, pct)
    assert n * (100 - pct) >= 100 * MIN_BEYOND
    if pct < 99:  # the next percentile up would not qualify
        assert n * (100 - pct - 1) < 100 * MIN_BEYOND


def test_tail_of_few_samples_is_the_median():
    assert tail([3.0, 1.0, 2.0]) == (50, 2.0)


def test_median_iqr():
    assert median_iqr([1.0]) == (1.0, 0.0)
    med, iqr = median_iqr([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0 and iqr == pytest.approx(3.0)
