"""The percentile rule and the spread measures."""

import pytest

from .. import stats


def test_percentile_is_an_observed_sample():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 90) == 5.0
    assert stats.percentile(values, 1) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, highest",
    [(5, 50.0), (99, 50.0), (100, 90.0), (110, 90.0), (999, 90.0), (1000, 99.0), (12000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, highest):
    assert stats.highest_supported(count) == highest
    assert highest == 50.0 or stats.samples_beyond(count, highest) >= stats.MIN_BEYOND


def test_unsupported_percentiles_are_not_reported():
    assert stats.supported(110, 90.0)
    assert not stats.supported(110, 99.0)
    assert not stats.supported(0, 50.0)


def test_spreads():
    values = [10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3]
    assert stats.range_spread(values) == pytest.approx(0.1)
    assert 0.0 < stats.quartile_spread(values) < stats.range_spread(values)
