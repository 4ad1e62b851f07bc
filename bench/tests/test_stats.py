import statistics

import pytest

import stats


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.median(values) == statistics.median(values)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_quartiles_of_one_value():
    assert stats.quartiles([2.5]) == (2.5, 2.5)
    assert stats.spread([2.5]) == 0.0


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (10.0, 11.0, "lower", 0.1),
        (10.0, 9.0, "lower", -0.1),
        (0.5, 0.4, "higher", 0.2),
        (0.5, 0.6, "higher", -0.2),
    ],
)
def test_worse_by_follows_direction(parent, change, better, expected):
    assert stats.worse_by(parent, change, better) == pytest.approx(expected)


def test_verdict_better_needs_ten_pairs_nine_wins_and_gap_beyond_iqr():
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [9.0 + 0.01 * i for i in range(10)]
    assert stats.verdict(parent, change, 0.1, "lower") == "better"
    # Nine pairs are too few to claim anything.
    assert stats.verdict(parent[:9], change[:9], 0.1, "lower") == "unchanged"
    # Two lost pairs out of ten: below nine tenths.
    mixed = change[:8] + [10.5, 10.6]
    assert stats.verdict(parent, mixed, 0.1, "lower") != "better"


def test_verdict_better_needs_gap_beyond_parent_iqr():
    parent = [10.0, 12.0] * 5
    change = [p - 0.1 for p in parent]  # wins every pair, but inside the IQR
    assert stats.verdict(parent, change, 0.5, "lower") == "unchanged"


def test_verdict_worse_beyond_bound():
    parent = [10.0] * 10
    assert stats.verdict(parent, [10.5] * 10, 0.1, "lower") == "unchanged"
    assert stats.verdict(parent, [11.5] * 10, 0.1, "lower") == "worse"
    assert stats.verdict([0.9] * 10, [0.7] * 10, 0.1, "higher") == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    parent = [8.0, 10.0, 12.0, 9.0, 11.0]
    change = [8.5, 10.5, 12.5, 9.5, 11.5]
    assert stats.verdict(parent, change, 0.1, "lower") == "unresolved"
    # Unless every change run beats every parent run.
    assert stats.verdict(parent, [c - 5 for c in change], 0.1, "lower") != "unresolved"
