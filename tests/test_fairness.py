"""Unit tests for Jain fairness and submission-rate statistics."""

import numpy as np
import pytest

from repro.core.fairness import (
    hourly_counts,
    jain_fairness,
    submission_rate_stats,
)


class TestJainFairness:
    def test_equal_allocation_is_one(self):
        assert jain_fairness(np.full(10, 7.0)) == pytest.approx(1.0)

    def test_single_user_hoard(self):
        # One nonzero of n -> fairness = 1/n.
        x = np.zeros(10)
        x[0] = 5.0
        assert jain_fairness(x) == pytest.approx(0.1)

    def test_all_zero_is_one(self):
        assert jain_fairness(np.zeros(4)) == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 50)
        f = jain_fairness(x)
        assert 1 / 50 <= f <= 1.0

    def test_scale_invariant(self):
        x = np.array([1.0, 2.0, 3.0])
        # At 1e-170 the squares underflow to zero; the index stays put.
        for factor in (10.0, 1e-170):
            assert jain_fairness(x) == pytest.approx(jain_fairness(factor * x))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness(np.array([-1.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness(np.array([]))


class TestHourlyCounts:
    def test_binning(self):
        times = np.array([0.0, 10.0, 3600.0, 7100.0, 7200.0])
        counts = hourly_counts(times, horizon=3 * 3600.0)
        np.testing.assert_array_equal(counts, [2, 2, 1])

    def test_total_preserved(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(0, 86400, 500)
        counts = hourly_counts(times, horizon=86400.0)
        assert counts.sum() == 500
        assert len(counts) == 24

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            hourly_counts(np.array([-1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hourly_counts(np.array([]))

    def test_submit_at_horizon_clamped(self):
        counts = hourly_counts(np.array([3600.0]), horizon=3600.0)
        assert counts.sum() == 1


class TestSubmissionRateStats:
    def test_poisson_stream_near_one_fairness(self):
        rng = np.random.default_rng(2)
        # 500/hour Poisson for 3 days.
        times = np.sort(rng.uniform(0, 3 * 86400, 500 * 72))
        stats = submission_rate_stats(times, horizon=3 * 86400.0)
        assert stats.avg_per_hour == pytest.approx(500, rel=0.05)
        assert stats.fairness > 0.95

    def test_bursty_stream_low_fairness(self):
        # Everything in one hour of a week.
        times = np.linspace(0, 3000, 1000)
        stats = submission_rate_stats(times, horizon=7 * 86400.0)
        assert stats.fairness < 0.02
        assert stats.min_per_hour == 0

    def test_fields(self):
        stats = submission_rate_stats(np.array([0.0, 1.0]), horizon=7200.0)
        assert stats.max_per_hour == 2
        assert stats.min_per_hour == 0
        assert stats.avg_per_hour == 1.0
