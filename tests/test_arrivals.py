"""Unit tests for arrival processes and fairness calibration."""

import numpy as np
import pytest

from repro.core.fairness import hourly_counts, jain_fairness
from repro.synth.arrivals import (
    DoublyStochasticArrivals,
    cv_for_fairness,
    diurnal_profile,
)

DAY = 86400.0


class TestCvForFairness:
    def test_fairness_one_gives_zero_cv(self):
        assert cv_for_fairness(1.0, 1e9) == pytest.approx(0.0, abs=1e-3)

    def test_lower_fairness_larger_cv(self):
        assert cv_for_fairness(0.1, 100) > cv_for_fairness(0.5, 100)

    def test_roundtrip(self):
        # f = 1/(1 + cv^2 + 1/mu)
        cv = cv_for_fairness(0.35, 45)
        f = 1.0 / (1.0 + cv**2 + 1.0 / 45)
        assert f == pytest.approx(0.35, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            cv_for_fairness(0.0, 10)
        with pytest.raises(ValueError):
            cv_for_fairness(0.5, 0)


class TestDiurnalProfile:
    def test_mean_one(self):
        hours = np.arange(24)
        profile = diurnal_profile(hours, amplitude=0.5)
        assert profile.mean() == pytest.approx(1.0, abs=1e-9)

    def test_peak_at_peak_hour(self):
        hours = np.arange(24)
        profile = diurnal_profile(hours, amplitude=0.5, peak_hour=14.0)
        assert np.argmax(profile) == 14

    def test_zero_amplitude_flat(self):
        profile = diurnal_profile(np.arange(24), amplitude=0.0)
        np.testing.assert_allclose(profile, 1.0)

    def test_bad_amplitude(self):
        with pytest.raises(ValueError):
            diurnal_profile(np.arange(24), amplitude=1.0)


class TestDoublyStochastic:
    def test_mean_rate(self):
        rng = np.random.default_rng(2)
        proc = DoublyStochasticArrivals(mean_per_hour=200.0, target_cv=0.3)
        times = proc.generate(rng, 10 * DAY)
        assert len(times) / (10 * 24) == pytest.approx(200, rel=0.1)

    def test_fairness_calibration(self):
        """Generated streams land near the requested fairness index."""
        rng = np.random.default_rng(3)
        for target_f, mu in ((0.9, 300.0), (0.35, 60.0)):
            proc = DoublyStochasticArrivals(
                mean_per_hour=mu, target_cv=cv_for_fairness(target_f, mu)
            )
            times = proc.generate(rng, 30 * DAY)
            f = jain_fairness(hourly_counts(times, 30 * DAY))
            assert f == pytest.approx(target_f, abs=0.12)

    def test_busy_window_raises_rate(self):
        rng = np.random.default_rng(4)
        proc = DoublyStochasticArrivals(
            mean_per_hour=100.0,
            busy_window=(0.0, DAY),
            busy_factor=3.0,
        )
        times = proc.generate(rng, 2 * DAY)
        in_window = np.count_nonzero(times < DAY)
        out_window = len(times) - in_window
        assert in_window > 2 * out_window

    def test_hourly_rates_shape(self):
        rng = np.random.default_rng(5)
        proc = DoublyStochasticArrivals(
            mean_per_hour=10.0, target_cv=1.0, diurnal_amplitude=0.5
        )
        rates = proc.hourly_rates(rng, 48)
        assert rates.shape == (48,)
        assert np.all(rates >= 0)

    def test_diurnal_periodicity_visible(self):
        rng = np.random.default_rng(6)
        proc = DoublyStochasticArrivals(
            mean_per_hour=1000.0, target_cv=0.0, diurnal_amplitude=0.8
        )
        counts = hourly_counts(proc.generate(rng, 10 * DAY), 10 * DAY)
        by_hour = counts.reshape(-1, 24).mean(axis=0)
        # Peak hour (14) should far exceed the trough (2).
        assert by_hour[14] > 2 * by_hour[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            DoublyStochasticArrivals(mean_per_hour=0.0)
        with pytest.raises(ValueError):
            DoublyStochasticArrivals(mean_per_hour=1.0, target_cv=-1.0)
        with pytest.raises(ValueError):
            DoublyStochasticArrivals(mean_per_hour=1.0, busy_factor=0.0)

    def test_iter_generate_bit_identical_to_generate(self):
        # Golden stream-equivalence: concatenating the bounded blocks
        # must reproduce the one-shot draw bit for bit, whatever the
        # block size (including blocks smaller than an hour's count and
        # one block covering the whole horizon).
        proc = DoublyStochasticArrivals(
            mean_per_hour=500.0,
            target_cv=0.9,
            diurnal_amplitude=0.05,
            busy_window=(2 * 3600.0, 20 * 3600.0),
            busy_factor=1.5,
        )
        horizon = 2 * DAY + 123.0
        want = proc.generate(np.random.default_rng(np.random.SeedSequence(11)), horizon)
        for block_tasks in (1, 137, 10_000, 10**9):
            got = np.concatenate(
                list(
                    proc.iter_generate(
                        np.random.default_rng(np.random.SeedSequence(11)),
                        horizon,
                        block_tasks=block_tasks,
                    )
                )
            )
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_iter_generate_validation(self):
        proc = DoublyStochasticArrivals(mean_per_hour=10.0)
        with pytest.raises(ValueError):
            list(proc.iter_generate(np.random.default_rng(0), -1.0))
        with pytest.raises(ValueError):
            list(proc.iter_generate(np.random.default_rng(0), DAY, block_tasks=0))
