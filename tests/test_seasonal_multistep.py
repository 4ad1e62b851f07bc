"""Unit tests for multi-step prediction evaluation."""

import numpy as np
import pytest

from repro.prediction import LastValue, evaluate_predictor

DAY_SAMPLES = 288  # one day of 5-minute samples


def _diurnal(days=6, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(days * DAY_SAMPLES)
    return (
        0.5
        + 0.3 * np.sin(2 * np.pi * t / DAY_SAMPLES)
        + noise * rng.standard_normal(t.size)
    )


class TestMultiStep:
    def test_horizon_one_matches_default(self):
        signal = _diurnal(days=2)
        a = evaluate_predictor(LastValue(), signal)
        b = evaluate_predictor(LastValue(), signal, horizon=1)
        assert a.mse == b.mse

    def test_error_grows_with_horizon_on_drifting_signal(self):
        signal = _diurnal(days=4, noise=0.0)
        errors = [
            evaluate_predictor(LastValue(), signal, horizon=h).mse
            for h in (1, 6, 24)
        ]
        assert errors[0] < errors[1] < errors[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_predictor(LastValue(), np.zeros(100), horizon=0)
        with pytest.raises(ValueError):
            evaluate_predictor(LastValue(), np.zeros(3), horizon=10)

    def test_cloud_harder_at_short_horizon(self):
        """Paper conclusion: noisy Cloud load predicts far worse than
        stable Grid load at the native 5-minute horizon."""
        from repro.synth import generate_grid_host_series

        rng = np.random.default_rng(2)
        cloud = 0.35 * (1 + 0.1 * rng.standard_normal(2000))
        _, grid, _ = generate_grid_host_series(2000 * 300.0, seed=3)
        c = evaluate_predictor(LastValue(), cloud, horizon=1)
        g = evaluate_predictor(LastValue(), grid[:2000], horizon=1)
        assert c.mse > 3 * g.mse

    def test_grid_degrades_with_horizon(self):
        """Step-function Grid load: persistence errors grow as the
        horizon crosses level changes."""
        from repro.synth import generate_grid_host_series

        _, grid, _ = generate_grid_host_series(2000 * 300.0, seed=3)
        short = evaluate_predictor(LastValue(), grid[:2000], horizon=1)
        long = evaluate_predictor(LastValue(), grid[:2000], horizon=12)
        assert long.mse > short.mse
