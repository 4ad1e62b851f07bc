"""Unit tests for the distribution toolkit."""

import numpy as np
import pytest

from repro.core.distributions import (
    BoundedPareto,
    Deterministic,
    Exponential,
    LogNormal,
    Mixture,
    Uniform,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestDeterministic:
    def test_sample(self, rng):
        d = Deterministic(5.0)
        assert np.all(d.sample(rng, 10) == 5.0)
        assert d.mean() == 5.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Deterministic(-1.0)


class TestExponential:
    def test_mean(self, rng):
        d = Exponential(100.0)
        sample = d.sample(rng, 100_000)
        assert sample.mean() == pytest.approx(100.0, rel=0.02)
        assert d.mean() == 100.0

    def test_positive(self, rng):
        assert np.all(Exponential(1.0).sample(rng, 1000) >= 0)

    def test_bad_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)


class TestUniform:
    def test_bounds(self, rng):
        d = Uniform(2.0, 4.0)
        sample = d.sample(rng, 1000)
        assert sample.min() >= 2.0 and sample.max() < 4.0
        assert d.mean() == 3.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            Uniform(4.0, 2.0)


class TestLogNormal:
    def test_median(self, rng):
        d = LogNormal(median=100.0, sigma=1.0)
        sample = d.sample(rng, 100_000)
        assert np.median(sample) == pytest.approx(100.0, rel=0.03)

    def test_analytic_mean(self, rng):
        d = LogNormal(median=10.0, sigma=0.5)
        sample = d.sample(rng, 200_000)
        assert sample.mean() == pytest.approx(d.mean(), rel=0.02)

    def test_truncation(self, rng):
        d = LogNormal(median=100.0, sigma=2.0, low=10.0, high=1000.0)
        sample = d.sample(rng, 5000)
        assert sample.min() >= 10.0
        assert sample.max() <= 1000.0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            LogNormal(median=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            LogNormal(median=1.0, sigma=1.0, low=5.0, high=2.0)


class TestBoundedPareto:
    def test_bounds(self, rng):
        d = BoundedPareto(alpha=0.5, low=1.0, high=100.0)
        sample = d.sample(rng, 10_000)
        assert sample.min() >= 1.0
        assert sample.max() <= 100.0

    def test_analytic_mean(self, rng):
        d = BoundedPareto(alpha=0.35, low=1.0, high=1e5)
        sample = d.sample(rng, 400_000)
        assert sample.mean() == pytest.approx(d.mean(), rel=0.02)

    def test_alpha_one_mean(self, rng):
        d = BoundedPareto(alpha=1.0, low=1.0, high=100.0)
        sample = d.sample(rng, 400_000)
        assert sample.mean() == pytest.approx(d.mean(), rel=0.02)

    def test_heavy_tail(self, rng):
        # Smaller alpha -> larger mean for the same bounds.
        heavy = BoundedPareto(alpha=0.3, low=1.0, high=1e6)
        light = BoundedPareto(alpha=1.5, low=1.0, high=1e6)
        assert heavy.mean() > light.mean()

    def test_bad_params(self):
        with pytest.raises(ValueError):
            BoundedPareto(alpha=0.0, low=1.0, high=2.0)
        with pytest.raises(ValueError):
            BoundedPareto(alpha=1.0, low=2.0, high=1.0)


class TestMixture:
    def test_mean(self, rng):
        m = Mixture(
            [Deterministic(1.0), Deterministic(10.0)], [0.5, 0.5]
        )
        sample = m.sample(rng, 100_000)
        assert sample.mean() == pytest.approx(5.5, rel=0.02)
        assert m.mean() == pytest.approx(5.5)

    def test_components_respected(self, rng):
        m = Mixture([Uniform(0.0, 1.0), Uniform(10.0, 11.0)], [0.3, 0.7])
        sample = m.sample(rng, 10_000)
        in_low = np.count_nonzero(sample < 1.0) / sample.size
        assert in_low == pytest.approx(0.3, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mixture([Deterministic(1.0)], [0.5])
        with pytest.raises(ValueError):
            Mixture([], [])

    def test_reproducible(self):
        m = Mixture([Exponential(5.0), Exponential(50.0)], [0.5, 0.5])
        a = m.sample(np.random.default_rng(3), 100)
        b = m.sample(np.random.default_rng(3), 100)
        np.testing.assert_array_equal(a, b)
