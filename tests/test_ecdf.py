"""Unit tests for empirical CDFs and histograms."""

import numpy as np
import pytest

from repro.core.ecdf import ecdf, histogram_counts


class TestECDF:
    def test_simple(self):
        cdf = ecdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25
        assert cdf(2.5) == 0.5
        assert cdf(4.0) == 1.0
        assert cdf(100.0) == 1.0

    def test_duplicates(self):
        cdf = ecdf(np.array([1.0, 1.0, 2.0]))
        assert cdf(1.0) == pytest.approx(2 / 3)

    def test_vector_evaluation(self):
        cdf = ecdf(np.array([1.0, 2.0]))
        out = cdf(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf(np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ecdf(np.array([1.0, np.nan]))

    def test_padded_probabilities_precomputed(self):
        # Hot-loop fix: the 0-padded array is built once at construction
        # and reused identically across evaluations.
        cdf = ecdf(np.array([1.0, 2.0, 3.0]))
        padded = cdf._padded
        np.testing.assert_allclose(padded, [0.0, 1 / 3, 2 / 3, 1.0])
        cdf(np.array([0.5, 2.5]))
        assert cdf._padded is padded

    def test_quantile_inverts(self):
        sample = np.arange(1, 101, dtype=float)
        cdf = ecdf(sample)
        assert cdf.quantile(0.5) == 50.0
        assert cdf.quantile(1.0) == 100.0
        assert cdf.quantile(0.0) == 1.0

    def test_quantile_out_of_range(self):
        cdf = ecdf(np.array([1.0]))
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        cdf = ecdf(rng.normal(size=500))
        assert np.all(np.diff(cdf.probabilities) >= 0)
        assert cdf.probabilities[-1] == pytest.approx(1.0)


class TestHistogramCounts:
    def test_counts(self):
        values = np.array([1, 2, 2, 3, 3, 3])
        out = histogram_counts(values, np.array([1, 2, 3, 4]))
        np.testing.assert_array_equal(out, [1, 2, 3, 0])
