"""Unit tests for load-mode discovery."""

import numpy as np
import pytest

from repro.hostload.modes import (
    FEATURE_NAMES,
    discover_modes,
    kmeans,
    machine_features,
)


class TestKmeans:
    def test_separates_clear_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, (50, 2))
        b = rng.normal(5.0, 0.1, (50, 2))
        points = np.vstack([a, b])
        labels, centroids = kmeans(points, 2, rng)
        assert len(set(labels[:50])) == 1
        assert len(set(labels[50:])) == 1
        assert labels[0] != labels[50]
        assert centroids.shape == (2, 2)

    def test_k_one_single_cluster(self):
        rng = np.random.default_rng(1)
        labels, centroids = kmeans(rng.random((10, 3)), 1, rng)
        assert np.all(labels == 0)

    def test_k_equals_n(self):
        rng = np.random.default_rng(2)
        points = np.arange(6, dtype=float).reshape(3, 2)
        labels, _ = kmeans(points, 3, rng)
        assert len(set(labels.tolist())) == 3

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 0, rng)
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 6, rng)
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2, rng)

    def test_identical_points_ok(self):
        rng = np.random.default_rng(4)
        labels, _ = kmeans(np.ones((8, 2)), 3, rng)
        assert labels.shape == (8,)


class TestModes:
    def test_features_shape(self, small_series):
        s = next(iter(small_series.values()))
        feats = machine_features(s)
        assert feats.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(feats))

    def test_discover_modes(self, small_series):
        modes = discover_modes(small_series, k=3, seed=0)
        assert modes.num_modes == 3
        assert modes.labels.shape == modes.machine_ids.shape
        assert modes.mode_sizes().sum() == len(small_series)
        descr = modes.describe()
        assert len(descr) == 3
        assert all("cpu_mean" in d for d in descr)

    def test_members_partition(self, small_series):
        modes = discover_modes(small_series, k=2, seed=1)
        all_members = np.sort(
            np.concatenate([modes.members(j) for j in range(2)])
        )
        np.testing.assert_array_equal(all_members, modes.machine_ids)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            discover_modes({}, k=2)

    def test_deterministic(self, small_series):
        a = discover_modes(small_series, k=3, seed=5)
        b = discover_modes(small_series, k=3, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)

