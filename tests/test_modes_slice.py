"""Unit tests for load-mode discovery and trace slicing."""

import numpy as np
import pytest

from repro.hostload.modes import (
    FEATURE_NAMES,
    discover_modes,
    kmeans,
    machine_features,
)
from repro.traces.slice import downsample_usage, select_machines, slice_time


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


@pytest.fixture(scope="module")
def trace():
    from repro.synth import GoogleConfig, generate_google_trace

    return generate_google_trace(
        horizon=8 * 3600.0,
        num_machines=10,
        seed=0,
        tasks_per_hour=120.0,
        config=GoogleConfig(busy_window=None),
    )


class TestSliceTime:
    def test_window_rebased(self, trace):
        sliced = slice_time(trace, 3600.0, 7200.0)
        assert sliced.horizon == 3600.0
        if len(sliced.task_events):
            assert sliced.task_events["time"].min() >= 0
            assert sliced.task_events["time"].max() < 3600.0

    def test_validates_after_slicing(self, trace):
        from repro.traces.validate import validate_trace

        sliced = slice_time(trace, 0.0, 4 * 3600.0)
        # Event sequences may start mid-lifecycle after slicing, so
        # skip the order check but keep every structural invariant.
        validate_trace(sliced, check_event_order=False)

    def test_event_count_shrinks(self, trace):
        sliced = slice_time(trace, 3600.0, 7200.0)
        assert len(sliced.task_events) < len(trace.task_events)

    def test_bad_window_rejected(self, trace):
        with pytest.raises(ValueError):
            slice_time(trace, -1.0, 100.0)
        with pytest.raises(ValueError):
            slice_time(trace, 100.0, 100.0)
        with pytest.raises(ValueError):
            slice_time(trace, 0.0, trace.horizon * 2)


class TestSelectMachines:
    def test_subset(self, trace):
        sub = select_machines(trace, [0, 1, 2])
        assert sub.num_machines == 3
        placed = sub.task_events.select(sub.task_events["machine_id"] >= 0)
        assert set(np.unique(placed["machine_id"]).tolist()) <= {0, 1, 2}
        assert set(np.unique(sub.task_usage["machine_id"]).tolist()) <= {0, 1, 2}

    def test_unplaced_events_kept(self, trace):
        sub = select_machines(trace, [0])
        submits = sub.task_events.select(sub.task_events["machine_id"] == -1)
        assert len(submits) > 0

    def test_unknown_machine_rejected(self, trace):
        with pytest.raises(KeyError):
            select_machines(trace, [999])
        with pytest.raises(ValueError):
            select_machines(trace, [])


class TestDownsample:
    def test_factor_one_identity(self, trace):
        assert downsample_usage(trace, 1) is trace

    def test_row_count_shrinks(self, trace):
        coarse = downsample_usage(trace, 4)
        assert len(coarse.task_usage) < len(trace.task_usage)

    def test_total_cpu_time_preserved(self, trace):
        us = trace.task_usage
        fine_cpu_time = float(
            (np.asarray(us["cpu_usage"])
             * (np.asarray(us["end_time"]) - np.asarray(us["start_time"]))).sum()
        )
        coarse = downsample_usage(trace, 6).task_usage
        # Weighted means over merged spans: cpu*length must be close
        # (merged span >= covered length, so allow slack from gaps).
        coarse_cpu_time = float(
            (np.asarray(coarse["cpu_usage"])
             * (np.asarray(coarse["end_time"]) - np.asarray(coarse["start_time"]))).sum()
        )
        assert coarse_cpu_time >= fine_cpu_time * 0.95

    def test_bad_factor(self, trace):
        with pytest.raises(ValueError):
            downsample_usage(trace, 0)
