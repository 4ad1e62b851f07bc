"""Unit tests for host-load series, max loads, queues, levels, bands."""

import numpy as np
import pytest

from repro.hostload import (
    all_machine_series,
    band_share,
    band_usage,
    duration_stats_by_level,
    level_snapshot,
    machine_queue_state,
    machine_series,
    max_load_by_capacity,
    pooled_level_durations,
    running_state_durations,
    task_spans,
    usage_mass_count,
)
from repro.traces.schema import TaskEvent


@pytest.fixture(scope="module")
def sim(tiny_sim_result):
    _, result = tiny_sim_result
    return result


@pytest.fixture(scope="module")
def series(sim):
    return all_machine_series(sim.machine_usage, sim.machines)


class TestMachineSeries:
    def test_all_machines_present(self, sim, series):
        assert len(series) == sim.machines.num_rows

    def test_single_machine_matches_bulk(self, sim, series):
        single = machine_series(sim.machine_usage, sim.machines, 0)
        np.testing.assert_array_equal(single.times, series[0].times)
        np.testing.assert_array_equal(single.cpu, series[0].cpu)

    def test_relative_bounded(self, series):
        for s in series.values():
            for attr in ("cpu", "mem", "mem_assigned", "page_cache"):
                rel = s.relative(attr)
                assert np.all((rel >= 0) & (rel <= 1))

    def test_relative_unknown_attr(self, series):
        with pytest.raises(ValueError, match="unknown attribute"):
            series[0].relative("bogus")

    def test_max_load(self, series):
        s = series[0]
        assert s.max_load("cpu") == pytest.approx(float(s.cpu.max()))
        with pytest.raises(ValueError):
            s.max_load("bogus")

    def test_unknown_machine_rejected(self, sim):
        with pytest.raises(KeyError):
            machine_series(sim.machine_usage, sim.machines, 999)

    def test_times_sorted(self, series):
        for s in series.values():
            assert np.all(np.diff(s.times) > 0)


class TestMaxLoad:
    def test_grouped_by_capacity(self, series):
        groups = max_load_by_capacity(series, "cpu")
        total = sum(d.num_machines for d in groups.values())
        assert total == len(series)
        for cap, dist in groups.items():
            assert np.all(dist.max_loads <= cap + 1e-9)

    def test_fraction_at_capacity_bounds(self, series):
        groups = max_load_by_capacity(series, "mem")
        for dist in groups.values():
            assert 0 <= dist.fraction_at_capacity() <= 1
            assert 0 <= dist.mean_relative() <= 1 + 1e-9

    def test_unknown_attribute(self, series):
        with pytest.raises(ValueError):
            max_load_by_capacity(series, "bogus")


class TestQueueState:
    def test_running_never_negative(self, sim):
        qs = machine_queue_state(sim.task_events, 0)
        assert qs.running.min() >= 0
        assert np.all(np.diff(qs.finished) >= 0)
        assert np.all(qs.abnormal <= qs.finished)

    def test_sample_piecewise(self, sim):
        qs = machine_queue_state(sim.task_events, 0)
        out = qs.sample(np.array([-5.0]), "running")
        assert out[0] == 0
        mid = qs.times[len(qs.times) // 2]
        out = qs.sample(np.array([mid]), "running")
        assert out[0] >= 0

    def test_unknown_machine(self, sim):
        with pytest.raises(KeyError):
            machine_queue_state(sim.task_events, 12345)

    def test_task_spans_within_horizon(self, sim):
        spans = task_spans(sim.task_events, 0)
        assert np.all(spans["end"] >= spans["start"])
        assert len(spans) > 0

    def test_span_outcomes_terminal_or_open(self, sim):
        spans = task_spans(sim.task_events, 0)
        valid = {
            -1,
            int(TaskEvent.EVICT),
            int(TaskEvent.FAIL),
            int(TaskEvent.FINISH),
            int(TaskEvent.KILL),
            int(TaskEvent.LOST),
        }
        assert set(np.unique(spans["outcome"]).tolist()) <= valid

    def test_running_durations(self, series):
        s = series[0]
        durations = running_state_durations(s.n_running, s.times)
        total = sum(d.sum() for d in durations.values())
        span = s.times[-1] - s.times[0]
        assert total == pytest.approx(span, rel=0.05)


class TestLevels:
    def test_snapshot_shape(self, series):
        snap = level_snapshot(series, "cpu", num_machines=4, seed=0)
        assert snap.levels.shape[0] == 4
        assert snap.levels.shape[1] == len(snap.times)
        occ = snap.level_occupancy()
        assert occ.sum() == pytest.approx(1.0)

    def test_snapshot_all_machines_when_fewer(self, series):
        snap = level_snapshot(series, "cpu", num_machines=10_000)
        assert snap.num_machines == len(series)

    def test_snapshot_empty_rejected(self):
        with pytest.raises(ValueError):
            level_snapshot({}, "cpu")

    def test_pooled_durations(self, series):
        pooled = pooled_level_durations(series, "cpu")
        assert set(pooled) == {0, 1, 2, 3, 4}
        stats = duration_stats_by_level(pooled)
        assert len(stats) == 5
        for s in stats:
            if s.count:
                assert s.avg_minutes > 0
                assert s.joint_ratio[0] + s.joint_ratio[1] == pytest.approx(100)

    def test_usage_mass_count(self, series):
        mc = usage_mass_count(series, "cpu")
        assert 0 < mc.joint_ratio[0] <= 50


class TestPriorityBands:
    def test_band_usage_ordering(self, series):
        for s in series.values():
            all_u = band_usage(s, "cpu", "all")
            mid_high = band_usage(s, "cpu", "mid_high")
            high = band_usage(s, "cpu", "high")
            assert np.all(high <= mid_high + 1e-9)
            assert np.all(mid_high <= all_u + 1e-6)

    def test_band_usage_unknown(self, series):
        with pytest.raises(ValueError):
            band_usage(series[0], "cpu", "bogus")

    def test_band_share_sums(self, series):
        shares = band_share(series, "cpu")
        total = shares["low"] + shares["middle"] + shares["high"]
        assert total == pytest.approx(shares["total"], rel=0.01)
