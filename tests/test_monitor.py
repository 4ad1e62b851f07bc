"""Unit tests for the usage monitor."""

import numpy as np
import pytest

from repro.sim.monitor import (
    CLUSTER_SERIES_SCHEMA,
    MACHINE_USAGE_SCHEMA,
    MonitorConfig,
    UsageMonitor,
)
from repro.core.table import Table
from tests.oracles import FleetState, SimTask


def _fleet(n=3):
    return FleetState(
        Table(
            {
                "machine_id": np.arange(n, dtype=np.int64),
                "cpu_capacity": np.ones(n),
                "mem_capacity": np.ones(n),
                "page_cache_capacity": np.ones(n),
            }
        )
    )


def _task(job=0, band=1, cpu=0.2, mem=0.3):
    return SimTask(
        job_id=job,
        task_index=0,
        priority=6 if band == 1 else (10 if band == 2 else 2),
        band=band,
        cpu_request=cpu,
        mem_request=mem,
        duration=100.0,
        cpu_eff=cpu * 0.5,
        mem_eff=mem * 0.9,
        page_cache=0.01,
        fate=4,
        submit_time=0.0,
    )


class TestUsageMonitor:
    def test_empty_tables(self):
        fleet = _fleet()
        monitor = UsageMonitor(fleet, MonitorConfig(), np.random.default_rng(0))
        mu = monitor.machine_usage_table()
        cs = monitor.cluster_series_table()
        assert len(mu) == 0
        assert len(cs) == 0
        assert set(mu.column_names) == set(MACHINE_USAGE_SCHEMA)
        assert set(cs.column_names) == set(CLUSTER_SERIES_SCHEMA)

    def test_sample_records_all_machines(self):
        fleet = _fleet(4)
        monitor = UsageMonitor(fleet, MonitorConfig(), np.random.default_rng(1))
        monitor.sample(0.0, n_pending=2, n_finished=1, n_abnormal=0)
        monitor.sample(300.0, n_pending=0, n_finished=3, n_abnormal=1)
        mu = monitor.machine_usage_table()
        assert len(mu) == 8
        cs = monitor.cluster_series_table()
        assert len(cs) == 2
        np.testing.assert_array_equal(cs["n_pending"], [2, 0])

    def test_zero_noise_matches_base(self):
        fleet = _fleet(1)
        task = _task()
        fleet.start(0, task)
        config = MonitorConfig(
            cpu_noise=0.0, mem_noise=0.0, page_noise=0.0, cpu_spike_prob=0.0
        )
        monitor = UsageMonitor(fleet, config, np.random.default_rng(2))
        monitor.sample(0.0, 0, 0, 0)
        mu = monitor.machine_usage_table()
        assert mu["cpu_usage"][0] == pytest.approx(task.cpu_eff)
        assert mu["mem_usage"][0] == pytest.approx(task.mem_eff)
        assert mu["mem_assigned"][0] == pytest.approx(task.mem_request)

    def test_band_columns_consistent(self):
        fleet = _fleet(1)
        fleet.start(0, _task(job=1, band=0, cpu=0.1))
        fleet.start(0, _task(job=2, band=1, cpu=0.1))
        fleet.start(0, _task(job=3, band=2, cpu=0.1))
        config = MonitorConfig(
            cpu_noise=0.0, mem_noise=0.0, page_noise=0.0, cpu_spike_prob=0.0
        )
        monitor = UsageMonitor(fleet, config, np.random.default_rng(3))
        monitor.sample(0.0, 0, 0, 0)
        mu = monitor.machine_usage_table()
        # Three equal tasks, one per band: mid_high = 2/3, high = 1/3.
        assert mu["cpu_mid_high"][0] == pytest.approx(
            mu["cpu_usage"][0] * 2 / 3
        )
        assert mu["cpu_high"][0] == pytest.approx(mu["cpu_usage"][0] / 3)

    def test_spike_bounded_by_allocation(self):
        fleet = _fleet(1)
        task = _task(cpu=0.5)
        fleet.start(0, task)
        config = MonitorConfig(
            cpu_noise=0.0, mem_noise=0.0, page_noise=0.0, cpu_spike_prob=1.0
        )
        monitor = UsageMonitor(fleet, config, np.random.default_rng(4))
        for t in range(20):
            monitor.sample(float(t) * 300, 0, 0, 0)
        mu = monitor.machine_usage_table()
        # Spikes reach toward the 0.5 allocation, never beyond it.
        assert mu["cpu_usage"].max() <= 0.5 + 1e-9
        assert mu["cpu_usage"].max() > task.cpu_eff

    def test_usage_never_negative_or_above_capacity(self):
        fleet = _fleet(2)
        fleet.start(0, _task(job=1, cpu=0.9, mem=0.9))
        monitor = UsageMonitor(
            fleet, MonitorConfig(cpu_noise=5.0), np.random.default_rng(5)
        )
        for t in range(200):
            monitor.sample(float(t), 0, 0, 0)
        mu = monitor.machine_usage_table()
        assert mu["cpu_usage"].min() >= 0
        assert mu["cpu_usage"].max() <= 1.0 + 1e-9


class TestMonitorConfigValidation:
    def test_spike_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(cpu_spike_prob=1.5)
        with pytest.raises(ValueError):
            MonitorConfig(cpu_spike_range=(0.9, 0.1))


def _reference_noisy(rng, base, cap, coeff, n_run):
    """Pre-batching scalar draw: one standard_normal call per attribute."""
    if coeff == 0.0:
        return np.clip(base, 0.0, cap)
    draw = rng.standard_normal(base.size)
    scale = coeff / np.sqrt(np.maximum(n_run, 1))
    return np.clip(base * np.clip(1.0 + scale * draw, 0.0, None), 0.0, cap)


def _reference_sample(fleet, cfg, rng):
    """Golden draw order of the unbatched monitor: cpu, spikes, mem, page."""
    n_run = fleet.n_running
    cpu = _reference_noisy(
        rng, fleet.cpu_base, fleet.cpu_capacity, cfg.cpu_noise, n_run
    )
    if cfg.cpu_spike_prob > 0:
        spiking = rng.uniform(size=cpu.size) < cfg.cpu_spike_prob
        if spiking.any():
            allocated = fleet.cpu_capacity - fleet.free_cpu
            lo, hi = cfg.cpu_spike_range
            burst = np.clip(allocated[spiking], 0.0, None) * rng.uniform(
                lo, hi, int(spiking.sum())
            )
            cpu[spiking] = np.maximum(cpu[spiking], burst)
    mem = _reference_noisy(
        rng, fleet.mem_base, fleet.mem_capacity, cfg.mem_noise, n_run
    )
    page = _reference_noisy(
        rng, fleet.page_base, fleet.page_capacity, cfg.page_noise, n_run
    )
    return cpu, mem, page


class TestBatchedDrawEquivalence:
    """Fused block draws must preserve the exact PCG64 stream.

    ``standard_normal(k * n)`` consumes the bit stream identically to
    ``k`` sequential ``n``-draws, so the batched monitor must match the
    sequential reference bit for bit — samples and final RNG state.
    """

    CONFIGS = [
        MonitorConfig(cpu_spike_prob=0.0),  # fully fused 3n block
        MonitorConfig(cpu_spike_prob=0.5),  # spikes split cpu from mem/page
        MonitorConfig(cpu_spike_prob=0.0, mem_noise=0.0),
        MonitorConfig(cpu_spike_prob=0.0, page_noise=0.0),
        MonitorConfig(cpu_spike_prob=0.5, cpu_noise=0.0),
        MonitorConfig(
            cpu_spike_prob=0.0, cpu_noise=0.0, mem_noise=0.0, page_noise=0.0
        ),
        MonitorConfig(cpu_spike_prob=0.5, mem_noise=0.0, page_noise=0.0),
    ]

    def _loaded_fleet(self, n=8):
        fleet = _fleet(n)
        for slot in range(n):
            for j in range(slot % 3 + 1):
                fleet.start(slot, _task(job=slot * 10 + j, band=j % 3))
        return fleet

    @pytest.mark.parametrize("config", CONFIGS)
    def test_bit_identical_to_sequential_draws(self, config):
        fleet_a = self._loaded_fleet()
        fleet_b = self._loaded_fleet()
        seed = 1234
        monitor = UsageMonitor(fleet_a, config, np.random.default_rng(seed))
        reference = np.random.default_rng(seed)
        ref_samples = []
        for t in range(10):
            monitor.sample(t * 300.0, 0, 0, 0)
            ref_samples.append(_reference_sample(fleet_b, config, reference))
        assert (
            monitor.rng.bit_generator.state == reference.bit_generator.state
        )
        mu = monitor.machine_usage_table()
        n = fleet_a.num_machines
        for i, (cpu, mem, page) in enumerate(ref_samples):
            sl = slice(i * n, (i + 1) * n)
            np.testing.assert_array_equal(mu["cpu_usage"][sl], cpu)
            np.testing.assert_array_equal(mu["mem_usage"][sl], mem)
            np.testing.assert_array_equal(mu["page_cache"][sl], page)
