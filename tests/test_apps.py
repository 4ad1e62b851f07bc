"""Unit tests for the consolidation and per-user applications."""

import numpy as np
import pytest

from repro.apps.consolidation import (
    ConsolidationReport,
    consolidation_potential,
    pack_demands,
)
from repro.apps.users import jobs_per_user, top_user_share, user_summary
from repro.core.table import Table


class TestPackDemands:
    def test_everything_fits_one_machine(self):
        used = pack_demands(
            cpu_demand=np.array([0.1, 0.2]),
            mem_demand=np.array([0.1, 0.1]),
            cpu_capacity=np.array([1.0, 1.0]),
            mem_capacity=np.array([1.0, 1.0]),
            headroom=0.0,
        )
        assert used == 1

    def test_split_across_machines(self):
        used = pack_demands(
            cpu_demand=np.array([0.6, 0.6]),
            mem_demand=np.array([0.1, 0.1]),
            cpu_capacity=np.array([1.0, 1.0]),
            mem_capacity=np.array([1.0, 1.0]),
            headroom=0.0,
        )
        assert used == 2

    def test_headroom_forces_more_machines(self):
        kwargs = dict(
            cpu_demand=np.array([0.5, 0.45]),
            mem_demand=np.array([0.1, 0.1]),
            cpu_capacity=np.array([1.0, 1.0]),
            mem_capacity=np.array([1.0, 1.0]),
        )
        assert pack_demands(**kwargs, headroom=0.0) == 1
        assert pack_demands(**kwargs, headroom=0.2) == 2

    def test_zero_demand_zero_machines(self):
        used = pack_demands(
            cpu_demand=np.zeros(3),
            mem_demand=np.zeros(3),
            cpu_capacity=np.ones(3),
            mem_capacity=np.ones(3),
        )
        assert used == 0

    def test_memory_binds_too(self):
        used = pack_demands(
            cpu_demand=np.array([0.1, 0.1]),
            mem_demand=np.array([0.6, 0.6]),
            cpu_capacity=np.array([1.0, 1.0]),
            mem_capacity=np.array([1.0, 1.0]),
            headroom=0.0,
        )
        assert used == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            pack_demands(
                np.zeros(2), np.zeros(3), np.ones(2), np.ones(2)
            )
        with pytest.raises(ValueError):
            pack_demands(
                np.zeros(2), np.zeros(2), np.ones(2), np.ones(2), headroom=1.0
            )


class TestConsolidationPotential:
    def test_on_simulated_fleet(self, small_series):
        report = consolidation_potential(
            small_series, headroom=0.1, stride=12
        )
        assert isinstance(report, ConsolidationReport)
        assert report.fleet_size == len(small_series)
        assert 0 < report.mean_needed <= report.fleet_size
        assert 0 <= report.mean_shutoff_fraction < 1
        assert report.peak_needed >= report.machines_needed.min()

    def test_idle_fleet_consolidates_heavily(self, small_series):
        """A lightly loaded cluster should free a large fleet share."""
        report = consolidation_potential(
            small_series, headroom=0.05, stride=24
        )
        # Simulated CPU ~28%, memory ~56% of capacity: memory binds, but
        # a meaningful share of machines must still be freeable.
        assert report.mean_shutoff_fraction > 0.1

    def test_validation(self, small_series):
        with pytest.raises(ValueError):
            consolidation_potential({}, headroom=0.1)
        with pytest.raises(ValueError):
            consolidation_potential(small_series, stride=0)


class TestUsers:
    def _jobs(self, user_ids):
        n = len(user_ids)
        return Table(
            {
                "job_id": np.arange(n, dtype=np.int64),
                "user_id": np.asarray(user_ids, dtype=np.int64),
                "submit_time": np.arange(n, dtype=np.float64),
                "end_time": np.arange(n, dtype=np.float64) + 10,
                "priority": np.ones(n, dtype=np.int16),
                "num_tasks": np.ones(n, dtype=np.int32),
                "cpu_usage": np.ones(n),
                "mem_usage": np.ones(n) * 0.1,
            }
        )

    def test_jobs_per_user(self):
        jobs = self._jobs([1, 1, 2, 3, 3, 3])
        assert jobs_per_user(jobs) == {1: 2, 2: 1, 3: 3}

    def test_top_user_share(self):
        jobs = self._jobs([1, 1, 1, 2])
        assert top_user_share(jobs, k=1) == pytest.approx(0.75)
        with pytest.raises(ValueError):
            top_user_share(jobs, k=0)

    def test_user_summary(self):
        jobs = self._jobs([1] * 8 + [2, 3])
        summary = user_summary(jobs)
        assert summary.num_users == 3
        assert summary.jobs_per_user_max == 8
        assert summary.top10_share == 1.0
        assert 0 < summary.fairness_across_users < 1
        assert summary.masscount.joint_ratio[0] <= 50

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            user_summary(self._jobs([]).select(np.array([], dtype=int)))

    def test_on_google_workload(self, small_workload):
        summary = user_summary(small_workload.google_jobs)
        assert summary.num_users > 100
        assert summary.jobs_per_user_mean > 1
