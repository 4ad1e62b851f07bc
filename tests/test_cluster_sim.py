"""Integration tests for the cluster simulator."""

import numpy as np
import pytest

from repro.sim import ClusterSimulator, MonitorConfig, SimConfig
from repro.sim.cluster import SimResult
from repro.sim.job import jobs_from_events
from repro.synth import GoogleConfig, generate_machines, generate_task_requests
from repro.traces.schema import TASK_EVENT_SCHEMA, TaskEvent
from repro.traces.validate import validate_job_table

HOUR = 3600.0


def _run(
    horizon=6 * HOUR,
    n_machines=6,
    rate=40.0,
    sim_config=None,
    seed=0,
) -> SimResult:
    rng = np.random.default_rng(seed)
    machines = generate_machines(n_machines, rng)
    requests = generate_task_requests(
        horizon,
        seed=seed + 1,
        config=GoogleConfig(busy_window=None),
        tasks_per_hour=rate,
    )
    sim = ClusterSimulator(machines, sim_config or SimConfig(), seed=seed + 2)
    return sim.run(requests, horizon)


class TestSimBasics:
    def test_event_log_schema(self, tiny_sim_result):
        _, result = tiny_sim_result
        assert set(result.task_events.column_names) == set(TASK_EVENT_SCHEMA)

    def test_events_time_ordered_after_sort(self, tiny_sim_result):
        _, result = tiny_sim_result
        times = np.asarray(result.task_events.sort_by("time")["time"])
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0
        assert times.max() <= result.horizon

    def test_every_submit_has_matching_request_or_resubmit(
        self, tiny_sim_result
    ):
        requests, result = tiny_sim_result
        n_submits = result.counts["submitted"]
        assert n_submits >= len(requests) * 0.95  # all arrivals before horizon

    def test_schedule_events_name_machines(self, tiny_sim_result):
        _, result = tiny_sim_result
        ev = result.task_events
        sched = ev.select(ev["event_type"] == int(TaskEvent.SCHEDULE))
        assert np.all(sched["machine_id"] >= 0)

    def test_completion_counts_match_events(self, tiny_sim_result):
        _, result = tiny_sim_result
        ev = result.task_events
        for name, code in (
            ("finish", TaskEvent.FINISH),
            ("fail", TaskEvent.FAIL),
            ("kill", TaskEvent.KILL),
            ("evict", TaskEvent.EVICT),
            ("lost", TaskEvent.LOST),
        ):
            observed = int(
                np.count_nonzero(ev["event_type"] == int(code))
            )
            assert observed == result.counts[name]

    def test_deterministic(self):
        a = _run(horizon=2 * HOUR, rate=30.0, seed=7)
        b = _run(horizon=2 * HOUR, rate=30.0, seed=7)
        assert a.task_events == b.task_events
        assert a.machine_usage == b.machine_usage

    def test_monitor_rows(self, tiny_sim_result):
        _, result = tiny_sim_result
        mu = result.machine_usage
        n_machines = result.machines.num_rows
        n_ticks = len(result.cluster_series)
        assert len(mu) == n_machines * n_ticks

    def test_usage_within_capacity(self, tiny_sim_result):
        _, result = tiny_sim_result
        mu = result.machine_usage
        caps = {
            int(m): c
            for m, c in zip(
                result.machines["machine_id"], result.machines["cpu_capacity"]
            )
        }
        cap_arr = np.array([caps[int(m)] for m in mu["machine_id"]])
        assert np.all(mu["cpu_usage"] <= cap_arr + 1e-9)
        assert np.all(mu["cpu_usage"] >= 0)

    def test_band_columns_bounded_by_total(self, tiny_sim_result):
        _, result = tiny_sim_result
        mu = result.machine_usage
        assert np.all(mu["cpu_high"] <= mu["cpu_mid_high"] + 1e-9)
        assert np.all(mu["cpu_mid_high"] <= mu["cpu_usage"] + 1e-6)

    def test_completion_mix_sums_to_one(self, tiny_sim_result):
        _, result = tiny_sim_result
        mix = result.completion_mix()
        total = sum(
            mix[k] for k in ("finish", "fail", "kill", "evict", "lost")
        )
        assert total == pytest.approx(1.0)
        assert mix["abnormal"] == pytest.approx(1.0 - mix["finish"])

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            _run(horizon=0.0)  # type: ignore[arg-type]


class TestSchedulingBehavior:
    def test_mass_conservation(self, tiny_sim_result):
        """Every schedule is eventually matched by at most one terminal."""
        _, result = tiny_sim_result
        n_sched = result.counts["scheduled"]
        n_term = sum(
            result.counts[k]
            for k in ("finish", "fail", "kill", "evict", "lost")
        )
        # Tasks still running at the horizon lack terminals.
        assert n_term <= n_sched
        assert n_term >= 0.5 * n_sched

    def test_preemption_off_no_mechanistic_evictions(self):
        config = SimConfig(preemption=False)
        result = _run(sim_config=config, rate=60.0)
        # Fate-drawn evictions still occur, but no preemption cascades;
        # the run must complete and stay consistent.
        assert result.counts["scheduled"] > 0

    def test_saturated_cluster_queues_tasks(self):
        # One tiny machine, many tasks: pending must build up.
        from repro.synth.machines import FleetConfig

        rng = np.random.default_rng(3)
        machines = generate_machines(
            1, rng, FleetConfig(cpu_levels=(0.25,), cpu_weights=(1.0,))
        )
        requests = generate_task_requests(
            2 * HOUR,
            seed=4,
            config=GoogleConfig(busy_window=None),
            tasks_per_hour=2000.0,
        )
        sim = ClusterSimulator(machines, SimConfig(), seed=5)
        result = sim.run(requests, 2 * HOUR)
        assert int(np.asarray(result.cluster_series["n_pending"]).max()) > 0

    def test_high_priority_preempts_low(self):
        """A saturating low-priority load must yield to high priority."""
        from repro.synth.google_model import TaskRequests
        from repro.core.table import Table

        machines = Table(
            {
                "machine_id": np.array([0], dtype=np.int64),
                "cpu_capacity": np.array([1.0]),
                "mem_capacity": np.array([1.0]),
                "page_cache_capacity": np.array([1.0]),
            }
        )
        n_low = 10
        low = TaskRequests(
            submit_time=np.linspace(0, 1.0, n_low),
            job_id=np.arange(n_low, dtype=np.int64),
            task_index=np.zeros(n_low, dtype=np.int32),
            priority=np.full(n_low, 2, dtype=np.int16),
            cpu_request=np.full(n_low, 0.1),
            mem_request=np.full(n_low, 0.1),
            duration=np.full(n_low, 7200.0),
            cpu_utilization=np.full(n_low, 0.5),
            mem_utilization=np.full(n_low, 0.9),
            page_cache=np.zeros(n_low),
            fate=np.full(n_low, int(TaskEvent.FINISH), dtype=np.int8),
        )
        high = TaskRequests(
            submit_time=np.array([10.0]),
            job_id=np.array([100], dtype=np.int64),
            task_index=np.zeros(1, dtype=np.int32),
            priority=np.array([11], dtype=np.int16),
            cpu_request=np.array([0.5]),
            mem_request=np.array([0.5]),
            duration=np.array([100.0]),
            cpu_utilization=np.array([0.5]),
            mem_utilization=np.array([0.9]),
            page_cache=np.zeros(1),
            fate=np.full(1, int(TaskEvent.FINISH), dtype=np.int8),
        )
        merged = TaskRequests(
            **{
                name: np.concatenate(
                    [getattr(low, name), getattr(high, name)]
                )
                for name in low.__dataclass_fields__
            }
        ).sorted_by_time()
        sim = ClusterSimulator(machines, SimConfig(), seed=7)
        result = sim.run(merged, 4 * HOUR)
        assert result.counts["evict"] > 0
        ev = result.task_events
        high_sched = ev.select(
            (ev["event_type"] == int(TaskEvent.SCHEDULE))
            & (ev["priority"] == 11)
        )
        assert len(high_sched) == 1


class TestJobsFromEvents:
    def test_aggregation_valid(self, tiny_sim_result):
        _, result = tiny_sim_result
        jobs = jobs_from_events(result.task_events, result.horizon)
        validate_job_table(jobs)
        assert len(jobs) > 0

    def test_job_bounds(self, tiny_sim_result):
        _, result = tiny_sim_result
        jobs = jobs_from_events(result.task_events, result.horizon)
        assert np.all(jobs["end_time"] <= result.horizon + 1e-9)
        assert np.all(jobs["end_time"] >= jobs["submit_time"])

    def test_empty_rejected(self):
        from repro.core.table import Table
        from repro.traces.schema import TASK_EVENT_SCHEMA

        empty = Table(
            {k: np.empty(0, dtype=v) for k, v in TASK_EVENT_SCHEMA.items()},
            schema=TASK_EVENT_SCHEMA,
        )
        with pytest.raises(ValueError):
            jobs_from_events(empty, 100.0)


class TestMonitorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(sample_period=0)
        with pytest.raises(ValueError):
            MonitorConfig(cpu_noise=-1.0)

    def test_zero_noise_deterministic_usage(self):
        config = SimConfig(
            monitor=MonitorConfig(cpu_noise=0.0, mem_noise=0.0, page_noise=0.0)
        )
        result = _run(sim_config=config, horizon=2 * HOUR, rate=30.0)
        mu = result.machine_usage
        assert np.all(np.asarray(mu["cpu_usage"]) >= 0)
