"""Unit tests for format conversion and trace validation."""

import numpy as np
import pytest

from repro.synth.google_model import GoogleConfig, generate_google_trace
from repro.traces.convert import grid_jobs_to_job_table, job_interarrival_times
from repro.traces.gwa import gwa_table
from repro.traces.schema import JOB_TABLE_SCHEMA, TaskEvent
from repro.traces.swf import swf_table
from repro.core.table import Table
from repro.traces.validate import (
    ValidationError,
    validate_job_table,
    validate_trace,
)


class TestGridConversion:
    def test_gwa_converts(self):
        # The third job is interactive: it mostly waits, so Eq. (4) < 1.
        grid = gwa_table(
            submit_time=np.array([0.0, 100.0, 200.0]),
            wait_time=np.array([10.0, 20.0, 0.0]),
            run_time=np.array([50.0, 60.0, 100.0]),
            num_procs=np.array([2, 4, 1]),
            avg_cpu_time=np.array([40.0, 60.0, 5.0]),
            used_memory=np.array([1.0, 2.0, 1.0]) * 1024.0**2,  # 1, 2, 1 GB
        )
        jobs = grid_jobs_to_job_table(grid, mem_capacity_gb=32.0)
        assert set(jobs.column_names) == set(JOB_TABLE_SCHEMA)
        # Eq. (4): procs * per-cpu time / wall clock.
        np.testing.assert_allclose(
            jobs["cpu_usage"], [2 * 40 / 50, 4 * 60 / 60, 5 / 100]
        )
        np.testing.assert_allclose(jobs["end_time"], [60.0, 180.0, 300.0])
        np.testing.assert_allclose(jobs["mem_usage"], [1 / 32, 2 / 32, 1 / 32])

    def test_swf_converts(self):
        grid = swf_table(
            submit_time=np.array([0.0]),
            run_time=np.array([100.0]),
            num_procs=np.array([8]),
        )
        jobs = grid_jobs_to_job_table(grid)
        assert jobs["num_tasks"][0] == 8

    def test_missing_cpu_time_assumes_busy(self):
        grid = gwa_table(
            submit_time=np.array([0.0]),
            run_time=np.array([100.0]),
            num_procs=np.array([4]),
        )
        jobs = grid_jobs_to_job_table(grid)
        assert jobs["cpu_usage"][0] == pytest.approx(4.0)

    def test_missing_memory_zero(self):
        grid = gwa_table(
            submit_time=np.array([0.0]), run_time=np.array([10.0])
        )
        jobs = grid_jobs_to_job_table(grid)
        assert jobs["mem_usage"][0] == 0.0

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            grid_jobs_to_job_table(Table({"a": [1.0]}))

    def test_validated_output(self):
        grid = gwa_table(
            submit_time=np.array([0.0, 5.0]),
            run_time=np.array([10.0, 20.0]),
            num_procs=np.array([1, 1]),
        )
        validate_job_table(grid_jobs_to_job_table(grid))


class TestInterarrival:
    def test_gaps(self):
        jobs = Table(
            {"submit_time": np.array([10.0, 0.0, 30.0])}
        )
        np.testing.assert_allclose(
            job_interarrival_times(jobs), [10.0, 20.0]
        )

    def test_single_job_empty(self):
        jobs = Table({"submit_time": np.array([5.0])})
        assert job_interarrival_times(jobs).size == 0


@pytest.fixture(scope="module")
def valid_trace():
    return generate_google_trace(
        horizon=4 * 3600.0,
        num_machines=6,
        seed=0,
        tasks_per_hour=80.0,
        config=GoogleConfig(busy_window=None),
    )


class TestValidateTrace:
    def test_valid_passes(self, valid_trace):
        validate_trace(valid_trace)

    def test_negative_submit_rejected(self, valid_trace):
        jobs = valid_trace.jobs
        bad_jobs = jobs.with_columns(
            submit_time=np.asarray(jobs["submit_time"]).copy()
        )
        bad_jobs["submit_time"][0] = -1.0
        with pytest.raises(ValidationError, match="submit_time"):
            validate_job_table(bad_jobs)

    def test_priority_out_of_range_rejected(self, valid_trace):
        jobs = valid_trace.jobs
        bad = np.asarray(jobs["priority"]).copy()
        bad[0] = 99
        with pytest.raises(ValidationError, match="priority"):
            validate_job_table(jobs.with_columns(priority=bad))

    def test_duplicate_job_id_rejected(self, valid_trace):
        jobs = valid_trace.jobs
        ids = np.asarray(jobs["job_id"]).copy()
        ids[1] = ids[0]
        with pytest.raises(ValidationError, match="duplicate"):
            validate_job_table(jobs.with_columns(job_id=ids))

    def test_event_beyond_horizon_rejected(self, valid_trace):
        import dataclasses

        ev = valid_trace.task_events
        times = np.asarray(ev["time"]).copy()
        times[-1] = valid_trace.horizon * 2
        bad = dataclasses.replace(
            valid_trace, task_events=ev.with_columns(time=times)
        )
        with pytest.raises(ValidationError, match="horizon"):
            validate_trace(bad)

    def test_schedule_without_machine_rejected(self, valid_trace):
        import dataclasses

        ev = valid_trace.task_events
        etype = np.asarray(ev["event_type"])
        machines = np.asarray(ev["machine_id"]).copy()
        sched_idx = np.flatnonzero(etype == int(TaskEvent.SCHEDULE))[0]
        machines[sched_idx] = -1
        bad = dataclasses.replace(
            valid_trace, task_events=ev.with_columns(machine_id=machines)
        )
        with pytest.raises(ValidationError, match="SCHEDULE"):
            validate_trace(bad)

    def test_event_order_violation_rejected(self, valid_trace):
        import dataclasses

        ev = valid_trace.task_events.sort_by("time")
        etype = np.asarray(ev["event_type"]).copy()
        # Make the first SUBMIT a SCHEDULE: task runs without pending.
        first_submit = np.flatnonzero(etype == int(TaskEvent.SUBMIT))[0]
        etype[first_submit] = int(TaskEvent.SCHEDULE)
        machines = np.asarray(ev["machine_id"]).copy()
        machines[first_submit] = 0
        bad = dataclasses.replace(
            valid_trace,
            task_events=ev.with_columns(event_type=etype, machine_id=machines),
        )
        with pytest.raises(ValidationError):
            validate_trace(bad)

    def test_event_order_check_skippable(self, valid_trace):
        validate_trace(valid_trace, check_event_order=False)

    def test_usage_above_one_rejected(self, valid_trace):
        import dataclasses

        us = valid_trace.task_usage
        cpu = np.asarray(us["cpu_usage"]).copy()
        cpu[0] = 1.5
        bad = dataclasses.replace(
            valid_trace, task_usage=us.with_columns(cpu_usage=cpu)
        )
        with pytest.raises(ValidationError, match="cpu_usage"):
            validate_trace(bad)
