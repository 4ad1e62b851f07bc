"""Unit tests for the event queue, task state, and fleet accounting."""

import numpy as np
import pytest

from repro.sim.engine import EventQueue
from repro.synth.machines import generate_machines
from repro.traces.schema import TaskState
from tests.oracles import FleetState, ScalarEventQueue, SimTask


class TestEventQueue:
    def test_time_order(self):
        q = ScalarEventQueue()
        q.push(3.0, 0, "c")
        q.push(1.0, 0, "a")
        q.push(2.0, 0, "b")
        assert [q.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_at_equal_time(self):
        q = ScalarEventQueue()
        q.push(1.0, 0, "first")
        q.push(1.0, 0, "second")
        assert q.pop()[2] == "first"
        assert q.pop()[2] == "second"

    def test_now_advances(self):
        q = ScalarEventQueue()
        q.push(5.0, 0)
        assert q.now == 0.0
        q.pop()
        assert q.now == 5.0

    def test_past_scheduling_rejected(self):
        q = ScalarEventQueue()
        q.push(5.0, 0)
        q.pop()
        with pytest.raises(ValueError, match="past"):
            q.push(1.0, 0)

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_time() is None
        assert len(q) == 0
        q.push(2.0, 1)
        assert q.peek_time() == 2.0
        assert len(q) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, bad):
        q = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            q.push(bad, 0)

    def test_pop_batch_same_timestamp_window(self):
        q = ScalarEventQueue()
        q.push(1.0, 0, "a")
        q.push(1.0, 1, "b")
        q.push(2.0, 0, "c")
        batch = q.pop_batch()
        assert batch == [(1.0, 0, "a"), (1.0, 1, "b")]
        assert q.now == 1.0
        assert q.pop_batch() == [(2.0, 0, "c")]

    def test_pop_batch_matches_one_at_a_time(self):
        rng = np.random.default_rng(9)
        times = np.round(rng.uniform(0, 5, 60), 1)  # forces timestamp ties
        one, batched = ScalarEventQueue(), EventQueue()
        for i, t in enumerate(times):
            one.push(float(t), i % 3, i)
            batched.push(float(t), i % 3, i)
        singles = [one.pop() for _ in range(len(one))]
        drained = []
        while len(batched):
            drained.extend(batched.pop_batch())
        assert drained == singles


def _task(priority=5, cpu=0.1, mem=0.1, job=0, idx=0) -> SimTask:
    return SimTask(
        job_id=job,
        task_index=idx,
        priority=priority,
        band=1,
        cpu_request=cpu,
        mem_request=mem,
        duration=100.0,
        cpu_eff=cpu * 0.5,
        mem_eff=mem * 0.9,
        page_cache=0.01,
        fate=4,
        submit_time=0.0,
    )


@pytest.fixture
def fleet():
    machines = generate_machines(4, np.random.default_rng(0))
    return FleetState(machines)


class TestFleetState:
    def test_start_stop_conserves(self, fleet):
        free_before = fleet.free_cpu.copy()
        task = _task()
        fleet.start(0, task)
        assert fleet.free_cpu[0] == pytest.approx(free_before[0] - 0.1)
        assert fleet.n_running[0] == 1
        assert fleet.cpu_base[0] == pytest.approx(0.05)
        fleet.stop(0, task)
        np.testing.assert_allclose(fleet.free_cpu, free_before)
        assert fleet.n_running[0] == 0
        assert fleet.cpu_base[0] == pytest.approx(0.0)

    def test_band_accounting(self, fleet):
        task = _task()
        fleet.start(1, task)
        assert fleet.cpu_band[1, 1] == pytest.approx(task.cpu_eff)
        fleet.stop(1, task)
        assert fleet.cpu_band[1, 1] == pytest.approx(0.0)

    def test_double_start_rejected(self, fleet):
        task = _task()
        fleet.start(0, task)
        with pytest.raises(RuntimeError, match="already running"):
            fleet.start(0, task)

    def test_stop_unknown_rejected(self, fleet):
        with pytest.raises(RuntimeError, match="not running"):
            fleet.stop(0, _task())

    def test_fits_and_candidates(self, fleet):
        small = _task(cpu=0.01, mem=0.01)
        assert fleet.candidates(small).all()
        huge = _task(cpu=5.0, mem=5.0)
        assert not fleet.candidates(huge).any()
        assert fleet.fits(0, small)
        assert not fleet.fits(0, huge)

    def test_eviction_victims_lower_priority_only(self, fleet):
        low = _task(priority=2, cpu=0.2, mem=0.2, job=1)
        fleet.start(0, low)
        # Fill remaining capacity so the high task needs eviction.
        filler = _task(
            priority=3,
            cpu=float(fleet.free_cpu[0]),
            mem=float(fleet.free_mem[0]),
            job=2,
        )
        fleet.start(0, filler)
        high = _task(priority=10, cpu=0.15, mem=0.15, job=3)
        victims = fleet.eviction_victims(0, high)
        assert victims is not None
        assert all(v.priority < 10 for v in victims)

    def test_eviction_impossible_returns_none(self, fleet):
        high_running = _task(priority=11, cpu=0.2, mem=0.2, job=1)
        fleet.start(0, high_running)
        bigger = _task(
            priority=12,
            cpu=float(fleet.cpu_capacity[0]) + 1.0,
            mem=0.1,
            job=2,
        )
        assert fleet.eviction_victims(0, bigger) is None

    def test_empty_fleet_rejected(self):
        from repro.core.table import Table

        empty = Table(
            {
                "machine_id": np.empty(0, dtype=np.int64),
                "cpu_capacity": np.empty(0),
                "mem_capacity": np.empty(0),
                "page_cache_capacity": np.empty(0),
            }
        )
        with pytest.raises(ValueError):
            FleetState(empty)


class TestSimTask:
    def test_initial_state(self):
        task = _task()
        assert task.state == TaskState.PENDING
        assert task.machine == -1
        assert task.incarnation == 0

    def test_repr(self):
        assert "prio=5" in repr(_task())
