"""Unit tests for the pending queue and placement policies."""

import numpy as np
import pytest

from repro.sim.scheduler import PLACEMENT_POLICIES
from repro.core.table import Table
from tests.oracles import FleetState, PendingQueue, SimTask, choose_machine


def _task(priority=5, cpu=0.1, mem=0.1, job=0):
    return SimTask(
        job_id=job,
        task_index=0,
        priority=priority,
        band=1,
        cpu_request=cpu,
        mem_request=mem,
        duration=10.0,
        cpu_eff=cpu,
        mem_eff=mem,
        page_cache=0.0,
        fate=4,
        submit_time=0.0,
    )


def _fleet(cpu_caps, mem_caps=None):
    mem_caps = mem_caps or cpu_caps
    n = len(cpu_caps)
    return FleetState(
        Table(
            {
                "machine_id": np.arange(n, dtype=np.int64),
                "cpu_capacity": np.asarray(cpu_caps, dtype=float),
                "mem_capacity": np.asarray(mem_caps, dtype=float),
                "page_cache_capacity": np.ones(n),
            }
        )
    )


class TestPendingQueue:
    def test_priority_order(self):
        q = PendingQueue()
        q.push(_task(priority=3, job=1))
        q.push(_task(priority=10, job=2))
        q.push(_task(priority=5, job=3))
        assert q.pop().priority == 10
        assert q.pop().priority == 5
        assert q.pop().priority == 3

    def test_fcfs_within_priority(self):
        q = PendingQueue()
        first = _task(priority=5, job=1)
        second = _task(priority=5, job=2)
        q.push(first)
        q.push(second)
        assert q.pop() is first
        assert q.pop() is second

    def test_peek_does_not_remove(self):
        q = PendingQueue()
        t = _task()
        q.push(t)
        assert q.peek() is t
        assert len(q) == 1


class TestChooseMachine:
    def test_balance_prefers_emptiest(self):
        fleet = _fleet([1.0, 1.0])
        rng = np.random.default_rng(0)
        fleet.start(0, _task(cpu=0.5, mem=0.5, job=9))
        m = choose_machine(fleet, _task(job=1), "balance", rng)
        assert m == 1

    def test_balance_relative_to_capacity(self):
        # Machine 0: cap 1.0 half full (50% free); machine 1: cap 0.5
        # empty (100% free) -> balance picks machine 1.
        fleet = _fleet([1.0, 0.5])
        fleet.start(0, _task(cpu=0.5, mem=0.1, job=9))
        m = choose_machine(
            fleet, _task(cpu=0.1, mem=0.1), "balance", np.random.default_rng(0)
        )
        assert m == 1

    def test_best_fit_prefers_tightest(self):
        fleet = _fleet([1.0, 1.0])
        fleet.start(0, _task(cpu=0.8, mem=0.1, job=9))
        m = choose_machine(
            fleet, _task(cpu=0.1, mem=0.1), "best_fit", np.random.default_rng(0)
        )
        assert m == 0

    def test_first_fit_lowest_index(self):
        fleet = _fleet([1.0, 1.0, 1.0])
        m = choose_machine(
            fleet, _task(), "first_fit", np.random.default_rng(0)
        )
        assert m == 0

    def test_random_only_fitting(self):
        fleet = _fleet([0.05, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = choose_machine(fleet, _task(cpu=0.5, mem=0.5), "random", rng)
            assert m == 1

    def test_no_fit_returns_minus_one(self):
        fleet = _fleet([0.05])
        m = choose_machine(
            fleet, _task(cpu=0.5, mem=0.5), "balance", np.random.default_rng(0)
        )
        assert m == -1

    def test_unknown_policy_rejected(self):
        fleet = _fleet([1.0])
        with pytest.raises(ValueError, match="unknown placement"):
            choose_machine(fleet, _task(), "bogus", np.random.default_rng(0))

    def test_all_policies_listed(self):
        assert set(PLACEMENT_POLICIES) == {
            "balance",
            "best_fit",
            "first_fit",
            "random",
        }
