"""Golden-equivalence and property tests for the simulator's engine.

``ClusterSimulator.run`` — the SoA engine, on its compiled C hot loop
or its Python loop — must reproduce the scalar golden reference
(``tests.oracles.run_scalar``) *byte for byte*: every event, every
monitor sample, every count, and the final RNG state. These tests pin
that contract over placement x preemption x churn x constraints, plus
the scalar-engine bugfixes that rode along (stable preemption scan,
fleet clamp, horizon accounting).
"""

import numpy as np
import pytest

from repro.sim import ClusterSimulator, SimConfig
from repro.sim import _ckernel
from repro.sim.churn import ChurnModel
from repro.sim.constraints import ConstraintModel, generate_attribute_matrix
from repro.sim.failures import FailureModel
from repro.synth import GoogleConfig, generate_machines, generate_task_requests
from tests.oracles import FleetState, SimTask, find_preemption, run_scalar

HOUR = 3600.0

TERMINAL = ("finish", "fail", "kill", "evict", "lost")


def _inputs(seed, n_machines=8, horizon=6 * HOUR, rate=90.0):
    rng = np.random.default_rng(seed)
    machines = generate_machines(n_machines, rng)
    requests = generate_task_requests(
        horizon,
        seed=seed + 1,
        config=GoogleConfig(busy_window=None),
        tasks_per_hour=rate,
    )
    return machines, requests


def _config(policy, *, preempt=True, churn=False, constraints=False,
            n_machines=8, seed=0):
    churn_model = (
        ChurnModel(mean_uptime=8 * HOUR, mean_downtime=HOUR / 2)
        if churn else None
    )
    constraint_model = None
    if constraints:
        attrs = generate_attribute_matrix(
            n_machines, np.random.default_rng(seed + 5)
        )
        constraint_model = ConstraintModel(attrs, constraint_prob=0.3)
    return SimConfig(
        placement=policy,
        preemption=preempt,
        churn=churn_model,
        constraints=constraint_model,
    )


def _run(machines, requests, config, engine, seed, horizon):
    """One run on ``engine``: ``scalar`` (the oracle), ``soa-py`` (the
    library's Python loop, kernel unloaded) or ``soa`` (the library as
    is, on the C kernel when one is built)."""
    sim = ClusterSimulator(machines, config, seed=seed)
    if engine == "scalar":
        result = run_scalar(sim, requests, horizon)
    elif engine == "soa-py":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_ckernel, "load", lambda: None)
            result = sim.run(requests, horizon)
    else:
        result = sim.run(requests, horizon)
    return result, sim.rng.bit_generator.state


def _assert_same(got, golden):
    result, rng_state = got
    ref, ref_state = golden
    assert result.task_events == ref.task_events
    assert result.machine_usage == ref.machine_usage
    assert result.cluster_series == ref.cluster_series
    assert result.counts == ref.counts
    assert rng_state == ref_state


class TestGoldenEquivalence:
    """scalar vs soa-py vs soa: all four tables + final RNG state."""

    @pytest.mark.parametrize(
        "policy", ["balance", "best_fit", "first_fit", "random"]
    )
    @pytest.mark.parametrize("features", ["plain", "full"])
    def test_engines_byte_identical(self, policy, features):
        seed = 17
        horizon = 6 * HOUR
        machines, requests = _inputs(seed, horizon=horizon)
        full = features == "full"
        config = _config(
            policy, preempt=full, churn=full, constraints=full, seed=seed
        )
        golden = _run(machines, requests, config, "scalar", seed + 2, horizon)
        for engine in ("soa-py", "soa"):
            got = _run(machines, requests, config, engine, seed + 2, horizon)
            _assert_same(got, golden)


class TestKernelEligibility:
    """The C hot loop only claims configs it reproduces exactly."""

    def test_random_policy_falls_back(self):
        machines, requests = _inputs(3, n_machines=4, horizon=HOUR, rate=30.0)
        sim = ClusterSimulator(
            machines, SimConfig(placement="random"), seed=5
        )
        assert _ckernel.try_run(sim, requests, HOUR) is None

    def test_subclassed_failure_model_rejected(self):
        # The engine inlines FailureModel's draws, so a subclass's
        # overrides could not be honored: the run refuses it.
        class TweakedFailures(FailureModel):
            pass

        machines, requests = _inputs(3, n_machines=4, horizon=HOUR, rate=30.0)
        config = SimConfig(failures=TweakedFailures())
        sim = ClusterSimulator(machines, config, seed=5)
        with pytest.raises(TypeError, match="TweakedFailures"):
            sim.run(requests, HOUR)

    def test_kernel_claims_covered_config(self):
        if _ckernel.load() is None:
            pytest.skip("C kernel unavailable in this environment")
        machines, requests = _inputs(3, n_machines=4, horizon=HOUR, rate=30.0)
        sim = ClusterSimulator(machines, SimConfig(), seed=5)
        result = _ckernel.try_run(sim, requests, HOUR)
        assert result is not None
        assert result.counts["submitted"] > 0


def _task(priority=5, cpu=0.1, mem=0.1, job=0, idx=0, start=0.0):
    task = SimTask(
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
    task.start_time = start
    return task


class TestPreemptionTieBreak:
    """Stable scan order: free-CPU score ties resolve to lowest index."""

    def _tied_fleet(self):
        fleet = FleetState(generate_machines(4, np.random.default_rng(1)))
        # Identical machines → identical relative-free-CPU scores once
        # each hosts one equally sized victim.
        fleet.cpu_capacity[:] = 1.0
        fleet.mem_capacity[:] = 1.0
        fleet.free_cpu[:] = 1.0
        fleet.free_mem[:] = 1.0
        victims = []
        for m in range(4):
            victim = _task(priority=2, cpu=0.6, mem=0.1, job=m, start=10.0)
            fleet.start(m, victim)
            victims.append(victim)
        return fleet, victims

    def test_victim_set_pinned_under_score_ties(self):
        fleet, victims = self._tied_fleet()
        task = _task(priority=9, cpu=0.8, mem=0.2, job=99)
        machine, chosen = find_preemption(fleet, task)
        assert machine == 0
        assert chosen == [victims[0]]

    def test_down_machines_skipped_in_tied_scan(self):
        fleet, victims = self._tied_fleet()
        fleet.available[0] = False
        task = _task(priority=9, cpu=0.8, mem=0.2, job=99)
        machine, chosen = find_preemption(fleet, task)
        assert machine == 1
        assert chosen == [victims[1]]


class TestFleetClampInvariant:
    """Churn-heavy start/stop traffic never drives aggregates negative."""

    def test_aggregates_stay_nonnegative(self):
        rng = np.random.default_rng(5)
        fleet = FleetState(generate_machines(6, rng))
        live = []
        aggregates = (
            fleet.free_cpu,
            fleet.free_mem,
            fleet.cpu_base,
            fleet.mem_base,
            fleet.mem_assigned,
            fleet.page_base,
        )
        for step in range(2500):
            if live and (rng.random() < 0.5 or step > 2200):
                m, task = live.pop(int(rng.integers(0, len(live))))
                fleet.stop(m, task)
            else:
                m = int(rng.integers(0, fleet.num_machines))
                task = _task(
                    priority=int(rng.integers(0, 12)),
                    cpu=float(rng.uniform(1e-4, 0.2)),
                    mem=float(rng.uniform(1e-4, 0.2)),
                    job=step,
                )
                if not fleet.fits(m, task):
                    continue
                fleet.start(m, task)
                live.append((m, task))
            for arr in aggregates:
                assert np.all(arr >= 0.0)
            assert np.all(fleet.cpu_band >= 0.0)
            assert np.all(fleet.mem_band >= 0.0)
        while live:
            m, task = live.pop()
            fleet.stop(m, task)
        # Fully drained: any survivor is positive residue below 1e-9.
        for arr in (*aggregates[2:], fleet.cpu_band, fleet.mem_band):
            assert np.all(arr >= 0.0)
            assert np.all(arr <= 1e-9)


class TestHorizonAccounting:
    """submitted == terminal events + still-running + still-pending."""

    @pytest.mark.parametrize("engine", ["scalar", "soa"])
    @pytest.mark.parametrize(
        "policy,preempt", [("balance", True), ("first_fit", False)]
    )
    def test_counts_balance(self, engine, policy, preempt):
        # Small fleet + high rate → tasks are guaranteed to straddle
        # the horizon, so the carry-over counters do real work here.
        machines, requests = _inputs(
            31, n_machines=4, horizon=2 * HOUR, rate=220.0
        )
        config = _config(policy, preempt=preempt, n_machines=4)
        result, _ = _run(machines, requests, config, engine, 12, 2 * HOUR)
        counts = result.counts
        terminal = sum(counts[name] for name in TERMINAL)
        carried = counts["still_running"] + counts["still_pending"]
        assert counts["submitted"] == terminal + carried
        assert carried > 0
