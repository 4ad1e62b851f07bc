"""Cluster simulator front-end.

Runs a :class:`~repro.synth.google_model.TaskRequests` stream through
the Section-II scheduling model (12 priorities, FCFS per priority,
preemptive, balance placement) over a heterogeneous fleet, producing

* a task-event log in the trace's TASK_EVENT_SCHEMA,
* machine-level 5-minute usage samples (the monitor),
* cluster-level queue-state series,
* completion-event counters.

These are exactly the inputs the host-load analyses (Figs. 7-13,
Tables II-III) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..synth.google_model import TaskRequests
from ..traces.schema import TASK_EVENT_SCHEMA, TaskEvent, TaskState, priority_band_array
from ..core.table import Table
from .churn import ChurnModel, sample_outages
from .constraints import ConstraintModel
from .engine import COMPLETE, MACHINE_DOWN, MACHINE_UP, TICK, EventQueue
from .failures import FailureModel
from .machine import FleetState
from .monitor import MonitorConfig, UsageMonitor
from .scheduler import PLACEMENT_POLICIES, PendingQueue, choose_machine
from .task import SimTask

__all__ = ["SimConfig", "SimResult", "ClusterSimulator", "ENGINES"]

_COMPLETE, _TICK, _MACHINE_DOWN, _MACHINE_UP = (
    COMPLETE,
    TICK,
    MACHINE_DOWN,
    MACHINE_UP,
)

#: Engines accepted by :meth:`ClusterSimulator.run`. ``auto`` picks the
#: fast SoA engine whenever its inlined failure-model draws are valid —
#: i.e. ``config.failures`` is exactly :class:`FailureModel`, not a
#: subclass with overridden draw logic — and the scalar golden
#: reference otherwise. ``soa`` itself delegates to the compiled C hot
#: loop (:mod:`repro.sim._ckernel`) when a compiler is available and
#: the config is covered; ``soa-py`` forces the pure-Python SoA loop
#: (used by the golden-equivalence tests to pin all three paths).
ENGINES = ("auto", "soa", "soa-py", "scalar")


@dataclass(frozen=True)
class SimConfig:
    """Scheduler and measurement configuration."""

    placement: str = "balance"
    preemption: bool = True
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    failures: FailureModel = field(default_factory=FailureModel)
    #: Optional placement-constraint model (machine attributes + per-
    #: task constraint sampling). None = unconstrained scheduling.
    constraints: ConstraintModel | None = None
    #: Optional machine availability churn. None = machines never fail.
    churn: ChurnModel | None = None

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"placement must be one of {PLACEMENT_POLICIES}, "
                f"got {self.placement!r}"
            )


@dataclass(frozen=True)
class SimResult:
    """Everything a simulation run produced."""

    task_events: Table
    machine_usage: Table
    cluster_series: Table
    machines: Table
    horizon: float
    counts: dict[str, int]

    def completion_mix(self) -> dict[str, float]:
        """Fractions of completion events per terminal type."""
        total = sum(
            self.counts[k] for k in ("finish", "fail", "kill", "evict", "lost")
        )
        if total == 0:
            return {
                k: 0.0
                for k in ("finish", "fail", "kill", "evict", "lost", "abnormal")
            }
        mix = {
            k: self.counts[k] / total
            for k in ("finish", "fail", "kill", "evict", "lost")
        }
        mix["abnormal"] = 1.0 - mix["finish"]
        return mix


class ClusterSimulator:
    """Event-driven simulation of the Google scheduling model."""

    def __init__(
        self,
        machines: Table,
        config: SimConfig | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        self.machines = machines
        self.config = config or SimConfig()
        self.rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )

    # -- public API ----------------------------------------------------------

    def run(
        self,
        requests: TaskRequests,
        horizon: float,
        *,
        engine: str = "auto",
    ) -> SimResult:
        """Simulate ``[0, horizon]`` seconds of the request stream.

        ``engine`` selects the implementation: ``"scalar"`` is the
        original per-object golden reference below, ``"soa"`` the
        structure-of-arrays fast engine
        (:func:`~repro.sim.soa.run_soa`, which itself uses the compiled
        C hot loop when available), ``"soa-py"`` the SoA engine with
        the compiled kernel disabled, and ``"auto"`` (default) picks
        the SoA engine whenever the config is compatible (the failure
        model is exactly :class:`FailureModel`, whose draws the fast
        engine inlines). All engines produce byte-identical results —
        same tables, counts, and final RNG state — which the
        golden-equivalence suite enforces.

        The scalar engine drains its event queue one event at a time
        (:meth:`~repro.sim.engine.EventQueue.pop`), the reference order
        the SoA engines' batched drain is held to.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if engine == "auto":
            engine = (
                "soa" if type(self.config.failures) is FailureModel else "scalar"
            )
        if engine in ("soa", "soa-py"):
            from .soa import run_soa

            return run_soa(
                self, requests, horizon, allow_kernel=engine == "soa"
            )
        fleet = FleetState(self.machines)
        monitor = UsageMonitor(fleet, self.config.monitor, self.rng)
        pending = PendingQueue()
        queue = EventQueue()
        failures = self.config.failures

        # Event-log builders (flat Python lists; tables built at the end).
        log_time: list[float] = []
        log_job: list[int] = []
        log_task: list[int] = []
        log_machine: list[int] = []
        log_type: list[int] = []
        log_prio: list[int] = []
        log_cpu: list[float] = []
        log_mem: list[float] = []

        counts = {
            "finish": 0,
            "fail": 0,
            "kill": 0,
            "evict": 0,
            "lost": 0,
            "submitted": 0,
            "scheduled": 0,
        }

        def record(time: float, task: SimTask, etype: int, machine: int) -> None:
            log_time.append(time)
            log_job.append(task.job_id)
            log_task.append(task.task_index)
            log_machine.append(machine)
            log_type.append(etype)
            log_prio.append(task.priority)
            log_cpu.append(task.cpu_request)
            log_mem.append(task.mem_request)

        def start(task: SimTask, m: int, time: float) -> None:
            task.state = TaskState.RUNNING
            task.machine = m
            task.start_time = time
            fleet.start(m, task)
            record(time, task, int(TaskEvent.SCHEDULE), m)
            counts["scheduled"] += 1
            run_time = failures.run_time(task.fate, task.duration, self.rng)
            end = time + run_time
            if end <= horizon:
                queue.push(end, _COMPLETE, (task, task.incarnation))

        def evict(victim: SimTask, time: float) -> None:
            m = victim.machine
            fleet.stop(m, victim)
            record(time, victim, int(TaskEvent.EVICT), m)
            counts["evict"] += 1
            victim.incarnation += 1  # invalidates its COMPLETE event
            victim.machine = -1
            if failures.resubmits(int(TaskEvent.EVICT), victim.resubmits, self.rng):
                victim.resubmits += 1
                victim.fate = failures.redraw_fate(self.rng)
                victim.state = TaskState.PENDING
                record(time, victim, int(TaskEvent.SUBMIT), -1)
                counts["submitted"] += 1
                pending.push(victim)
            else:
                victim.state = TaskState.DEAD

        def try_place(task: SimTask, time: float, allow_preempt: bool) -> bool:
            m = choose_machine(fleet, task, self.config.placement, self.rng)
            if m >= 0:
                start(task, m, time)
                return True
            if allow_preempt and self.config.preemption:
                target, victims = self._find_preemption(fleet, task)
                if target >= 0:
                    for victim in victims:
                        evict(victim, time)
                    start(task, target, time)
                    return True
            return False

        def drain_pending(time: float) -> None:
            # FCFS per priority with head-of-line blocking: stop at the
            # first task that does not fit anywhere.
            while len(pending):
                head = pending.peek()
                m = choose_machine(fleet, head, self.config.placement, self.rng)
                if m < 0:
                    break
                pending.pop()
                start(head, m, time)

        # Seed the event queue: arrivals (pre-sorted), first tick.
        tasks = _build_tasks(requests)
        if self.config.constraints is not None:
            model = self.config.constraints
            if model.num_machines != fleet.num_machines:
                raise ValueError(
                    "constraint model machine count does not match fleet"
                )
            for task in tasks:
                task.constraints = model.sample_constraints(self.rng)
                if task.constraints:
                    task.allowed_mask = model.satisfying_mask(task.constraints)
        arrival_times = requests.submit_time
        next_arrival = 0
        n_tasks = len(tasks)
        period = self.config.monitor.sample_period
        queue.push(0.0, _TICK, None)
        if self.config.churn is not None:
            for outage in sample_outages(
                self.config.churn, fleet.num_machines, horizon, self.rng
            ):
                queue.push(outage.start, _MACHINE_DOWN, outage.machine)
                if outage.end < horizon:
                    queue.push(outage.end, _MACHINE_UP, outage.machine)

        n_finished = 0
        n_abnormal = 0

        while True:
            next_event = queue.peek_time()
            arr_time = (
                arrival_times[next_arrival] if next_arrival < n_tasks else None
            )
            if next_event is None and arr_time is None:
                break
            take_arrival = arr_time is not None and (
                next_event is None or arr_time < next_event
            )
            if take_arrival:
                task = tasks[next_arrival]
                next_arrival += 1
                time = float(arr_time)
                if time > horizon:
                    break
                record(time, task, int(TaskEvent.SUBMIT), -1)
                counts["submitted"] += 1
                if not try_place(task, time, allow_preempt=True):
                    pending.push(task)
                continue

            time, kind, payload = queue.pop()
            if time > horizon:
                break
            if kind == _MACHINE_DOWN:
                m = int(payload)
                fleet.available[m] = False
                # Evict everything running there (machine maintenance).
                for victim in list(fleet.running[m].values()):
                    evict(victim, time)
                continue
            if kind == _MACHINE_UP:
                fleet.available[int(payload)] = True
                drain_pending(time)
                continue
            if kind == _TICK:
                monitor.sample(time, len(pending), n_finished, n_abnormal)
                if time + period <= horizon:
                    queue.push(time + period, _TICK, None)
            elif kind == _COMPLETE:
                task, incarnation = payload
                if (
                    task.incarnation != incarnation
                    or task.state != TaskState.RUNNING
                ):
                    continue  # stale completion (task was evicted)
                fleet.stop(task.machine, task)
                record(time, task, task.fate, task.machine)
                fate_name = TaskEvent(task.fate).name.lower()
                counts[fate_name] += 1
                n_finished += 1
                if task.fate != int(TaskEvent.FINISH):
                    n_abnormal += 1
                task.machine = -1
                task.incarnation += 1
                if failures.resubmits(task.fate, task.resubmits, self.rng):
                    task.resubmits += 1
                    task.fate = failures.redraw_fate(self.rng)
                    task.state = TaskState.PENDING
                    record(time, task, int(TaskEvent.SUBMIT), -1)
                    counts["submitted"] += 1
                    if not try_place(task, time, allow_preempt=True):
                        pending.push(task)
                else:
                    task.state = TaskState.DEAD
                # Either way resources were freed: admit pending work.
                drain_pending(time)

        # Horizon-edge accounting: tasks still running (their completion
        # would land past the horizon, so no _COMPLETE event was queued)
        # or still pending at the end of the run appear in no terminal
        # counter — count them explicitly so
        # submitted == finish+fail+kill+evict+lost + still_running +
        # still_pending holds for every config.
        counts["still_running"] = int(fleet.n_running.sum())
        counts["still_pending"] = len(pending)

        task_events = Table(
            {
                "time": np.asarray(log_time),
                "job_id": np.asarray(log_job, dtype=np.int64),
                "task_index": np.asarray(log_task, dtype=np.int32),
                "machine_id": np.asarray(log_machine, dtype=np.int64),
                "event_type": np.asarray(log_type, dtype=np.int8),
                "priority": np.asarray(log_prio, dtype=np.int16),
                "cpu_request": np.asarray(log_cpu),
                "mem_request": np.asarray(log_mem),
            },
            schema=TASK_EVENT_SCHEMA,
        )
        return SimResult(
            task_events=task_events,
            machine_usage=monitor.machine_usage_table(),
            cluster_series=monitor.cluster_series_table(),
            machines=self.machines,
            horizon=horizon,
            counts=counts,
        )

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _find_preemption(
        fleet: FleetState, task: SimTask
    ) -> tuple[int, list[SimTask]]:
        """Machine + victim set able to host ``task`` after evictions.

        Scans machines in descending free-CPU order so the cheapest
        eviction (fewest victims) is found early; returns (-1, []) when
        preemption cannot help. The stable sort makes the visit order —
        and therefore the victim set under relative-free-CPU ties —
        deterministic across NumPy versions (default quicksort leaves
        tied machines in partition-internal order).
        """
        order = np.argsort(-(fleet.free_cpu / fleet.cpu_capacity), kind="stable")
        for m in order:
            if not fleet.available[int(m)]:
                continue
            if task.allowed_mask is not None and not task.allowed_mask[int(m)]:
                continue
            victims = fleet.eviction_victims(int(m), task)
            if victims is not None:
                return int(m), victims
        return -1, []


def _build_tasks(requests: TaskRequests) -> list[SimTask]:
    """Materialize SimTask objects from the columnar request stream."""
    bands = priority_band_array(requests.priority)
    cpu_eff = requests.cpu_request * requests.cpu_utilization
    mem_eff = requests.mem_request * requests.mem_utilization
    return [
        SimTask(
            job_id=int(requests.job_id[i]),
            task_index=int(requests.task_index[i]),
            priority=int(requests.priority[i]),
            band=int(bands[i]),
            cpu_request=float(requests.cpu_request[i]),
            mem_request=float(requests.mem_request[i]),
            duration=float(requests.duration[i]),
            cpu_eff=float(cpu_eff[i]),
            mem_eff=float(mem_eff[i]),
            page_cache=float(requests.page_cache[i]),
            fate=int(requests.fate[i]),
            submit_time=float(requests.submit_time[i]),
        )
        for i in range(len(requests))
    ]
