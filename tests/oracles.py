"""Scalar golden references for the library's vectorized paths.

Nothing under ``src/`` imports this module. Each reference below is
the original object-per-task or machine-at-a-time implementation that
a vectorized library path replaced, kept so the equivalence tests and
the kernel benchmark (``python -m benchmarks.kernels``) can hold the
library to it bit for bit:

* :func:`run_scalar` is the scalar cluster simulator. It keeps one
  :class:`SimTask` object per request, a :class:`PendingQueue` of those
  objects and a :class:`FleetState` with per-task running registries,
  places with :func:`choose_machine`, and pops one event at a time
  from a :class:`ScalarEventQueue`.
  ``ClusterSimulator.run`` (the structure-of-arrays engine, on its C
  kernel or its Python loop) must reproduce its four tables, its
  counts and its final RNG state.
* :func:`redraw_fate`, :func:`run_time` and :func:`resubmits` are the
  failure model's draws as NumPy calls; the library inlines each one
  as a single ``rng.random()`` draw.
* :func:`all_machine_series_scalar` and
  :func:`pooled_level_durations_scalar` extract and segment host-load
  series one machine at a time, the paths that
  :func:`repro.hostload.series.all_machine_series` and
  :func:`repro.hostload.levels.pooled_level_durations` replaced.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.segments import DEFAULT_USAGE_LEVELS, level_durations
from repro.core.table import Table
from repro.hostload.series import MachineLoadSeries, machine_series
from repro.sim import machine as sim_machine
from repro.sim.churn import sample_outages
from repro.sim.cluster import SimResult
from repro.sim.engine import COMPLETE, MACHINE_DOWN, MACHINE_UP, TICK, EventQueue
from repro.sim.failures import FailureModel
from repro.sim.monitor import UsageMonitor
from repro.sim.scheduler import PLACEMENT_POLICIES
from repro.synth.google_model import TaskRequests
from repro.traces.schema import (
    TASK_EVENT_SCHEMA,
    TaskEvent,
    TaskState,
    priority_band_array,
)

# -- task objects and the pending queue ---------------------------------------


class SimTask:
    """Mutable runtime state of one task lineage.

    Resubmissions after failure or eviction reuse the same object,
    bumping ``incarnation`` so stale completion events can be
    recognized and dropped (lazy cancellation).
    """

    __slots__ = (
        "job_id",
        "task_index",
        "priority",
        "band",
        "cpu_request",
        "mem_request",
        "duration",
        "cpu_eff",
        "mem_eff",
        "page_cache",
        "fate",
        "state",
        "machine",
        "incarnation",
        "resubmits",
        "submit_time",
        "start_time",
        "constraints",
        "allowed_mask",
    )

    def __init__(
        self,
        job_id: int,
        task_index: int,
        priority: int,
        band: int,
        cpu_request: float,
        mem_request: float,
        duration: float,
        cpu_eff: float,
        mem_eff: float,
        page_cache: float,
        fate: int,
        submit_time: float,
    ) -> None:
        self.job_id = job_id
        self.task_index = task_index
        self.priority = priority
        self.band = band
        self.cpu_request = cpu_request
        self.mem_request = mem_request
        self.duration = duration
        # Effective (actual) usage while running, already scaled by the
        # task's utilization factor; in largest-machine units.
        self.cpu_eff = cpu_eff
        self.mem_eff = mem_eff
        self.page_cache = page_cache
        self.fate = fate
        self.state = TaskState.PENDING
        self.machine = -1
        self.incarnation = 0
        self.resubmits = 0
        self.submit_time = submit_time
        self.start_time = -1.0
        # Placement constraints (repro.sim.constraints): the tuple of
        # Constraint objects and the precomputed machine mask, or None
        # when the task is unconstrained.
        self.constraints: tuple = ()
        self.allowed_mask = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimTask(job={self.job_id}, idx={self.task_index}, "
            f"prio={self.priority}, state={self.state.name})"
        )


def build_tasks(requests: TaskRequests) -> list[SimTask]:
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


class PendingQueue:
    """Pending tasks ordered by (priority desc, arrival asc)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, SimTask]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, task: SimTask) -> None:
        heapq.heappush(self._heap, (-task.priority, self._seq, task))
        self._seq += 1

    def pop(self) -> SimTask:
        return heapq.heappop(self._heap)[2]

    def peek(self) -> SimTask:
        return self._heap[0][2]


# -- fleet accounting one task at a time --------------------------------------


class FleetState(sim_machine.FleetState):
    """The library's fleet arrays plus per-task running registries.

    The scalar engine starts and stops :class:`SimTask` objects one at
    a time and picks eviction victims from the registries.
    """

    def __init__(self, machines: Table) -> None:
        super().__init__(machines)
        self.running: list[dict[tuple[int, int], SimTask]] = [
            dict() for _ in range(self.num_machines)
        ]

    def fits(self, m: int, task: SimTask) -> bool:
        return (
            self.free_cpu[m] >= task.cpu_request
            and self.free_mem[m] >= task.mem_request
        )

    def candidates(self, task: SimTask) -> np.ndarray:
        """Boolean mask of machines that can host the task right now."""
        return (
            (self.free_cpu >= task.cpu_request)
            & (self.free_mem >= task.mem_request)
            & self.available
        )

    def start(self, m: int, task: SimTask) -> None:
        """Account a task starting on machine ``m``."""
        key = (task.job_id, task.task_index)
        if key in self.running[m]:
            raise RuntimeError(f"task {key} already running on machine {m}")
        self.free_cpu[m] -= task.cpu_request
        self.free_mem[m] -= task.mem_request
        self.cpu_base[m] += task.cpu_eff
        self.mem_base[m] += task.mem_eff
        self.mem_assigned[m] += task.mem_request
        self.page_base[m] += task.page_cache
        self.cpu_band[m, task.band] += task.cpu_eff
        self.mem_band[m, task.band] += task.mem_eff
        self.n_running[m] += 1
        self.running[m][key] = task

    def stop(self, m: int, task: SimTask) -> None:
        """Account a task leaving machine ``m`` (completion or eviction)."""
        key = (task.job_id, task.task_index)
        if self.running[m].pop(key, None) is None:
            raise RuntimeError(f"task {key} not running on machine {m}")
        self.free_cpu[m] += task.cpu_request
        self.free_mem[m] += task.mem_request
        self.cpu_base[m] -= task.cpu_eff
        self.mem_base[m] -= task.mem_eff
        self.mem_assigned[m] -= task.mem_request
        self.page_base[m] -= task.page_cache
        self.cpu_band[m, task.band] -= task.cpu_eff
        self.mem_band[m, task.band] -= task.mem_eff
        self.n_running[m] -= 1
        # Clamp tiny negative residue from float cancellation. Every
        # aggregate that is a sum over running tasks must be clamped, not
        # just the free columns: over millions of start/stop pairs the
        # usage aggregates accumulate the same cancellation residue, and
        # the monitor would sample (and record) the negative values.
        for arr in (
            self.free_cpu,
            self.free_mem,
            self.cpu_base,
            self.mem_base,
            self.mem_assigned,
            self.page_base,
        ):
            if -1e-12 < arr[m] < 0:
                arr[m] = 0.0
        band = task.band
        for arr in (self.cpu_band, self.mem_band):
            if -1e-12 < arr[m, band] < 0:
                arr[m, band] = 0.0

    def eviction_victims(
        self, m: int, task: SimTask
    ) -> list[SimTask] | None:
        """Lowest-priority running tasks whose eviction would fit ``task``.

        Returns None when even evicting every lower-priority task would
        not free enough resources.
        """
        need_cpu = task.cpu_request - self.free_cpu[m]
        need_mem = task.mem_request - self.free_mem[m]
        lower = [
            t for t in self.running[m].values() if t.priority < task.priority
        ]
        lower.sort(key=lambda t: (t.priority, -t.start_time))
        victims: list[SimTask] = []
        for victim in lower:
            if need_cpu <= 0 and need_mem <= 0:
                break
            victims.append(victim)
            need_cpu -= victim.cpu_request
            need_mem -= victim.mem_request
        if need_cpu > 0 or need_mem > 0:
            return None
        return victims


def choose_machine(
    fleet: FleetState,
    task: SimTask,
    policy: str,
    rng: np.random.Generator,
) -> int:
    """Pick a machine for the task, or -1 when nothing fits.

    Tasks carrying placement constraints (``task.allowed_mask``) are
    only offered machines inside their mask. ``balance`` picks the most
    relative free CPU, ``best_fit`` the least free CPU that still fits,
    ``first_fit`` the lowest index, ``random`` a uniform candidate.
    """
    mask = fleet.candidates(task)
    if task.allowed_mask is not None:
        mask &= task.allowed_mask
    if not mask.any():
        return -1
    idx = np.flatnonzero(mask)
    if policy == "balance":
        score = fleet.free_cpu[idx] / fleet.cpu_capacity[idx]
        return int(idx[np.argmax(score)])
    if policy == "best_fit":
        return int(idx[np.argmin(fleet.free_cpu[idx])])
    if policy == "first_fit":
        return int(idx[0])
    if policy == "random":
        return int(rng.choice(idx))
    raise ValueError(
        f"unknown placement policy {policy!r}; choose from {PLACEMENT_POLICIES}"
    )


def find_preemption(
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


# -- the failure model's draws ------------------------------------------------


def redraw_fate(model: FailureModel, rng: np.random.Generator) -> int:
    """Draw an i.i.d. fate for a resubmitted incarnation."""
    names = [name for name, _ in model.refate_probs]
    probs = [p for _, p in model.refate_probs]
    pick = names[int(rng.choice(len(names), p=probs))]
    return int(TaskEvent[pick.upper()])


def run_time(
    model: FailureModel, fate: int, duration: float, rng: np.random.Generator
) -> float:
    """Wall-clock the task actually runs before its terminal event."""
    if fate == int(TaskEvent.FINISH):
        return duration
    if fate == int(TaskEvent.FAIL):
        lo, hi = model.fail_fraction
    elif fate == int(TaskEvent.KILL):
        lo, hi = model.kill_fraction
    elif fate == int(TaskEvent.LOST):
        lo, hi = model.lost_fraction
    elif fate == int(TaskEvent.EVICT):
        lo, hi = model.evict_fraction
    else:
        raise ValueError(f"fate {fate} has no run-time rule")
    return duration * rng.uniform(lo, hi)


def resubmits(
    model: FailureModel,
    fate: int,
    resubmits_so_far: int,
    rng: np.random.Generator,
) -> bool:
    """Whether a dead task re-enters the pending queue.

    Failed and evicted tasks retry with probability ``resubmit_prob``
    up to ``max_resubmits`` times; killed and lost tasks do not come
    back (the user gave up / the data is gone).
    """
    if resubmits_so_far >= model.max_resubmits:
        return False
    if fate in (int(TaskEvent.FAIL), int(TaskEvent.EVICT)):
        return bool(rng.uniform() < model.resubmit_prob)
    return False


# -- the scalar engine --------------------------------------------------------


class ScalarEventQueue(EventQueue):
    """The library's event queue plus the one-at-a-time drain of the
    scalar engine, whose order the batched drain is held to."""

    __slots__ = ()

    @property
    def now(self) -> float:
        """Timestamp of the most recently popped event."""
        return self._time

    def pop(self) -> tuple[float, int, object]:
        """Pop the earliest event; advances :attr:`now`."""
        time, _seq, kind, payload = heapq.heappop(self._heap)
        self._time = time
        return time, kind, payload


def run_scalar(sim, requests: TaskRequests, horizon: float) -> SimResult:
    """Simulate ``[0, horizon]`` seconds the way the scalar engine did.

    ``sim`` is a :class:`~repro.sim.cluster.ClusterSimulator`; its
    machines, config and generator are used exactly as
    ``ClusterSimulator.run`` uses them. Events are drained one at a
    time (:meth:`ScalarEventQueue.pop`), the reference order the
    library's batched drain is held to.
    """
    config = sim.config
    rng = sim.rng
    fleet = FleetState(sim.machines)
    monitor = UsageMonitor(fleet, config.monitor, rng)
    pending = PendingQueue()
    queue = ScalarEventQueue()
    failures = config.failures

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
        end = time + run_time(failures, task.fate, task.duration, rng)
        if end <= horizon:
            queue.push(end, COMPLETE, (task, task.incarnation))

    def evict(victim: SimTask, time: float) -> None:
        m = victim.machine
        fleet.stop(m, victim)
        record(time, victim, int(TaskEvent.EVICT), m)
        counts["evict"] += 1
        victim.incarnation += 1  # invalidates its COMPLETE event
        victim.machine = -1
        if resubmits(failures, int(TaskEvent.EVICT), victim.resubmits, rng):
            victim.resubmits += 1
            victim.fate = redraw_fate(failures, rng)
            victim.state = TaskState.PENDING
            record(time, victim, int(TaskEvent.SUBMIT), -1)
            counts["submitted"] += 1
            pending.push(victim)
        else:
            victim.state = TaskState.DEAD

    def try_place(task: SimTask, time: float) -> bool:
        m = choose_machine(fleet, task, config.placement, rng)
        if m >= 0:
            start(task, m, time)
            return True
        if config.preemption:
            target, victims = find_preemption(fleet, task)
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
            m = choose_machine(fleet, head, config.placement, rng)
            if m < 0:
                break
            pending.pop()
            start(head, m, time)

    # Seed the event queue: arrivals (pre-sorted), first tick.
    tasks = build_tasks(requests)
    if config.constraints is not None:
        model = config.constraints
        if model.num_machines != fleet.num_machines:
            raise ValueError("constraint model machine count does not match fleet")
        for task in tasks:
            task.constraints = model.sample_constraints(rng)
            if task.constraints:
                task.allowed_mask = model.satisfying_mask(task.constraints)
    arrival_times = requests.submit_time
    next_arrival = 0
    n_tasks = len(tasks)
    period = config.monitor.sample_period
    queue.push(0.0, TICK, None)
    if config.churn is not None:
        for outage in sample_outages(
            config.churn, fleet.num_machines, horizon, rng
        ):
            queue.push(outage.start, MACHINE_DOWN, outage.machine)
            if outage.end < horizon:
                queue.push(outage.end, MACHINE_UP, outage.machine)

    n_finished = 0
    n_abnormal = 0

    while True:
        next_event = queue.peek_time()
        arr_time = arrival_times[next_arrival] if next_arrival < n_tasks else None
        if next_event is None and arr_time is None:
            break
        if arr_time is not None and (next_event is None or arr_time < next_event):
            task = tasks[next_arrival]
            next_arrival += 1
            time = float(arr_time)
            if time > horizon:
                break
            record(time, task, int(TaskEvent.SUBMIT), -1)
            counts["submitted"] += 1
            if not try_place(task, time):
                pending.push(task)
            continue

        time, kind, payload = queue.pop()
        if time > horizon:
            break
        if kind == MACHINE_DOWN:
            m = int(payload)
            fleet.available[m] = False
            # Evict everything running there (machine maintenance).
            for victim in list(fleet.running[m].values()):
                evict(victim, time)
            continue
        if kind == MACHINE_UP:
            fleet.available[int(payload)] = True
            drain_pending(time)
            continue
        if kind == TICK:
            monitor.sample(time, len(pending), n_finished, n_abnormal)
            if time + period <= horizon:
                queue.push(time + period, TICK, None)
        elif kind == COMPLETE:
            task, incarnation = payload
            if task.incarnation != incarnation or task.state != TaskState.RUNNING:
                continue  # stale completion (task was evicted)
            fleet.stop(task.machine, task)
            record(time, task, task.fate, task.machine)
            counts[TaskEvent(task.fate).name.lower()] += 1
            n_finished += 1
            if task.fate != int(TaskEvent.FINISH):
                n_abnormal += 1
            task.machine = -1
            task.incarnation += 1
            if resubmits(failures, task.fate, task.resubmits, rng):
                task.resubmits += 1
                task.fate = redraw_fate(failures, rng)
                task.state = TaskState.PENDING
                record(time, task, int(TaskEvent.SUBMIT), -1)
                counts["submitted"] += 1
                if not try_place(task, time):
                    pending.push(task)
            else:
                task.state = TaskState.DEAD
            # Either way resources were freed: admit pending work.
            drain_pending(time)

    # Horizon-edge accounting: tasks still running (their completion
    # would land past the horizon, so no COMPLETE event was queued) or
    # still pending at the end of the run appear in no terminal counter.
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
        machines=sim.machines,
        horizon=horizon,
        counts=counts,
    )


# -- host-load series ---------------------------------------------------------


def all_machine_series_scalar(
    machine_usage: Table, machines: Table
) -> dict[int, MachineLoadSeries]:
    """Filter the full usage table once per machine: O(machines x rows)."""
    out: dict[int, MachineLoadSeries] = {}
    for machine_id in machines["machine_id"]:
        mid = int(machine_id)
        if not (machine_usage["machine_id"] == mid).any():
            continue
        out[mid] = machine_series(machine_usage, machines, mid)
    return out


def pooled_level_durations_scalar(
    series: dict[int, MachineLoadSeries],
    attribute: str = "cpu",
    edges: np.ndarray = DEFAULT_USAGE_LEVELS,
) -> dict[int, np.ndarray]:
    """Segment one machine at a time and pool the durations per level."""
    n_levels = len(np.asarray(edges)) - 1
    pools: dict[int, list[np.ndarray]] = {lvl: [] for lvl in range(n_levels)}
    for s in series.values():
        per_machine = level_durations(s.times, s.relative(attribute), edges)
        for lvl, durations in per_machine.items():
            if durations.size:
                pools[lvl].append(durations)
    return {
        lvl: (np.concatenate(chunks) if chunks else np.empty(0))
        for lvl, chunks in pools.items()
    }
