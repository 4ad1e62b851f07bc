"""Structure-of-arrays engine behind :meth:`ClusterSimulator.run`.

The library's one simulator engine. It reproduces, bit for bit, the
scalar object-per-task engine it replaced (kept as the tests' oracle,
``tests.oracles.run_scalar``), with the per-event object costs
stripped:

* **SoA task state.** Immutable per-task columns live in one
  :class:`~repro.sim.task.TaskColumns` block; the mutable state
  (``state``, ``machine``, ``incarnation``, ``resubmits``, ``fate``,
  ``start_time``) lives in flat Python lists indexed by task row.
  ``record()`` appends ``(time, row, etype, machine)`` to four Python
  lists and the final event table is assembled by fancy-indexing the
  columns once, instead of eight lists fed one attribute read at a
  time.
* **Batch admission.** Placement resolves against maintained fleet
  columns: for the ``balance`` policy a per-machine relative-free-CPU
  ``score`` array is updated on every start/stop and the hot path is a
  single masked-argmax probe (falling back to the literal
  :func:`~repro.sim.scheduler.choose_machine_columns` decision whenever
  the probe machine is ineligible), so a same-timestamp run of arrivals
  and the ``drain_pending`` sweep cost one argmax per admitted task
  instead of one full candidate scan. FCFS-per-priority head-of-line
  order is untouched: tasks are still admitted one at a time in
  exactly the scalar engine's order; only the per-decision cost
  changes.

The event queue is the binary-heap :class:`~repro.sim.engine.EventQueue`,
drained one timestamp at a time with
:meth:`~repro.sim.engine.EventQueue.pop_batch`. When the compiled
kernel (:mod:`repro.sim._ckernel`) is built and covers the config,
:func:`run_soa` hands the whole run to it; the Python loop below is the
path for machines without a compiler and the kernel's own oracle.

Why the results are byte-identical:

* Fleet accounting runs on Python floats. CPython floats and NumPy
  float64 are the same IEEE-754 doubles, and the update expressions
  (including the scalar engine's residue clamps on stop) are
  transcribed literally, so every intermediate value matches bit for
  bit. The NumPy ``FleetState`` arrays are re-synced from the lists
  right before each monitor tick, so the monitor draws noise from
  exactly the values the scalar engine would hand it.
* The argmax probe is exact, not approximate: if the globally
  first-argmax machine is eligible (fits, available, allowed), it *is*
  the masked argmax — every eligible machine's score is bounded by the
  global maximum, and NumPy's argmax returns the first index attaining
  it, so no eligible machine with an equal score can precede the probe
  result. Down machines hold score ``-inf`` and can never win the
  probe. Any other case falls back to the literal masked computation.
* RNG draws are positionally exact. Every failure-model draw is one
  ``rng.random()`` call in the scalar engine's order
  (``uniform(lo, hi) == lo + (hi-lo)*random()``, ``uniform() ==
  random()``, and ``choice(n, p) == searchsorted(cdf, random(),
  'right')`` with ``cdf = p.cumsum(); cdf /= cdf[-1]`` — all bitwise
  identities of ``numpy.random.Generator``), so the monitor's vector
  draws, the ``random`` placement policy's ``choice`` and the final
  generator state see the stream exactly where the scalar engine
  leaves it, for any bit generator.

The golden-equivalence suite (tests/test_sim_soa.py) pins all of this:
seeds x placement policies x preemption x churn x constraints, all
four ``SimResult`` tables compared for equality, counts and final RNG
state included, for the C kernel and the Python loop alike.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappush, heappop

import numpy as np

from ..core.table import Table
from ..traces.schema import TASK_EVENT_SCHEMA, TaskEvent, TaskState
from .churn import sample_outages
from .engine import COMPLETE, MACHINE_DOWN, MACHINE_UP, TICK, EventQueue
from .failures import FailureModel
from .machine import FleetState
from .monitor import UsageMonitor
from .scheduler import choose_machine_columns
from .task import TaskColumns

__all__ = ["run_soa"]

_PENDING = int(TaskState.PENDING)
_RUNNING = int(TaskState.RUNNING)
_DEAD = int(TaskState.DEAD)

_SUBMIT = int(TaskEvent.SUBMIT)
_SCHEDULE = int(TaskEvent.SCHEDULE)
_EVICT = int(TaskEvent.EVICT)
_FAIL = int(TaskEvent.FAIL)
_FINISH = int(TaskEvent.FINISH)

_NEG_INF = float("-inf")


def run_soa(sim, requests, horizon: float):
    """The body of ``ClusterSimulator.run`` for the simulator ``sim``.

    Validates ``horizon`` and the failure model's type, then runs the
    compiled hot loop (:mod:`repro.sim._ckernel`) when it is available
    and covers the configuration (same decisions, same bits, another
    order of magnitude faster), and the Python loop below otherwise.
    """
    from .cluster import SimResult  # circular at import time

    if horizon <= 0:
        raise ValueError("horizon must be positive")
    config = sim.config
    failures = config.failures
    if type(failures) is not FailureModel:
        raise TypeError(
            "the simulator inlines FailureModel's draws and cannot honor "
            f"a subclass override ({type(failures).__name__})"
        )
    from . import _ckernel

    result = _ckernel.try_run(sim, requests, horizon)
    if result is not None:
        return result
    rng = sim.rng
    policy = config.placement
    fleet = FleetState(sim.machines)
    monitor = UsageMonitor(fleet, config.monitor, rng)
    n_m = fleet.num_machines

    cols = TaskColumns.from_requests(requests)
    n_tasks = len(cols)

    # -- immutable per-task columns as Python lists (20ns row reads) --------
    arr_times = cols.submit_time.tolist()
    job = cols.job_id.tolist()
    tidx = cols.task_index.tolist()
    prio = cols.priority.tolist()
    band = cols.band.tolist()
    cpu_req = cols.cpu_request.tolist()
    mem_req = cols.mem_request.tolist()
    duration = cols.duration.tolist()
    cpu_eff = cols.cpu_eff.tolist()
    mem_eff = cols.mem_eff.tolist()
    page_cache = cols.page_cache.tolist()

    # -- mutable per-task state (the scalar task's fields, columnar) --------
    state = [_PENDING] * n_tasks
    machine = [-1] * n_tasks
    incarnation = [0] * n_tasks
    resubmit_ct = [0] * n_tasks
    fate = cols.fate.tolist()
    start_time = [-1.0] * n_tasks
    allowed: list = [None] * n_tasks

    # The scalar engine samples constraints per task in row order before
    # the loop; replicate that exact draw sequence.
    if config.constraints is not None:
        model = config.constraints
        if model.num_machines != n_m:
            raise ValueError("constraint model machine count does not match fleet")
        for i in range(n_tasks):
            constraints = model.sample_constraints(rng)
            if constraints:
                allowed[i] = model.satisfying_mask(constraints)

    # -- fleet accounting as Python lists -----------------------------------
    cap = fleet.cpu_capacity.tolist()
    free_cpu = fleet.free_cpu.tolist()
    free_mem = fleet.free_mem.tolist()
    cpu_base = [0.0] * n_m
    mem_base = [0.0] * n_m
    mem_assigned = [0.0] * n_m
    page_base = [0.0] * n_m
    cpu_band = [[0.0] * n_m for _ in range(3)]
    mem_band = [[0.0] * n_m for _ in range(3)]
    n_running = [0] * n_m
    available = [True] * n_m
    running: list[dict[tuple[int, int], int]] = [dict() for _ in range(n_m)]
    # Maintained relative-free-CPU score for the balance argmax probe;
    # down machines hold -inf so they can never win.
    score = fleet.free_cpu / fleet.cpu_capacity
    balance = policy == "balance"
    # NumPy mirrors of the hot fleet lists, updated in place on every
    # start/stop (they hold the exact same doubles), so vectorized
    # placement never needs a list->array sync.
    free_cpu_np = fleet.free_cpu.copy()
    free_mem_np = fleet.free_mem.copy()
    avail_np = np.ones(n_m, dtype=bool)
    # Preallocated scratch for the masked-argmax placement kernels.
    _t1 = np.empty(n_m)
    _t2 = np.empty(n_m)
    _fits = np.empty(n_m, dtype=bool)
    _masked = np.empty(n_m)
    _neg_inf_arr = np.full(n_m, _NEG_INF)
    _pos_inf_arr = np.full(n_m, np.inf)

    # -- failure model, inlined (one double per draw) -----------------------
    fractions = {
        int(TaskEvent.FAIL): failures.fail_fraction,
        int(TaskEvent.KILL): failures.kill_fraction,
        int(TaskEvent.LOST): failures.lost_fraction,
        int(TaskEvent.EVICT): failures.evict_fraction,
    }
    run_frac = {
        code: (lo, hi - lo) for code, (lo, hi) in fractions.items()
    }
    resubmit_prob = failures.resubmit_prob
    max_resubmits = failures.max_resubmits
    refate_codes = [
        int(TaskEvent[name.upper()]) for name, _ in failures.refate_probs
    ]
    # Replicates Generator.choice's internal CDF: cumsum then normalize
    # by the last entry; searchsorted(side="right") == bisect_right.
    _cdf = np.asarray(
        [p for _, p in failures.refate_probs], dtype=np.float64
    ).cumsum()
    _cdf /= _cdf[-1]
    refate_cdf = _cdf.tolist()
    fate_key = {
        int(event): event.name.lower()
        for event in (
            TaskEvent.FINISH,
            TaskEvent.FAIL,
            TaskEvent.KILL,
            TaskEvent.EVICT,
            TaskEvent.LOST,
        )
    }

    draw = rng.random

    # Event-log builders (flat Python lists; arrays built at the end).
    log_time: list[float] = []
    log_row: list[int] = []
    log_type: list[int] = []
    log_machine: list[int] = []

    def record(time: float, row: int, etype: int, m: int) -> None:
        log_time.append(time)
        log_row.append(row)
        log_type.append(etype)
        log_machine.append(m)

    counts = {
        "finish": 0,
        "fail": 0,
        "kill": 0,
        "evict": 0,
        "lost": 0,
        "submitted": 0,
        "scheduled": 0,
    }

    period = config.monitor.sample_period
    queue = EventQueue()
    queue_push = queue.push
    pending: list[tuple[int, int, int]] = []  # (-priority, seq, row)
    pending_seq = 0

    def _sync_fleet() -> None:
        np.copyto(fleet.free_cpu, free_cpu_np)
        np.copyto(fleet.free_mem, free_mem_np)
        np.copyto(fleet.available, avail_np)
        fleet.cpu_base[:] = cpu_base
        fleet.mem_base[:] = mem_base
        fleet.mem_assigned[:] = mem_assigned
        fleet.page_base[:] = page_base
        fleet.n_running[:] = n_running
        for b in range(3):
            fleet.cpu_band[:, b] = cpu_band[b]
            fleet.mem_band[:, b] = mem_band[b]

    cap_np = fleet.cpu_capacity
    best_fit = policy == "best_fit"
    first_fit = policy == "first_fit"
    score_argmax = score.argmax

    def _place(row: int) -> int:
        cpu_r = cpu_req[row]
        mem_r = mem_req[row]
        mask = allowed[row]
        if balance:
            # Probe: if the global first-argmax machine is eligible it
            # equals the masked argmax (see module docstring).
            m = int(score_argmax())
            if (
                free_cpu[m] >= cpu_r
                and free_mem[m] >= mem_r
                and available[m]
                and (mask is None or mask[m])
            ):
                return m
        elif policy == "random":
            # Generator.choice must see the literal candidate index
            # array, so keep the full twin for this policy.
            return choose_machine_columns(
                free_cpu_np, free_mem_np, avail_np, cap_np,
                cpu_r, mem_r, mask, policy, rng,
            )
        # Exact masked argmax/argmin over the maintained mirrors, into
        # preallocated scratch. min(fc-c, fm-m) >= 0 is IEEE-exact for
        # (fc >= c) & (fm >= m): a floating-point difference is never
        # rounded across zero (Sterbenz), so the candidate mask matches
        # the scalar engine's bit for bit.
        np.subtract(free_cpu_np, cpu_r, out=_t1)
        np.subtract(free_mem_np, mem_r, out=_t2)
        np.minimum(_t1, _t2, out=_t1)
        np.greater_equal(_t1, 0.0, out=_fits)
        if mask is not None:
            np.logical_and(_fits, mask, out=_fits)
        if balance:
            # Down machines may pass the fits test (their tasks were
            # evicted, freeing capacity) but carry score -inf, so the
            # where-fill excludes them exactly like the explicit
            # availability mask would.
            np.copyto(_masked, _neg_inf_arr)
            np.copyto(_masked, score, where=_fits)
            m = int(_masked.argmax())
            return m if _masked[m] != _NEG_INF else -1
        np.logical_and(_fits, avail_np, out=_fits)
        if best_fit:
            np.copyto(_masked, _pos_inf_arr)
            np.copyto(_masked, free_cpu_np, where=_fits)
            m = int(_masked.argmin())
            return m if _fits[m] else -1
        if first_fit:
            m = int(_fits.argmax())  # first True index
            return m if _fits[m] else -1
        raise ValueError(f"unknown placement policy {policy!r}")

    def _start(row: int, m: int, time: float) -> None:
        state[row] = _RUNNING
        machine[row] = m
        start_time[row] = time
        key = (job[row], tidx[row])
        reg = running[m]
        if key in reg:
            raise RuntimeError(f"task {key} already running on machine {m}")
        cr = cpu_req[row]
        mr = mem_req[row]
        ce = cpu_eff[row]
        me = mem_eff[row]
        fc = free_cpu[m] - cr
        free_cpu[m] = fc
        free_cpu_np[m] = fc
        fm = free_mem[m] - mr
        free_mem[m] = fm
        free_mem_np[m] = fm
        cpu_base[m] += ce
        mem_base[m] += me
        mem_assigned[m] += mr
        page_base[m] += page_cache[row]
        b = band[row]
        cpu_band[b][m] += ce
        mem_band[b][m] += me
        n_running[m] += 1
        reg[key] = row
        score[m] = fc / cap[m]
        record(time, row, _SCHEDULE, m)
        counts["scheduled"] += 1
        f = fate[row]
        if f == _FINISH:
            run_time = duration[row]
        else:
            try:
                lo, span = run_frac[f]
            except KeyError:
                raise ValueError(f"fate {f} has no run-time rule") from None
            run_time = duration[row] * (lo + span * draw())
        end = time + run_time
        if end <= horizon:
            queue_push(end, COMPLETE, (row, incarnation[row]))

    def _fleet_stop(m: int, row: int) -> None:
        key = (job[row], tidx[row])
        if running[m].pop(key, None) is None:
            raise RuntimeError(f"task {key} not running on machine {m}")
        # Clamp float-cancellation residue, exactly like the scalar
        # engine's stop (each field is independent, so clamping the
        # temp is the same).
        fc = free_cpu[m] + cpu_req[row]
        if fc < 0 and fc > -1e-12:
            fc = 0.0
        free_cpu[m] = fc
        free_cpu_np[m] = fc
        fm = free_mem[m] + mem_req[row]
        if fm < 0 and fm > -1e-12:
            fm = 0.0
        free_mem[m] = fm
        free_mem_np[m] = fm
        v = cpu_base[m] - cpu_eff[row]
        cpu_base[m] = 0.0 if -1e-12 < v < 0 else v
        v = mem_base[m] - mem_eff[row]
        mem_base[m] = 0.0 if -1e-12 < v < 0 else v
        v = mem_assigned[m] - mem_req[row]
        mem_assigned[m] = 0.0 if -1e-12 < v < 0 else v
        v = page_base[m] - page_cache[row]
        page_base[m] = 0.0 if -1e-12 < v < 0 else v
        b = band[row]
        v = cpu_band[b][m] - cpu_eff[row]
        cpu_band[b][m] = 0.0 if -1e-12 < v < 0 else v
        v = mem_band[b][m] - mem_eff[row]
        mem_band[b][m] = 0.0 if -1e-12 < v < 0 else v
        n_running[m] -= 1
        score[m] = fc / cap[m] if available[m] else _NEG_INF

    def _resubmit_decision(row: int, f: int) -> bool:
        # FailureModel.resubmits with the same draw-consumption pattern:
        # at the retry cap nothing is drawn; only FAIL/EVICT draw.
        if resubmit_ct[row] >= max_resubmits:
            return False
        if f == _FAIL or f == _EVICT:
            return draw() < resubmit_prob
        return False

    def _evict(row: int, time: float) -> None:
        nonlocal pending_seq
        m = machine[row]
        _fleet_stop(m, row)
        record(time, row, _EVICT, m)
        counts["evict"] += 1
        incarnation[row] += 1
        machine[row] = -1
        if _resubmit_decision(row, _EVICT):
            resubmit_ct[row] += 1
            fate[row] = refate_codes[bisect_right(refate_cdf, draw())]
            state[row] = _PENDING
            record(time, row, _SUBMIT, -1)
            counts["submitted"] += 1
            heappush(pending, (-prio[row], pending_seq, row))
            pending_seq += 1
        else:
            state[row] = _DEAD

    def _find_preemption(row: int) -> tuple[int, list[int]]:
        # Mirrors the scalar engine's preemption scan and victim choice
        # on the SoA state (the mirrors hold the exact doubles the
        # scalar engine's fleet would).
        order = np.argsort(-(free_cpu_np / cap_np), kind="stable")
        mask = allowed[row]
        p = prio[row]
        cpu_r = cpu_req[row]
        mem_r = mem_req[row]
        for m in order:
            m = int(m)
            if not available[m]:
                continue
            if mask is not None and not mask[m]:
                continue
            need_cpu = cpu_r - free_cpu[m]
            need_mem = mem_r - free_mem[m]
            lower = [r for r in running[m].values() if prio[r] < p]
            lower.sort(key=lambda r: (prio[r], -start_time[r]))
            victims: list[int] = []
            feasible = True
            for victim in lower:
                if need_cpu <= 0 and need_mem <= 0:
                    break
                victims.append(victim)
                need_cpu -= cpu_req[victim]
                need_mem -= mem_req[victim]
            if need_cpu > 0 or need_mem > 0:
                feasible = False
            if feasible:
                return m, victims
        return -1, []

    preemption = config.preemption

    def _try_place(row: int, time: float) -> bool:
        m = _place(row)
        if m >= 0:
            _start(row, m, time)
            return True
        if preemption:
            target, victims = _find_preemption(row)
            if target >= 0:
                for victim in victims:
                    _evict(victim, time)
                _start(row, target, time)
                return True
        return False

    def _drain_pending(time: float) -> None:
        # FCFS per priority with head-of-line blocking.
        while pending:
            head = pending[0][2]
            m = _place(head)
            if m < 0:
                break
            heappop(pending)
            _start(head, m, time)

    # -- seed the queue: first tick, churn outages --------------------------
    queue_push(0.0, TICK, None)
    if config.churn is not None:
        for outage in sample_outages(config.churn, n_m, horizon, rng):
            queue_push(outage.start, MACHINE_DOWN, outage.machine)
            if outage.end < horizon:
                queue_push(outage.end, MACHINE_UP, outage.machine)

    n_finished = 0
    n_abnormal = 0
    next_arrival = 0
    peek_time = queue.peek_time
    pop_batch = queue.pop_batch

    while True:
        next_event = peek_time()
        arr_time = arr_times[next_arrival] if next_arrival < n_tasks else None
        if next_event is None and arr_time is None:
            break
        if arr_time is not None and (next_event is None or arr_time < next_event):
            row = next_arrival
            next_arrival += 1
            time = arr_time
            if time > horizon:
                break
            record(time, row, _SUBMIT, -1)
            counts["submitted"] += 1
            if not _try_place(row, time):
                heappush(pending, (-prio[row], pending_seq, row))
                pending_seq += 1
            continue

        batch = pop_batch()
        time = batch[0][0]
        if time > horizon:
            break
        for _t, kind, payload in batch:
            if kind == COMPLETE:
                row, inc = payload
                if incarnation[row] != inc or state[row] != _RUNNING:
                    continue  # stale completion (task was evicted)
                m = machine[row]
                _fleet_stop(m, row)
                f = fate[row]
                record(time, row, f, m)
                counts[fate_key[f]] += 1
                n_finished += 1
                if f != _FINISH:
                    n_abnormal += 1
                machine[row] = -1
                incarnation[row] += 1
                if _resubmit_decision(row, f):
                    resubmit_ct[row] += 1
                    fate[row] = refate_codes[bisect_right(refate_cdf, draw())]
                    state[row] = _PENDING
                    record(time, row, _SUBMIT, -1)
                    counts["submitted"] += 1
                    if not _try_place(row, time):
                        heappush(pending, (-prio[row], pending_seq, row))
                        pending_seq += 1
                else:
                    state[row] = _DEAD
                _drain_pending(time)
            elif kind == TICK:
                _sync_fleet()
                monitor.sample(time, len(pending), n_finished, n_abnormal)
                if time + period <= horizon:
                    queue_push(time + period, TICK, None)
            elif kind == MACHINE_DOWN:
                m = int(payload)
                available[m] = False
                avail_np[m] = False
                score[m] = _NEG_INF
                for victim in list(running[m].values()):
                    _evict(victim, time)
            else:  # MACHINE_UP
                m = int(payload)
                available[m] = True
                avail_np[m] = True
                score[m] = free_cpu[m] / cap[m]
                _drain_pending(time)

    counts["still_running"] = sum(n_running)
    counts["still_pending"] = len(pending)

    ev_row = np.asarray(log_row, dtype=np.int64)
    task_events = Table(
        {
            "time": np.asarray(log_time, dtype=np.float64),
            "job_id": cols.job_id[ev_row],
            "task_index": cols.task_index[ev_row],
            "machine_id": np.asarray(log_machine, dtype=np.int64),
            "event_type": np.asarray(log_type, dtype=np.int8),
            "priority": cols.priority[ev_row],
            "cpu_request": cols.cpu_request[ev_row],
            "mem_request": cols.mem_request[ev_row],
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
