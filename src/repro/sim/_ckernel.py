"""Optional compiled hot loop for the SoA engine (cffi + gcc).

The Python loop of :mod:`repro.sim.soa` is the portable path of
``ClusterSimulator.run`` and this kernel's oracle; this module compiles
``_kernel.c`` — a literal C transcription of the same event loop — when
a C compiler and ``cffi`` are available, for another order of
magnitude. Everything is gated:

* Build failures, a missing compiler, or a missing ``cffi`` simply
  disable the kernel (``load()`` returns None) and the Python loop
  runs instead. ``REPRO_SIM_PURE_PYTHON=1`` is the one switch that
  turns the kernel off on a machine that has it.
* The kernel reimplements PCG64 (XSL-RR 128/64) for its scalar
  uniform draws. ``load()`` verifies the C stream against
  ``numpy.random.Generator.random`` bit for bit before accepting the
  build — if NumPy ever changed its PCG64, the kernel would refuse
  itself rather than silently diverge.
* :func:`try_run` returns None for configurations the kernel does not
  cover (non-PCG64 bit generators, the ``random`` placement policy,
  more than 8 refate probabilities), falling back to the Python loop.

Builds are cached under ``$XDG_CACHE_HOME/repro-ckernel/<hash>`` keyed
by the C source, so the compile cost is paid once per source change.

The monitor stays in Python: the kernel exits at every tick, the PCG64
position is written back into the real bit generator (the scalar draws
consumed exactly one uint64 each, so the position is exact), the
monitor draws its vectorized noise, and the possibly-advanced state is
handed back to C. The fleet arrays are shared buffers — C writes them
in place, the monitor reads them directly, nothing is synced.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from pathlib import Path

import numpy as np

from ..core.table import Table
from ..traces.schema import TASK_EVENT_SCHEMA, TaskEvent
from .churn import sample_outages
from .machine import FleetState
from .monitor import UsageMonitor
from .task import TaskColumns

__all__ = ["load", "try_run"]

_CDEF = """
typedef struct {
    uint64_t pcg_s_hi, pcg_s_lo, pcg_i_hi, pcg_i_lo;
    double *log_time;
    int64_t *log_row;
    int8_t *log_etype;
    int64_t *log_machine;
    int64_t log_n, log_cap;
    int64_t pend_n;
    int64_t c_finish, c_fail, c_kill, c_evict, c_lost, c_submitted,
        c_scheduled;
    int64_t n_finished, n_abnormal;
    double exit_time;
    int32_t error;
    ...;
} SimState;

SimState *sim_new(int32_t n_tasks, int32_t n_m, int32_t policy,
                  int32_t preemption, double horizon, double period,
                  double resubmit_prob, int32_t max_resubmits,
                  double *submit_time, int16_t *priority, int8_t *band,
                  double *cpu_req, double *mem_req, double *duration,
                  double *cpu_eff, double *mem_eff, double *page_cache,
                  int8_t *fate0, int32_t *mask_idx, uint8_t *mask_pool,
                  double *cap, double *free_cpu, double *free_mem,
                  double *cpu_base, double *mem_base, double *mem_assigned,
                  double *page_base, double *cpu_band, double *mem_band,
                  int64_t *n_running, uint8_t *avail);
void sim_free(SimState *s);
void sim_set_run_rule(SimState *s, int32_t code, double lo, double hi);
void sim_set_refate(SimState *s, int32_t n, double *cdf, int8_t *codes);
void sim_push_tick(SimState *s, double time);
void sim_push_churn(SimState *s, double time, int32_t up, int32_t machine);
int sim_run(SimState *s);
int64_t sim_still_running(SimState *s);
void pcg_fill(uint64_t s_hi, uint64_t s_lo, uint64_t i_hi, uint64_t i_lo,
              double *out, int n);
"""

_MASK64 = (1 << 64) - 1

#: Placement policies the kernel implements (code order matters).
_POLICIES = ("balance", "best_fit", "first_fit")

_cached: tuple | None = None


def _build():
    """Compile (or load from cache) the kernel; raises on any failure."""
    from cffi import FFI

    src_path = Path(__file__).with_name("_kernel.c")
    source = src_path.read_text()
    key = hashlib.sha256((_CDEF + source).encode()).hexdigest()[:16]
    module_name = f"_repro_sim_kernel_{key}"
    cache_root = Path(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    )
    build_dir = cache_root / "repro-ckernel" / key
    so_path = next(build_dir.glob(f"{module_name}*.so"), None)
    if so_path is None:
        build_dir.mkdir(parents=True, exist_ok=True)
        ffibuilder = FFI()
        ffibuilder.cdef(_CDEF)
        ffibuilder.set_source(
            module_name, source, extra_compile_args=["-O2"]
        )
        so_path = Path(
            ffibuilder.compile(tmpdir=str(build_dir), verbose=False)
        )
    spec = importlib.util.spec_from_file_location(module_name, so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _selftest(ffi, lib) -> bool:
    """Verify the C PCG64 against NumPy's, bit for bit."""
    # Known-answer test: the seed is deliberately a fixed constant so
    # the C stream is compared against one fixed NumPy reference.
    bitgen = np.random.PCG64(1234567)  # reprolint: disable=REP102
    state = bitgen.state["state"]
    out = ffi.new("double[]", 64)
    lib.pcg_fill(
        state["state"] >> 64,
        state["state"] & _MASK64,
        state["inc"] >> 64,
        state["inc"] & _MASK64,
        out,
        64,
    )
    reference = np.random.Generator(bitgen).random(64)  # reprolint: disable=REP102
    return list(out) == reference.tolist()


def load():
    """The (ffi, lib) pair, or None when the kernel is unavailable."""
    global _cached
    if _cached is not None:
        return _cached[0]
    if os.environ.get("REPRO_SIM_PURE_PYTHON"):
        _cached = (None,)
        return None
    try:
        ffi, lib = _build()
        ok = _selftest(ffi, lib)
    except Exception:
        ok = False
    _cached = ((ffi, lib),) if ok else (None,)
    return _cached[0]


def _f8(arr: np.ndarray, ffi):
    return ffi.cast("double *", arr.ctypes.data)


def try_run(sim, requests, horizon: float):
    """Run on the C kernel, or return None when not eligible/available.

    The caller (:func:`repro.sim.soa.run_soa`) has already validated
    ``horizon`` and the failure model type.
    """
    config = sim.config
    if config.placement not in _POLICIES:
        return None
    rng = sim.rng
    if type(rng.bit_generator).__name__ != "PCG64":
        return None
    if len(config.failures.refate_probs) > 8:
        return None
    kernel = load()
    if kernel is None:
        return None
    ffi, lib = kernel
    from .cluster import SimResult  # circular at import time

    failures = config.failures
    fleet = FleetState(sim.machines)
    monitor = UsageMonitor(fleet, config.monitor, rng)
    n_m = fleet.num_machines
    cols = TaskColumns.from_requests(requests)
    n_tasks = len(cols)

    submit_time = np.ascontiguousarray(cols.submit_time, dtype=np.float64)
    priority = np.ascontiguousarray(cols.priority, dtype=np.int16)
    band = np.ascontiguousarray(cols.band, dtype=np.int8)
    fate0 = np.ascontiguousarray(cols.fate, dtype=np.int8)
    cpu_request = np.ascontiguousarray(cols.cpu_request, dtype=np.float64)
    mem_request = np.ascontiguousarray(cols.mem_request, dtype=np.float64)
    duration = np.ascontiguousarray(cols.duration, dtype=np.float64)
    cpu_eff = np.ascontiguousarray(cols.cpu_eff, dtype=np.float64)
    mem_eff = np.ascontiguousarray(cols.mem_eff, dtype=np.float64)
    page_cache = np.ascontiguousarray(cols.page_cache, dtype=np.float64)

    # Constraint sampling draws from the Python generator in task order,
    # exactly like the other engines, before any simulation draw.
    mask_idx = np.full(n_tasks, -1, dtype=np.int32)
    mask_rows: list[np.ndarray] = []
    if config.constraints is not None:
        model = config.constraints
        if model.num_machines != n_m:
            raise ValueError(
                "constraint model machine count does not match fleet"
            )
        for i in range(n_tasks):
            constraints = model.sample_constraints(rng)
            if constraints:
                mask_idx[i] = len(mask_rows)
                mask_rows.append(
                    model.satisfying_mask(constraints).astype(np.uint8)
                )
    if mask_rows:
        mask_pool = np.ascontiguousarray(np.stack(mask_rows), dtype=np.uint8)
        mask_pool_ptr = ffi.cast("uint8_t *", mask_pool.ctypes.data)
    else:
        mask_pool = None
        mask_pool_ptr = ffi.NULL

    avail_u8 = fleet.available.view(np.uint8)
    # Keep every buffer the kernel borrows alive for the whole run.
    keepalive = (
        cols, submit_time, priority, band, fate0, cpu_request, mem_request,
        duration, cpu_eff, mem_eff, page_cache, mask_idx, mask_pool,
        fleet, avail_u8,
    )

    state = lib.sim_new(
        n_tasks,
        n_m,
        _POLICIES.index(config.placement),
        1 if config.preemption else 0,
        horizon,
        config.monitor.sample_period,
        failures.resubmit_prob,
        failures.max_resubmits,
        _f8(submit_time, ffi),
        ffi.cast("int16_t *", priority.ctypes.data),
        ffi.cast("int8_t *", band.ctypes.data),
        _f8(cpu_request, ffi),
        _f8(mem_request, ffi),
        _f8(duration, ffi),
        _f8(cpu_eff, ffi),
        _f8(mem_eff, ffi),
        _f8(page_cache, ffi),
        ffi.cast("int8_t *", fate0.ctypes.data),
        ffi.cast("int32_t *", mask_idx.ctypes.data),
        mask_pool_ptr,
        _f8(fleet.cpu_capacity, ffi),
        _f8(fleet.free_cpu, ffi),
        _f8(fleet.free_mem, ffi),
        _f8(fleet.cpu_base, ffi),
        _f8(fleet.mem_base, ffi),
        _f8(fleet.mem_assigned, ffi),
        _f8(fleet.page_base, ffi),
        _f8(fleet.cpu_band, ffi),
        _f8(fleet.mem_band, ffi),
        ffi.cast("int64_t *", fleet.n_running.ctypes.data),
        ffi.cast("uint8_t *", avail_u8.ctypes.data),
    )
    try:
        fractions = {
            int(TaskEvent.FAIL): failures.fail_fraction,
            int(TaskEvent.KILL): failures.kill_fraction,
            int(TaskEvent.LOST): failures.lost_fraction,
            int(TaskEvent.EVICT): failures.evict_fraction,
        }
        for code, (lo, hi) in fractions.items():
            lib.sim_set_run_rule(state, code, lo, hi)
        refate_codes = np.asarray(
            [int(TaskEvent[name.upper()]) for name, _ in failures.refate_probs],
            dtype=np.int8,
        )
        # Generator.choice's internal CDF: cumsum, normalize by the last.
        refate_cdf = np.asarray(
            [p for _, p in failures.refate_probs], dtype=np.float64
        ).cumsum()
        refate_cdf /= refate_cdf[-1]
        lib.sim_set_refate(
            state,
            len(refate_codes),
            _f8(refate_cdf, ffi),
            ffi.cast("int8_t *", refate_codes.ctypes.data),
        )

        lib.sim_push_tick(state, 0.0)
        if config.churn is not None:
            for outage in sample_outages(config.churn, n_m, horizon, rng):
                lib.sim_push_churn(state, outage.start, 0, outage.machine)
                if outage.end < horizon:
                    lib.sim_push_churn(state, outage.end, 1, outage.machine)

        bitgen = rng.bit_generator
        pcg = bitgen.state["state"]
        state.pcg_s_hi = pcg["state"] >> 64
        state.pcg_s_lo = pcg["state"] & _MASK64
        state.pcg_i_hi = pcg["inc"] >> 64
        state.pcg_i_lo = pcg["inc"] & _MASK64

        period = config.monitor.sample_period

        def _give_back_rng() -> None:
            d = bitgen.state
            d["state"]["state"] = (
                (int(state.pcg_s_hi) << 64) | int(state.pcg_s_lo)
            )
            bitgen.state = d

        while True:
            code = lib.sim_run(state)
            if code == 2:  # monitor tick
                time = state.exit_time
                _give_back_rng()
                monitor.sample(
                    time,
                    int(state.pend_n),
                    int(state.n_finished),
                    int(state.n_abnormal),
                )
                advanced = bitgen.state["state"]["state"]
                state.pcg_s_hi = advanced >> 64
                state.pcg_s_lo = advanced & _MASK64
                if time + period <= horizon:
                    lib.sim_push_tick(state, time + period)
                continue
            break
        if code != 0:
            raise RuntimeError(
                f"simulation kernel failed (error {int(state.error)})"
            )
        _give_back_rng()

        n_ev = int(state.log_n)
        ev_time = np.frombuffer(
            ffi.buffer(state.log_time, 8 * n_ev), dtype=np.float64
        ).copy()
        ev_row = np.frombuffer(
            ffi.buffer(state.log_row, 8 * n_ev), dtype=np.int64
        ).copy()
        ev_type = np.frombuffer(
            ffi.buffer(state.log_etype, n_ev), dtype=np.int8
        ).copy()
        ev_machine = np.frombuffer(
            ffi.buffer(state.log_machine, 8 * n_ev), dtype=np.int64
        ).copy()
        counts = {
            "finish": int(state.c_finish),
            "fail": int(state.c_fail),
            "kill": int(state.c_kill),
            "evict": int(state.c_evict),
            "lost": int(state.c_lost),
            "submitted": int(state.c_submitted),
            "scheduled": int(state.c_scheduled),
            "still_running": int(lib.sim_still_running(state)),
            "still_pending": int(state.pend_n),
        }
    finally:
        lib.sim_free(state)
    del keepalive

    task_events = Table(
        {
            "time": ev_time,
            "job_id": cols.job_id[ev_row],
            "task_index": cols.task_index[ev_row],
            "machine_id": ev_machine,
            "event_type": ev_type,
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
