"""Calibrated Google-cluster workload model.

Two granularities are provided:

* :func:`generate_google_jobs` — per-job summaries for the workload
  analyses (Figs. 2, 3, 5, 6 and Table I).
* :func:`generate_task_requests` — a columnar stream of task requests
  (arrival, priority, resource demands, duration, fate) to drive the
  cluster simulator that regenerates the host-load results (Figs.
  7-13, Tables II-III).
* :func:`generate_google_trace` — a full, self-consistent
  :class:`~repro.traces.google.GoogleTrace` built statistically
  (placement without contention); useful for trace I/O, validation and
  the workload-side experiments.

Calibration sources are cited field by field in
:class:`GoogleConfig`; headline targets: 552 jobs/hour at fairness
0.94, ~55% of tasks under 10 minutes, ~90% under 1 hour, mean task
length ~5.6 h with a 29-day maximum, ~59% abnormal completion events.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from ..traces.google import GoogleTrace
from ..traces.schema import (
    JOB_TABLE_SCHEMA,
    TASK_EVENT_SCHEMA,
    TASK_USAGE_SCHEMA,
    TaskEvent,
    priority_band_array,
)
from ..core.table import Table, concat_tables
from .arrivals import DoublyStochasticArrivals, cv_for_fairness
from ..core.distributions import BoundedPareto, Distribution, LogNormal, Mixture
from .machines import FleetConfig, generate_machines
from .presets import (
    DAY,
    GOOGLE_JOB_LENGTH,
    GOOGLE_PRIORITY_JOB_WEIGHTS,
    GOOGLE_TASK_LENGTH,
    HOUR,
)

__all__ = [
    "GoogleConfig",
    "TaskRequests",
    "generate_google_jobs",
    "generate_task_requests",
    "iter_task_requests",
    "generate_task_requests_chunked",
    "TASK_REQUEST_COLUMNS",
    "generate_google_trace",
    "FATE_CODES",
]

#: Terminal fates a task can be assigned at creation. EVICT additionally
#: arises mechanistically from preemption inside the simulator.
FATE_CODES = {
    "finish": int(TaskEvent.FINISH),
    "fail": int(TaskEvent.FAIL),
    "kill": int(TaskEvent.KILL),
    "evict": int(TaskEvent.EVICT),
    "lost": int(TaskEvent.LOST),
}


@dataclass(frozen=True)
class GoogleConfig:
    """Knobs of the Google workload model (defaults = paper calibration)."""

    #: Table I: average 552 jobs/hour at fairness 0.94.
    jobs_per_hour: float = 552.0
    fairness: float = 0.94
    #: Fig. 10: a cluster-wide busy stretch on days 21-25.
    busy_window: tuple[float, float] | None = (21 * DAY, 25 * DAY)
    busy_factor: float = 1.8

    #: Fig. 2(a) priority histogram weights (index 0 = priority 1).
    priority_weights: tuple[float, ...] = GOOGLE_PRIORITY_JOB_WEIGHTS

    #: Tasks per job: mostly single-task, with map-reduce style fan-out
    #: bringing the mean to ~37 (25M tasks / 670k jobs).
    single_task_fraction: float = 0.75
    small_job_max_tasks: int = 10
    small_job_fraction: float = 0.20
    large_job_mean_tasks: float = 660.0
    large_job_max_tasks: int = 5000

    #: Task/job lengths (see presets for the calibrated shapes).
    task_length: Distribution = GOOGLE_TASK_LENGTH
    job_length: Distribution = GOOGLE_JOB_LENGTH
    #: High-priority tasks skew to long-running services (Sec. VI).
    high_priority_service_fraction: float = 0.25

    #: Per-task resource demands, normalized to the largest machine.
    cpu_request: Distribution = LogNormal(
        median=0.012, sigma=0.6, low=0.002, high=0.1
    )
    mem_request: Distribution = LogNormal(
        median=0.010, sigma=0.6, low=0.002, high=0.12
    )
    #: Actual usage as a fraction of the request: CPUs run well below
    #: their reservation (cluster CPU ~35% busy) while memory is held
    #: near its reservation (cluster memory ~60% full) - Sec. IV.B.2.
    cpu_utilization_range: tuple[float, float] = (0.4, 0.95)
    mem_utilization_range: tuple[float, float] = (0.75, 1.0)
    page_cache_range: tuple[float, float] = (0.0, 0.03)

    #: Fate mix: tuned so completion events are ~59% abnormal with fail
    #: dominant and kill second (Sec. IV.B.1). Eviction listed here is
    #: only used by the statistical trace; the simulator evicts
    #: mechanistically via preemption.
    fate_probs: dict[str, float] = field(
        default_factory=lambda: {
            "finish": 0.408,
            "fail": 0.296,
            "kill": 0.182,
            "evict": 0.104,
            "lost": 0.010,
        }
    )
    #: Resubmission probability after a fail/evict (drives the 44M
    #: completion events over 25M distinct tasks).
    resubmit_prob: float = 0.65
    max_resubmits: int = 3

    #: Median scheduling delay for the statistical trace (the paper's
    #: Fig. 8(b): pending queues are almost always empty).
    schedule_delay_mean: float = 10.0

    def __post_init__(self) -> None:
        if self.jobs_per_hour <= 0:
            raise ValueError("jobs_per_hour must be positive")
        if not 0 < self.fairness <= 1:
            raise ValueError("fairness must be in (0, 1]")
        if len(self.priority_weights) != 12:
            raise ValueError("priority_weights must have 12 entries")
        total = sum(self.fate_probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fate_probs must sum to 1, got {total}")
        if set(self.fate_probs) != set(FATE_CODES):
            raise ValueError(f"fate_probs keys must be {sorted(FATE_CODES)}")
        if not 0 <= self.resubmit_prob <= 1:
            raise ValueError("resubmit_prob must be a probability")


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _sample_priorities(
    config: GoogleConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    weights = np.asarray(config.priority_weights, dtype=np.float64)
    probs = weights / weights.sum()
    return rng.choice(np.arange(1, 13), size=n, p=probs).astype(np.int16)


def _sample_tasks_per_job(
    config: GoogleConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    u = rng.uniform(0, 1, n)
    counts = np.ones(n, dtype=np.int64)
    small = (u >= config.single_task_fraction) & (
        u < config.single_task_fraction + config.small_job_fraction
    )
    counts[small] = rng.integers(2, config.small_job_max_tasks + 1, int(small.sum()))
    large = u >= config.single_task_fraction + config.small_job_fraction
    n_large = int(large.sum())
    if n_large:
        geo = rng.geometric(1.0 / config.large_job_mean_tasks, n_large)
        counts[large] = np.minimum(geo + 1, config.large_job_max_tasks)
    return counts


#: Nominal trace length used to budget the busy window's variance share.
_NOMINAL_HORIZON = 30 * DAY


def _busy_compensation(
    config: GoogleConfig, rate_per_hour: float
) -> tuple[float, float]:
    """(base rate, residual cv) so that mean and fairness hit target.

    The busy window multiplies the rate by ``busy_factor`` over a
    fraction ``p`` of the trace, adding both mean and variance; the
    base rate and the gamma modulation absorb the difference.
    """
    if config.busy_window is None or config.busy_factor == 1.0:
        return rate_per_hour, cv_for_fairness(config.fairness, rate_per_hour)
    start, end = config.busy_window
    p = min(max((end - start) / _NOMINAL_HORIZON, 0.0), 1.0)
    f = config.busy_factor
    mean_factor = 1.0 + p * (f - 1.0)
    # Variance of the busy multiplier around its mean.
    second_moment = (1.0 - p) + p * f * f
    cv_busy2 = second_moment / mean_factor**2 - 1.0
    cv_target = cv_for_fairness(config.fairness, rate_per_hour)
    cv_resid = float(np.sqrt(max(cv_target**2 - cv_busy2, 0.0)))
    return rate_per_hour / mean_factor, cv_resid


def _arrival_process(config: GoogleConfig) -> DoublyStochasticArrivals:
    base_rate, cv = _busy_compensation(config, config.jobs_per_hour)
    return DoublyStochasticArrivals(
        mean_per_hour=base_rate,
        target_cv=cv,
        diurnal_amplitude=0.05,  # Cloud load is barely diurnal
        busy_window=config.busy_window,
        busy_factor=config.busy_factor,
    )


def generate_google_jobs(
    horizon: float,
    seed: int | np.random.Generator = 0,
    config: GoogleConfig | None = None,
    num_users: int = 500,
) -> Table:
    """Per-job summary table over ``[0, horizon)`` (JOB_TABLE_SCHEMA)."""
    config = config or GoogleConfig()
    rng = _rng(seed)
    submit = _arrival_process(config).generate(rng, horizon)
    n = submit.size
    if n == 0:
        raise ValueError("horizon too short: no jobs generated")
    lengths = config.job_length.sample(rng, n)
    priorities = _sample_priorities(config, rng, n)
    tasks = _sample_tasks_per_job(config, rng, n)
    # Eq. (4) per job: Google jobs are mostly sequential and interactive,
    # so per-job CPU usage concentrates below one processor.
    cpu = np.clip(rng.lognormal(np.log(0.35), 0.7, n), 0.0, 1.5)
    mem = np.clip(rng.lognormal(np.log(0.002), 1.0, n), 0.0, 1.0)
    return Table(
        {
            "job_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, num_users, n),
            "submit_time": submit,
            "end_time": submit + lengths,
            "priority": priorities,
            "num_tasks": tasks.astype(np.int32),
            "cpu_usage": cpu,
            "mem_usage": mem,
        },
        schema=JOB_TABLE_SCHEMA,
    )


@dataclass(frozen=True)
class TaskRequests:
    """Columnar task-request stream for the simulator.

    Each row is one task *submission* (resubmissions are generated by
    the simulator itself on failure/eviction). Arrays share length.
    """

    submit_time: np.ndarray
    job_id: np.ndarray
    task_index: np.ndarray
    priority: np.ndarray
    cpu_request: np.ndarray
    mem_request: np.ndarray
    duration: np.ndarray
    cpu_utilization: np.ndarray
    mem_utilization: np.ndarray
    page_cache: np.ndarray
    fate: np.ndarray  # TaskEvent code drawn at creation

    def __post_init__(self) -> None:
        n = len(self.submit_time)
        for name in (
            "job_id",
            "task_index",
            "priority",
            "cpu_request",
            "mem_request",
            "duration",
            "cpu_utilization",
            "mem_utilization",
            "page_cache",
            "fate",
        ):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")

    def __len__(self) -> int:
        return len(self.submit_time)

    def sorted_by_time(self) -> "TaskRequests":
        order = np.argsort(self.submit_time, kind="stable")
        return TaskRequests(
            **{
                name: getattr(self, name)[order]
                for name in self.__dataclass_fields__
            }
        )


def _sample_task_lengths(
    config: GoogleConfig,
    rng: np.random.Generator,
    priorities: np.ndarray,
) -> np.ndarray:
    """Task lengths, with high-priority tasks skewed to services."""
    n = priorities.size
    lengths = config.task_length.sample(rng, n)
    bands = priority_band_array(priorities)
    high = bands == 2
    n_high = int(high.sum())
    if n_high:
        service = Mixture(
            [
                LogNormal(median=420.0, sigma=1.3, high=3 * HOUR),
                BoundedPareto(alpha=0.35, low=3 * HOUR, high=29 * DAY),
            ],
            [
                1 - config.high_priority_service_fraction,
                config.high_priority_service_fraction,
            ],
        )
        lengths[high] = service.sample(rng, n_high)
    return lengths


def generate_task_requests(
    horizon: float,
    seed: int | np.random.Generator = 0,
    config: GoogleConfig | None = None,
    tasks_per_hour: float | None = None,
) -> TaskRequests:
    """Task-request stream for the simulator.

    ``tasks_per_hour`` overrides the job-level fan-out with a direct
    task arrival rate — the natural way to scale a simulated cluster
    down from 12,500 machines (use roughly ``7 * num_machines`` to get
    the ~40 running tasks per machine of Fig. 8).
    """
    config = config or GoogleConfig()
    rng = _rng(seed)
    if tasks_per_hour is not None:
        base_rate, cv = _busy_compensation(config, tasks_per_hour)
        process = DoublyStochasticArrivals(
            mean_per_hour=base_rate,
            target_cv=cv,
            diurnal_amplitude=0.05,
            busy_window=config.busy_window,
            busy_factor=config.busy_factor,
        )
        submit = process.generate(rng, horizon)
        job_id = np.arange(submit.size, dtype=np.int64)
        task_index = np.zeros(submit.size, dtype=np.int32)
    else:
        job_submit = _arrival_process(config).generate(rng, horizon)
        tasks = _sample_tasks_per_job(config, rng, job_submit.size)
        job_id = np.repeat(np.arange(job_submit.size, dtype=np.int64), tasks)
        task_index = _ranges(tasks)
        # Tasks of one job arrive in a short burst after the job.
        submit = np.repeat(job_submit, tasks) + rng.exponential(
            2.0, int(tasks.sum())
        )
        keep = submit < horizon
        submit, job_id, task_index = submit[keep], job_id[keep], task_index[keep]

    n = submit.size
    if n == 0:
        raise ValueError("horizon too short: no tasks generated")
    # All tasks of a job share its priority; drawing per job then
    # repeating preserves that invariant.
    unique_jobs, first_idx = np.unique(job_id, return_index=True)
    job_priority = _sample_priorities(config, rng, unique_jobs.size)
    priority = job_priority[np.searchsorted(unique_jobs, job_id)]

    duration = _sample_task_lengths(config, rng, priority)
    fate_names = list(config.fate_probs)
    fate_p = np.asarray([config.fate_probs[k] for k in fate_names])
    fate_draw = rng.choice(len(fate_names), size=n, p=fate_p)
    fate = np.asarray([FATE_CODES[k] for k in fate_names])[fate_draw]

    lo_c, hi_c = config.cpu_utilization_range
    lo_m, hi_m = config.mem_utilization_range
    lo_p, hi_p = config.page_cache_range
    requests = TaskRequests(
        submit_time=submit,
        job_id=job_id,
        task_index=task_index.astype(np.int32),
        priority=priority.astype(np.int16),
        cpu_request=config.cpu_request.sample(rng, n),
        mem_request=config.mem_request.sample(rng, n),
        duration=duration,
        cpu_utilization=rng.uniform(lo_c, hi_c, n),
        mem_utilization=rng.uniform(lo_m, hi_m, n),
        page_cache=rng.uniform(lo_p, hi_p, n),
        fate=fate.astype(np.int8),
    )
    return requests.sorted_by_time()


def _ranges(counts: np.ndarray) -> np.ndarray:
    """[3, 2] -> [0, 1, 2, 0, 1]: per-job task indices, vectorized."""
    total = int(counts.sum())
    out = np.arange(total, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return out - starts


#: Internal sampling-block size of the chunked generator. Fixed — and
#: deliberately independent of the caller's ``chunk_tasks`` — so the
#: generated stream is invariant to how it is consumed: every block
#: draws from its own :class:`numpy.random.SeedSequence`-spawned
#: stream (so blocks can be sampled on separate threads), and chunk
#: boundaries only re-slice finished blocks. A consumer that asks for
#: ``chunk_tasks=_COLUMN_BLOCK`` gets each block as it was sampled.
_COLUMN_BLOCK = 262_144

#: Column order of a task-request table (the :class:`TaskRequests`
#: fields); the default projection of :func:`iter_task_requests`.
TASK_REQUEST_COLUMNS: tuple[str, ...] = tuple(TaskRequests.__dataclass_fields__)


def _check_columns(columns: Iterable[str]) -> tuple[str, ...]:
    names = tuple(columns)
    if not names:
        raise ValueError("columns must name at least one task-request column")
    unknown = set(names) - set(TASK_REQUEST_COLUMNS)
    if unknown:
        raise ValueError(f"unknown task-request columns: {sorted(unknown)}")
    if len(set(names)) != len(names):
        raise ValueError(f"task-request columns repeat a name: {list(names)}")
    return names


def _draw_request_columns(
    config: GoogleConfig, rng: np.random.Generator, n: int
) -> Iterator[tuple[str, np.ndarray]]:
    """Draw one block's random columns lazily, one per ``next()``.

    The order mirrors :func:`generate_task_requests` (priority,
    duration, fate, requests, utilizations, page cache); duration is
    conditioned on priority, so priority always comes first.
    """
    priority = _sample_priorities(config, rng, n)
    yield "priority", priority
    yield "duration", _sample_task_lengths(config, rng, priority)
    fate_names = list(config.fate_probs)
    fate_p = np.asarray([config.fate_probs[k] for k in fate_names])
    fate_draw = rng.choice(len(fate_names), size=n, p=fate_p)
    fate = np.asarray([FATE_CODES[k] for k in fate_names])[fate_draw]
    yield "fate", fate.astype(np.int8)
    yield "cpu_request", config.cpu_request.sample(rng, n)
    yield "mem_request", config.mem_request.sample(rng, n)
    lo_c, hi_c = config.cpu_utilization_range
    lo_m, hi_m = config.mem_utilization_range
    lo_p, hi_p = config.page_cache_range
    yield "cpu_utilization", rng.uniform(lo_c, hi_c, n)
    yield "mem_utilization", rng.uniform(lo_m, hi_m, n)
    yield "page_cache", rng.uniform(lo_p, hi_p, n)


def _sample_request_block(
    config: GoogleConfig,
    rng: np.random.Generator,
    submit: np.ndarray,
    first_job_id: int,
    names: tuple[str, ...],
) -> dict[str, np.ndarray]:
    """The requested columns for one block of submissions, in order.

    Random columns are drawn in :func:`_draw_request_columns`' fixed
    order and drawing stops after the last requested one, so every
    kept column equals its counterpart in the full block bit for bit.
    ``submit_time``, ``job_id`` and ``task_index`` cost no draws.
    """
    n = submit.size
    columns = {
        "submit_time": submit,
        "job_id": np.arange(first_job_id, first_job_id + n, dtype=np.int64),
        "task_index": np.zeros(n, dtype=np.int32),
    }
    wanted = set(names)
    draws = _draw_request_columns(config, rng, n)
    while not wanted <= columns.keys():
        name, values = next(draws)
        columns[name] = values
    return {name: columns[name] for name in names}


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _submit_blocks(arrival_blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """Re-slice streamed arrivals into consecutive ``_COLUMN_BLOCK`` pieces.

    Every piece but the last holds exactly ``_COLUMN_BLOCK`` rows, the
    blocks the materialized path produced.
    """
    buffered: list[np.ndarray] = []
    buffered_rows = 0
    exhausted = False
    while True:
        while buffered_rows < _COLUMN_BLOCK and not exhausted:
            piece = next(arrival_blocks, None)
            if piece is None:
                exhausted = True
            elif piece.size:
                buffered.append(piece)
                buffered_rows += piece.size
        if buffered_rows == 0:
            return
        merged = _join(buffered)
        rest = merged[_COLUMN_BLOCK:]
        buffered = [rest] if rest.size else []
        buffered_rows = rest.size
        yield merged[:_COLUMN_BLOCK]


#: Most column blocks :func:`iter_task_requests` samples at once, one
#: per thread. Each block in flight holds its columns and its samplers'
#: temporaries (about 15 MiB for the two-column spill), so the cap keeps
#: peak memory from growing with the host's CPU count. Two is the only
#: count whose wall time and peak RSS have both been measured (on a
#: 2-CPU host): four threads measured 153–157 MiB against the serial
#: generator's 144–151 MiB, with no timing to show they buy anything.
_MAX_SAMPLING_THREADS = 2


def _sampling_threads() -> int:
    """The CPUs this process may use, capped at
    :data:`_MAX_SAMPLING_THREADS`."""
    # Imported where it is used, like the pool, so that importing the
    # registry does not load it.
    from ..core.cpus import usable_cpus

    return min(usable_cpus(), _MAX_SAMPLING_THREADS)


def _sample_blocks_in_order(
    config: GoogleConfig,
    submit_blocks: Iterator[np.ndarray],
    column_seq: np.random.SeedSequence,
    names: tuple[str, ...],
) -> Iterator[dict[str, np.ndarray]]:
    """Sample each submission block's columns on a thread pool, in order.

    The calling thread pulls the blocks and spawns each one's
    :class:`~numpy.random.SeedSequence` in block order, so the bytes do
    not depend on the thread count or on timing; at most one block per
    thread is in flight. NumPy releases the GIL inside the
    ``Generator`` draws and ufuncs that make up a block. Closing the
    generator, or an error in a block, cancels the queued blocks and
    joins the threads before it returns.
    """
    from concurrent.futures import Future, ThreadPoolExecutor

    threads = _sampling_threads()
    in_flight: deque[Future[dict[str, np.ndarray]]] = deque()
    pool = ThreadPoolExecutor(threads, thread_name_prefix="repro-sample")
    try:
        first_job_id = 0
        for submit in submit_blocks:
            # Spawning is incremental (spawn(1) repeated == spawn(n) up
            # front), so block seeds need no total block count.
            rng = np.random.default_rng(column_seq.spawn(1)[0])
            in_flight.append(
                pool.submit(
                    _sample_request_block, config, rng, submit, first_job_id, names
                )
            )
            first_job_id += submit.size
            if len(in_flight) == threads:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def iter_task_requests(
    horizon: float,
    seed: int = 0,
    config: GoogleConfig | None = None,
    *,
    tasks_per_hour: float,
    chunk_tasks: int = 1_000_000,
    columns: Iterable[str] = TASK_REQUEST_COLUMNS,
) -> Iterator[Table]:
    """Stream task requests as bounded-size columnar chunks.

    The scalable path to paper scale (25M tasks) and beyond: arrival
    times stream in hour blocks of about one column block
    (``iter_generate``; only the per-hour rate and count vectors are
    full-horizon), and the other columns are sampled per fixed-size
    internal block (262,144 rows) from that block's own spawned RNG
    stream. Each chunk is a :class:`~repro.core.table.Table` holding
    exactly ``columns``, in the order given: a projection draws,
    concatenates and holds only those columns.

    The blocks are sampled on a thread pool, one thread per usable CPU
    (the process's affinity mask) up to two, with at most one block
    per thread in flight. The calling thread keeps everything
    sequential — the arrival stream, the slicing into blocks and each
    block's seed — and consumes the blocks in order. Peak memory is
    therefore a few column blocks per thread plus one chunk of the
    requested columns. Closing the generator, or an error in a block,
    cancels the queued blocks and joins the threads before it returns;
    the error surfaces at the ``next()`` that reaches its block.

    Guarantees:

    * Deterministic in ``seed``, whatever the thread count or timing.
    * Chunk-size invariant: concatenating the yielded chunks gives the
      same arrays bit for bit whatever ``chunk_tasks`` is (the golden
      test checks this against :func:`generate_task_requests_chunked`).
    * Projection invariant: every kept column equals the same column of
      the full stream bit for bit, whatever else is requested.
    * Chunks are globally time-sorted (arrivals are sorted and blocks
      are consecutive slices), so they can feed streaming consumers
      directly.

    ``columns`` is checked at the first ``next()``, before any row is
    generated: an empty selection, an unknown name or a repeated name
    raises :class:`ValueError`.

    This is a distinct stream from :func:`generate_task_requests` (the
    legacy single-pass path draws every column from one RNG and is kept
    byte-stable); like it, ``tasks_per_hour`` drives one single-task
    job per request. Job-level fan-out is not supported here because a
    job's task burst may straddle a chunk boundary.
    """
    config = config or GoogleConfig()
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "iter_task_requests needs an integer seed: per-block RNG "
            "streams are spawned from it"
        )
    if chunk_tasks <= 0:
        raise ValueError("chunk_tasks must be positive")
    names = _check_columns(columns)
    base_rate, cv = _busy_compensation(config, tasks_per_hour)
    process = DoublyStochasticArrivals(
        mean_per_hour=base_rate,
        target_cv=cv,
        diurnal_amplitude=0.05,
        busy_window=config.busy_window,
        busy_factor=config.busy_factor,
    )
    arrival_seq, column_seq = np.random.SeedSequence(seed).spawn(2)
    arrival_blocks = process.iter_generate(
        np.random.default_rng(arrival_seq), horizon, block_tasks=_COLUMN_BLOCK
    )
    blocks = _sample_blocks_in_order(
        config, _submit_blocks(arrival_blocks), column_seq, names
    )

    pending: dict[str, list[np.ndarray]] = {name: [] for name in names}
    pending_rows = 0
    generated = 0
    with closing(blocks):
        for block in blocks:
            rows = block[names[0]].size
            generated += rows
            for name, values in block.items():
                pending[name].append(values)
            pending_rows += rows
            while pending_rows >= chunk_tasks:
                merged = {name: _join(parts) for name, parts in pending.items()}
                yield Table({name: arr[:chunk_tasks] for name, arr in merged.items()})
                pending_rows -= chunk_tasks
                pending = {
                    name: [arr[chunk_tasks:]] if pending_rows else []
                    for name, arr in merged.items()
                }
    if generated == 0:
        raise ValueError("horizon too short: no tasks generated")
    if pending_rows:
        yield Table({name: _join(parts) for name, parts in pending.items()})


def generate_task_requests_chunked(
    horizon: float,
    seed: int = 0,
    config: GoogleConfig | None = None,
    *,
    tasks_per_hour: float,
) -> TaskRequests:
    """Materialize the chunked stream in one piece (already time-sorted).

    The reference the chunk-size-invariance golden test compares
    against: for every ``chunk_tasks``, concatenating
    :func:`iter_task_requests`'s chunks equals this bit for bit.
    """
    chunks = list(
        iter_task_requests(horizon, seed, config, tasks_per_hour=tasks_per_hour)
    )
    return TaskRequests(**concat_tables(chunks).columns())


def generate_google_trace(
    horizon: float,
    num_machines: int,
    seed: int = 0,
    config: GoogleConfig | None = None,
    tasks_per_hour: float | None = None,
    usage_sample_period: float = 300.0,
    fleet: FleetConfig | None = None,
) -> GoogleTrace:
    """Full statistical trace: jobs + task events + usage + machines.

    Placement is random (no contention model) — use
    :class:`repro.sim.cluster.ClusterSimulator` when machine-level
    contention matters. Tasks still running at the horizon simply lack
    a terminal event, as in the real fixed-window trace.
    """
    config = config or GoogleConfig()
    rng = np.random.default_rng(seed)
    requests = generate_task_requests(
        horizon, rng, config, tasks_per_hour=tasks_per_hour
    )
    machines = generate_machines(num_machines, rng, fleet or FleetConfig())

    n = len(requests)
    machine_ids = rng.integers(0, num_machines, n).astype(np.int64)
    delay = rng.exponential(config.schedule_delay_mean, n)
    start = requests.submit_time + delay
    end = start + requests.duration

    # Event log: SUBMIT, SCHEDULE (if before horizon), terminal (if
    # before horizon).
    sched_ok = start < horizon
    term_ok = end < horizon
    times = np.concatenate(
        [requests.submit_time, start[sched_ok], end[term_ok]]
    )
    etypes = np.concatenate(
        [
            np.full(n, int(TaskEvent.SUBMIT), dtype=np.int8),
            np.full(int(sched_ok.sum()), int(TaskEvent.SCHEDULE), dtype=np.int8),
            requests.fate[term_ok],
        ]
    )
    machine_col = np.concatenate(
        [
            np.full(n, -1, dtype=np.int64),
            machine_ids[sched_ok],
            machine_ids[term_ok],
        ]
    )

    def _tile(arr: np.ndarray) -> np.ndarray:
        return np.concatenate([arr, arr[sched_ok], arr[term_ok]])

    task_events = Table(
        {
            "time": times,
            "job_id": _tile(requests.job_id),
            "task_index": _tile(requests.task_index),
            "machine_id": machine_col,
            "event_type": etypes,
            "priority": _tile(requests.priority),
            "cpu_request": _tile(requests.cpu_request),
            "mem_request": _tile(requests.mem_request),
        },
        schema=TASK_EVENT_SCHEMA,
    ).sort_by("time")

    task_usage = _usage_samples(
        requests, machine_ids, start, end, horizon, usage_sample_period
    )
    jobs = _jobs_from_requests(requests, end, horizon, rng)
    return GoogleTrace(
        jobs=jobs,
        task_events=task_events,
        task_usage=task_usage,
        machines=machines,
        horizon=horizon,
    )


def _usage_samples(
    requests: TaskRequests,
    machine_ids: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    horizon: float,
    period: float,
) -> Table:
    """Per-task usage rows, one per sampling window overlapped."""
    clipped_end = np.minimum(end, horizon)
    first = np.floor(start / period).astype(np.int64)
    last = np.ceil(clipped_end / period).astype(np.int64)
    n_windows = np.maximum(last - first, 0)
    total = int(n_windows.sum())
    task_of = np.repeat(np.arange(len(requests)), n_windows)
    window = _ranges(n_windows) + first[task_of]
    win_start = window * period
    win_end = win_start + period
    row_start = np.maximum(win_start, start[task_of])
    row_end = np.minimum(win_end, clipped_end[task_of])
    ok = row_end > row_start
    task_of, row_start, row_end = task_of[ok], row_start[ok], row_end[ok]
    return Table(
        {
            "start_time": row_start,
            "end_time": row_end,
            "job_id": requests.job_id[task_of],
            "task_index": requests.task_index[task_of],
            "machine_id": machine_ids[task_of],
            "priority": requests.priority[task_of],
            "cpu_usage": np.clip(
                requests.cpu_request[task_of]
                * requests.cpu_utilization[task_of],
                0,
                1,
            ),
            "mem_usage": np.clip(
                requests.mem_request[task_of]
                * requests.mem_utilization[task_of],
                0,
                1,
            ),
            "mem_assigned": np.clip(requests.mem_request[task_of], 0, 1),
            "page_cache": np.clip(requests.page_cache[task_of], 0, 1),
        },
        schema=TASK_USAGE_SCHEMA,
    )


def _jobs_from_requests(
    requests: TaskRequests,
    end: np.ndarray,
    horizon: float,
    rng: np.random.Generator,
) -> Table:
    """Aggregate the request stream into per-job summary rows."""
    job_ids, first_idx = np.unique(requests.job_id, return_index=True)
    order = np.argsort(requests.job_id, kind="stable")
    sorted_jobs = requests.job_id[order]
    bounds = np.flatnonzero(sorted_jobs[1:] != sorted_jobs[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends_idx = np.concatenate((bounds, [len(sorted_jobs)]))

    submit = np.minimum.reduceat(requests.submit_time[order], starts)
    job_end = np.minimum(np.maximum.reduceat(end[order], starts), horizon)
    num_tasks = (ends_idx - starts).astype(np.int32)
    cpu = np.add.reduceat(
        (requests.cpu_request * requests.cpu_utilization)[order], starts
    ) / num_tasks
    mem = np.add.reduceat(
        (requests.mem_request * requests.mem_utilization)[order], starts
    ) / num_tasks
    return Table(
        {
            "job_id": job_ids,
            "user_id": rng.integers(0, 500, job_ids.size),
            "submit_time": submit,
            "end_time": np.maximum(job_end, submit),
            "priority": requests.priority[first_idx],
            "num_tasks": num_tasks,
            # Eq. (4)-style per-job CPU over all processors: sum of the
            # tasks' concurrent normalized usage, in units of one core.
            "cpu_usage": np.clip(cpu * num_tasks, 0, None),
            "mem_usage": np.clip(mem, 0, 1),
        },
        schema=JOB_TABLE_SCHEMA,
    )
