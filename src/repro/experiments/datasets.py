"""Standard synthetic datasets shared across experiments.

Three scales exist: ``small`` keeps unit/integration tests fast,
``medium`` sizes benchmark runs so vectorized-vs-scalar speedups are
measurable, and ``paper`` approximates the paper's month-long
measurement (scaled from 12,500 to 40 machines; per-machine dynamics
are what Figs. 7-13 measure, so the fleet size only affects
statistical smoothness).

Builders are memoized per (scale, seed) because the simulation dataset
takes tens of seconds at paper scale and every host-load experiment
consumes the same run. On top of the per-process memo sits an optional
content-addressed disk cache (:mod:`repro.core.diskcache`): builders
are pure functions of ``(scale, seed, config)`` — guaranteed by the
REP101/REP501 lint rules — so entries keyed by those inputs plus
:data:`DATASET_CACHE_VERSION` are always safe to reuse across
processes and invocations. Configure it with :func:`configure_cache`
(the CLI does this from ``--cache-dir``) or the ``REPRO_CACHE_DIR``
environment variable; it is off by default for library use.
"""

from __future__ import annotations

import atexit
import fcntl
import os
import shutil
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .. import __version__
from ..core.diskcache import MISS, DiskCache, cache_key, fingerprint
from ..core.mapreduce import map_reduce, map_shards, merge_accumulators
from ..core.shard import ShardIntegrityError, ShardWriter, ShardedTable
from ..core.supervise import Policy
from ..core.table import Table
from ..hostload.series import MachineLoadSeries, all_machine_series
from ..sim.cluster import ClusterSimulator, SimConfig, SimResult
from ..synth.google_model import (
    GoogleConfig,
    TaskRequests,
    generate_google_jobs,
    generate_task_requests,
)
from ..synth.grid_model import generate_all_grids
from ..synth.machines import generate_machines
from ..synth.presets import DAY, GRID_PRESETS
from ..traces.convert import grid_jobs_to_job_table

__all__ = [
    "DATASET_CACHE_VERSION",
    "SCALES",
    "BackendSpec",
    "ScaleSpec",
    "WorkloadDataset",
    "SimulationDataset",
    "active_backend",
    "configure_backend",
    "configure_cache",
    "dataset_cache",
    "dataset_stats",
    "default_cache_dir",
    "heal_sharded_table",
    "open_sharded",
    "reset_dataset_stats",
    "sharded_google_jobs",
    "sharded_machine_usage",
    "sharded_map_reduce",
    "sharded_map_shards",
    "sharded_task_durations",
    "workload_dataset",
    "simulation_dataset",
    "sim_google_config",
]

#: Bump when a builder, model default, or cached container changes in a
#: way that alters dataset contents; old disk-cache entries then miss.
DATASET_CACHE_VERSION = 1


@dataclass(frozen=True)
class ScaleSpec:
    """Sizing of one dataset scale."""

    name: str
    workload_horizon: float
    sim_horizon: float
    num_machines: int
    tasks_per_hour_per_machine: float
    busy_window: tuple[float, float] | None
    busy_factor: float
    task_sample_size: int


SCALES: dict[str, ScaleSpec] = {
    "small": ScaleSpec(
        name="small",
        workload_horizon=4 * DAY,
        sim_horizon=2 * DAY,
        num_machines=16,
        tasks_per_hour_per_machine=14.0,
        busy_window=None,
        busy_factor=1.0,
        task_sample_size=40_000,
    ),
    "medium": ScaleSpec(
        name="medium",
        workload_horizon=10 * DAY,
        sim_horizon=6 * DAY,
        num_machines=32,
        tasks_per_hour_per_machine=12.0,
        busy_window=None,
        busy_factor=1.0,
        task_sample_size=100_000,
    ),
    "paper": ScaleSpec(
        name="paper",
        workload_horizon=30 * DAY,
        sim_horizon=30 * DAY,
        num_machines=40,
        tasks_per_hour_per_machine=9.0,
        busy_window=(21 * DAY, 25 * DAY),
        busy_factor=1.4,
        task_sample_size=250_000,
    ),
}


def _scale(name: str) -> ScaleSpec:
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; available: {sorted(SCALES)}"
        ) from None


def sim_google_config(spec: ScaleSpec) -> GoogleConfig:
    """Google model configured for simulation runs at this scale.

    The simulated fleet runs CPUs at a lower utilization fraction so the
    cluster-wide relative CPU load lands near the paper's ~35% while
    memory stays near ~60-70%.
    """
    return GoogleConfig(
        busy_window=spec.busy_window,
        busy_factor=spec.busy_factor,
        cpu_utilization_range=(0.25, 0.7),
    )


@dataclass(frozen=True)
class WorkloadDataset:
    """Per-job tables for every system plus Google task-level samples."""

    horizon: float
    google_jobs: Table
    grid_jobs_native: dict[str, Table]  # GWA/SWF schemas
    grid_jobs: dict[str, Table]  # converted to the common schema
    google_tasks: TaskRequests  # task-level sample (lengths, priorities)


@dataclass(frozen=True)
class SimulationDataset:
    """One simulated cluster month plus its per-machine series."""

    result: SimResult
    series: dict[int, MachineLoadSeries]
    config: GoogleConfig


# -- disk cache wiring --------------------------------------------------------

#: (disk cache instance or None, whether configure_cache was called).
_CACHE: DiskCache | None = None
_CACHE_CONFIGURED = False

#: Build/disk-traffic counters, readable via :func:`dataset_stats`.
#: The out-of-core recovery keys mirror :data:`repro.core.timing
#: .RECOVERY_COUNTERS` so the runner's before/after stats delta lands
#: them on the ``recovery:`` footer and in ``--json``.
_STATS = {
    "workload_builds": 0,
    "simulation_builds": 0,
    "disk_hits": 0,
    "disk_misses": 0,
    "shard_spills": 0,
    "shards_quarantined": 0,
    "shards_rederived": 0,
    "spills_resumed": 0,
    "spill_shards_reused": 0,
    "mapreduce_retries": 0,
    "mapreduce_respawns": 0,
    "mapreduce_crashes": 0,
    "mapreduce_block_timeouts": 0,
    "mapreduce_stragglers": 0,
    "mapreduce_inline": 0,
}


class _StatsCounter:
    """Timings-compatible counter sink writing into :data:`_STATS`."""

    __slots__ = ()

    def count(self, name: str, n: int = 1) -> None:
        _STATS[name] = _STATS.get(name, 0) + n


def default_cache_dir() -> Path:
    """Default on-disk cache location (XDG-style, overridable by env)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "datasets"


def configure_cache(
    cache_dir: str | Path | None,
    *,
    max_bytes: int | None = 4 * 1024**3,
    max_entries: int | None = 64,
) -> DiskCache | None:
    """Point the dataset builders at an on-disk cache (None disables).

    Also clears the in-process memo so the new cache takes effect for
    subsequent calls.
    """
    global _CACHE, _CACHE_CONFIGURED
    _CACHE_CONFIGURED = True
    _CACHE = (
        None
        if cache_dir is None
        else DiskCache(cache_dir, max_bytes=max_bytes, max_entries=max_entries)
    )
    workload_dataset.cache_clear()
    simulation_dataset.cache_clear()
    sharded_google_jobs.cache_clear()
    sharded_task_durations.cache_clear()
    sharded_machine_usage.cache_clear()
    return _CACHE


def dataset_cache() -> DiskCache | None:
    """The active disk cache, honouring ``REPRO_CACHE_DIR`` by default."""
    global _CACHE, _CACHE_CONFIGURED
    if not _CACHE_CONFIGURED:
        _CACHE_CONFIGURED = True
        env = os.environ.get("REPRO_CACHE_DIR")
        _CACHE = DiskCache(env) if env else None
    return _CACHE


def dataset_stats() -> dict[str, int]:
    """Build and disk-cache traffic counters for this process."""
    stats = dict(_STATS)
    cache = _CACHE
    if cache is not None:
        for name, value in cache.stats.as_dict().items():
            stats[f"cache_{name}"] = value
    return stats


def reset_dataset_stats() -> None:
    """Zero the counters (tests and fresh CLI runs)."""
    for name in _STATS:
        _STATS[name] = 0
    cache = _CACHE
    if cache is not None:
        cache.stats.__init__()


def _cached_build(kind: str, key_parts: dict[str, object], build):
    """Disk-cache lookup around a pure dataset builder."""
    cache = dataset_cache()
    key = None
    if cache is not None:
        key = cache_key(
            kind=kind,
            version=DATASET_CACHE_VERSION,
            repro=__version__,
            **key_parts,
        )
        obj = cache.get(key)
        if obj is not MISS:
            _STATS["disk_hits"] += 1
            return obj
        _STATS["disk_misses"] += 1
    obj = build()
    _STATS[f"{kind}_builds"] += 1
    if cache is not None and key is not None:
        cache.put(key, obj)
    return obj


@lru_cache(maxsize=4)
def workload_dataset(scale: str = "paper", seed: int = 0) -> WorkloadDataset:
    """Job tables for Google + all eight Grid/HPC systems."""
    spec = _scale(scale)
    config = GoogleConfig(
        busy_window=spec.busy_window, busy_factor=spec.busy_factor
    )
    return _cached_build(
        "workload",
        {
            "scale": fingerprint(spec),
            "seed": seed,
            "config": fingerprint(config),
            "grids": fingerprint(GRID_PRESETS),
        },
        lambda: _build_workload(spec, seed, config),
    )


def _build_workload(
    spec: ScaleSpec, seed: int, config: GoogleConfig
) -> WorkloadDataset:
    horizon = spec.workload_horizon
    # Tie the busy window to the scale so the fairness calibration's
    # variance budget matches what the horizon actually contains.
    google_jobs = generate_google_jobs(horizon, seed=seed, config=config)
    native = generate_all_grids(horizon, seed=seed + 1)
    converted = {
        name: grid_jobs_to_job_table(table) for name, table in native.items()
    }
    # Task-level sample: a short dense stream gives i.i.d. draws from
    # the calibrated per-priority task-length model.
    rate = spec.task_sample_size / (2 * DAY / 3600.0)
    tasks = generate_task_requests(
        2 * DAY,
        seed=seed + 2,
        config=GoogleConfig(busy_window=None),
        tasks_per_hour=rate,
    )
    return WorkloadDataset(
        horizon=horizon,
        google_jobs=google_jobs,
        grid_jobs_native=native,
        grid_jobs=converted,
        google_tasks=tasks,
    )


@lru_cache(maxsize=4)
def simulation_dataset(scale: str = "paper", seed: int = 0) -> SimulationDataset:
    """Simulated cluster run at the requested scale (memoized)."""
    spec = _scale(scale)
    config = sim_google_config(spec)
    return _cached_build(
        "simulation",
        {
            "scale": fingerprint(spec),
            "seed": seed,
            "config": fingerprint(config),
            "sim": fingerprint(SimConfig()),
        },
        lambda: _build_simulation(spec, seed, config),
    )


def _build_simulation(
    spec: ScaleSpec, seed: int, config: GoogleConfig
) -> SimulationDataset:
    rng = np.random.default_rng(seed + 10)
    machines = generate_machines(spec.num_machines, rng)
    requests = generate_task_requests(
        spec.sim_horizon,
        seed=seed + 11,
        config=config,
        tasks_per_hour=spec.tasks_per_hour_per_machine * spec.num_machines,
    )
    sim = ClusterSimulator(machines, SimConfig(), seed=seed + 12)
    result = sim.run(requests, spec.sim_horizon)
    series = all_machine_series(result.machine_usage, result.machines)
    return SimulationDataset(result=result, series=series, config=config)


# -- out-of-core backend ------------------------------------------------------


@dataclass(frozen=True)
class BackendSpec:
    """How experiments materialize their large tables.

    ``memory`` (the default) keeps every dataset as in-process arrays;
    ``sharded`` spills the large Google-side tables to
    :class:`repro.core.shard.ShardedTable` directories and streams the
    characterization kernels over them — optionally fanned out across a
    spawn-based worker pool (``jobs``). Results are byte-identical to
    the in-memory backend (the experiments use only exactly-mergeable
    accumulators); only peak memory and wall-clock change.
    """

    name: str = "memory"
    shard_rows: int = 1_000_000
    jobs: int = 1
    #: Per-block wall-clock budget in the supervised map-reduce pool
    #: (None disables) and extra attempts per transiently failed block.
    block_timeout: float | None = None
    block_retries: int = 2
    #: Shard digest verification: "none", "lazy" (first read), "full".
    verify: str = "lazy"

    def __post_init__(self) -> None:
        if self.name not in ("memory", "sharded"):
            raise ValueError(f"unknown backend {self.name!r}")
        if self.shard_rows <= 0:
            raise ValueError("shard_rows must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.block_timeout is not None and self.block_timeout <= 0:
            raise ValueError("block_timeout must be positive")
        if self.block_retries < 0:
            raise ValueError("block_retries must be >= 0")
        if self.verify not in ("none", "lazy", "full"):
            raise ValueError(f"unknown verify mode {self.verify!r}")


#: (active backend or None, whether configure_backend was called).
_BACKEND: BackendSpec | None = None
_BACKEND_CONFIGURED = False


def configure_backend(spec: BackendSpec | None) -> BackendSpec:
    """Select the experiment backend (None restores the default).

    The choice is also exported via ``REPRO_BACKEND``/
    ``REPRO_SHARD_ROWS``/``REPRO_BACKEND_JOBS`` so supervisor workers
    started with the spawn method resolve the same backend; fork-based
    workers inherit the module state directly.
    """
    global _BACKEND, _BACKEND_CONFIGURED
    _BACKEND_CONFIGURED = True
    _BACKEND = spec if spec is not None else BackendSpec()
    os.environ["REPRO_BACKEND"] = _BACKEND.name
    os.environ["REPRO_SHARD_ROWS"] = str(_BACKEND.shard_rows)
    os.environ["REPRO_BACKEND_JOBS"] = str(_BACKEND.jobs)
    os.environ["REPRO_BLOCK_TIMEOUT"] = (
        "" if _BACKEND.block_timeout is None else str(_BACKEND.block_timeout)
    )
    os.environ["REPRO_BLOCK_RETRIES"] = str(_BACKEND.block_retries)
    os.environ["REPRO_VERIFY_SHARDS"] = _BACKEND.verify
    return _BACKEND


def active_backend() -> BackendSpec:
    """The configured backend, honouring ``REPRO_BACKEND`` by default."""
    global _BACKEND, _BACKEND_CONFIGURED
    if not _BACKEND_CONFIGURED:
        _BACKEND_CONFIGURED = True
        timeout = os.environ.get("REPRO_BLOCK_TIMEOUT", "")
        _BACKEND = BackendSpec(
            name=os.environ.get("REPRO_BACKEND", "memory"),
            shard_rows=int(os.environ.get("REPRO_SHARD_ROWS", "1000000")),
            jobs=int(os.environ.get("REPRO_BACKEND_JOBS", "1")),
            block_timeout=float(timeout) if timeout else None,
            block_retries=int(os.environ.get("REPRO_BLOCK_RETRIES", "2")),
            verify=os.environ.get("REPRO_VERIFY_SHARDS", "lazy"),
        )
    if _BACKEND is None:
        _BACKEND = BackendSpec()
    return _BACKEND


#: Process-local spill directories (used when no disk cache is active),
#: removed at interpreter exit.
_SPILL_TMPDIRS: list[str] = []


def _cleanup_spills() -> None:
    for path in _SPILL_TMPDIRS:
        shutil.rmtree(path, ignore_errors=True)


atexit.register(_cleanup_spills)


@dataclass(frozen=True)
class _ShardSource:
    """How to re-derive one sharded table if its bytes go bad."""

    kind: str
    key: str | None  # disk-cache key, None for tmp spills
    rebuild: object  # () -> fresh root path string


#: Root path string -> recipe to quarantine-and-rebuild that table.
#: Every path handed out by :func:`_sharded_build` is registered here,
#: which is what lets :func:`heal_sharded_table` treat shard corruption
#: like any other cache corruption: park the bytes, rebuild from the
#: (pure, memoized) upstream builder, hand back a good root.
_SHARD_SOURCES: dict[str, _ShardSource] = {}


def _spill_hook(kind: str):
    """Torn-spill fault hook for this table kind, if a plan schedules one."""
    from . import faults  # lazy: faults imports this module at top level

    plan = faults.plan_from_env()
    if plan is None:
        return None
    return faults.spill_fault_hook(plan, kind)


def _spill(
    table: Table,
    dest: Path,
    shard_rows: int,
    group_by: str | None,
    kind: str,
    *,
    resume: bool,
) -> None:
    """Write one sharded table, resuming a prior interrupted spill.

    With ``resume`` the writer adopts the journaled prefix of a crashed
    spill at the same destination (dropping any torn trailing shard) and
    skips the rows it already holds, so a killed-and-retried spill
    produces bytes identical to an uninterrupted one.
    """
    schema = {name: table[name].dtype for name in table.column_names}
    writer = ShardWriter(
        dest,
        schema,
        shard_rows,
        group_by=group_by,
        resume=resume,
        on_event=_spill_hook(kind),
    )
    try:
        writer.append(table)
    except BaseException:
        writer.abort()
        raise
    writer.close()
    _STATS["shard_spills"] += 1
    if writer.resumed_shards:
        _STATS["spills_resumed"] += 1
        _STATS["spill_shards_reused"] += writer.resumed_shards


def _tmp_spill(
    table: Table, shard_rows: int, group_by: str | None, kind: str
) -> str:
    tmp = tempfile.mkdtemp(prefix="repro-spill-")
    _SPILL_TMPDIRS.append(tmp)
    dest = Path(tmp) / "shards"
    # A random tmp dir cannot be found again after a crash, so there is
    # nothing to resume.
    _spill(table, dest, shard_rows, group_by, kind, resume=False)
    return str(dest)


@contextmanager
def _spill_lock(path: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``path`` (created if missing).

    The kernel drops the lock when its holder exits or is SIGKILLed, so
    a spill killed mid-write never strands the next attempt, which then
    resumes the journaled prefix.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def _sharded_build(
    kind: str,
    key_parts: dict[str, object],
    build_table,
    shard_rows: int,
    group_by: str | None = None,
) -> str:
    """Spill a pure table builder to a sharded directory, via the cache.

    Returns the shard-table root as a path string (cheap to pickle into
    kernels and to memoize). With a disk cache active the spill lands
    in a cache entry (:meth:`DiskCache.put_path`) shared across
    processes; otherwise in a process-local temp directory cleaned up
    at exit. Cache-backed spills are **crash-safe**: they stage at a
    deterministic per-key path under ``<cache>/.spill/`` so a process
    killed mid-spill leaves a journaled partial that the next attempt
    resumes instead of restarting, and processes that miss the same key
    at once take turns on a lock beside it. Every returned root is
    registered in :data:`_SHARD_SOURCES` for :func:`heal_sharded_table`.
    """

    def register(path: str) -> str:
        _SHARD_SOURCES[path] = _ShardSource(
            kind=kind,
            key=key if cache is not None else None,
            rebuild=lambda: _sharded_build(
                kind, key_parts, build_table, shard_rows, group_by
            ),
        )
        return path

    cache = dataset_cache()
    key = None
    if cache is None:
        return register(_tmp_spill(build_table(), shard_rows, group_by, kind))
    key = cache_key(
        kind=kind,
        version=DATASET_CACHE_VERSION,
        repro=__version__,
        shard_rows=shard_rows,
        **key_parts,
    )
    path = cache.get_path(key)
    if path is not MISS:
        _STATS["disk_hits"] += 1
        return register(str(path))
    stage = cache.root / ".spill" / key[:16]
    with _spill_lock(stage.with_name(f"{stage.name}.lock")):
        # Workers that miss the same table at once share one staging
        # dir, so only the lock holder spills; a waiter finds the entry
        # the holder published.
        path = cache.get_path(key)
        if path is not MISS:
            _STATS["disk_hits"] += 1
            return register(str(path))
        _STATS["disk_misses"] += 1
        table = build_table()
        stage.mkdir(parents=True, exist_ok=True)
        dest = stage / "shards"
        _spill(table, dest, shard_rows, group_by, kind, resume=True)
        cache.put_path(key, dest, move=True)
        shutil.rmtree(stage, ignore_errors=True)
    path = cache.get_path(key)
    if path is not MISS:
        return register(str(path))
    # The entry was evicted before first use (cache budget smaller than
    # the spill) — fall back to a process-local spill.
    return register(_tmp_spill(table, shard_rows, group_by, kind))


def heal_sharded_table(root: str, message: str) -> str | None:
    """Quarantine a corrupt sharded table and re-derive it from source.

    The recovery path behind every :class:`ShardIntegrityError`: the
    damaged bytes are parked (disk-cache quarantine for cached tables,
    deletion for tmp spills), the sharded-path memos are dropped, and
    the table is rebuilt from its pure upstream builder — byte-identical
    by construction. Returns the fresh root, or ``None`` for a root this
    process never derived (the caller then re-raises).
    """
    source = _SHARD_SOURCES.get(str(root))
    if source is None:
        return None
    _STATS["shards_quarantined"] += 1
    cache = dataset_cache()
    if source.key is not None and cache is not None:
        cache.quarantine_entry(source.key)
    else:
        shutil.rmtree(root, ignore_errors=True)
    _SHARD_SOURCES.pop(str(root), None)
    sharded_google_jobs.cache_clear()
    sharded_task_durations.cache_clear()
    sharded_machine_usage.cache_clear()
    new_root = source.rebuild()
    _STATS["shards_rederived"] += 1
    return new_root


def open_sharded(path: str | Path, *, verify: str | None = None) -> ShardedTable:
    """Open a sharded table, healing it if its bytes fail validation.

    The backend's verify policy applies unless overridden. If open-time
    structural checks or digest verification reject the table, it is
    quarantined and re-derived once; a second failure propagates.
    """
    mode = verify if verify is not None else active_backend().verify
    try:
        return ShardedTable.open(path, verify=mode)
    except ShardIntegrityError as exc:
        healed = heal_sharded_table(str(path), str(exc))
        if healed is None:
            raise
        return ShardedTable.open(healed, verify=mode)


def _shard_injector(path: str):
    """Fault-injection hook for map-reduce workers over this table."""
    from . import faults  # lazy: faults imports this module at top level

    plan = faults.plan_from_env()
    if plan is None:
        return None
    source = _SHARD_SOURCES.get(str(path))
    kind = source.kind if source is not None else "*"
    if not plan.has_shard_faults(kind):
        return None
    return faults.ShardFaultInjector(plan=plan, table=kind)


def _mapreduce_config(backend: BackendSpec) -> Policy:
    return Policy(
        timeout=backend.block_timeout,
        retries=backend.block_retries,
        verify=backend.verify,
    )


def sharded_map_reduce(
    path: str | Path,
    kernel,
    *,
    args: tuple = (),
    jobs: int | None = None,
    merge=merge_accumulators,
):
    """Supervised :func:`repro.core.mapreduce.map_reduce` over a table path.

    The standard way experiments fold kernels over a sharded dataset:
    worker count, per-block timeout/retries and verify mode come from
    the active backend; shard corruption heals through
    :func:`heal_sharded_table`; fault plans inject through the worker
    hook; recovery counters land in :func:`dataset_stats`.
    """
    backend = active_backend()
    jobs = backend.jobs if jobs is None else jobs
    return map_reduce(
        open_sharded(path),
        kernel,
        args=args,
        jobs=jobs,
        merge=merge,
        config=_mapreduce_config(backend),
        inject=_shard_injector(str(path)),
        heal=heal_sharded_table,
        timings=_StatsCounter(),
    )


def sharded_map_shards(
    path: str | Path,
    kernel,
    *,
    args: tuple = (),
    jobs: int | None = None,
) -> list:
    """Supervised :func:`repro.core.mapreduce.map_shards` over a table path."""
    backend = active_backend()
    jobs = backend.jobs if jobs is None else jobs
    return map_shards(
        open_sharded(path),
        kernel,
        args=args,
        jobs=jobs,
        config=_mapreduce_config(backend),
        inject=_shard_injector(str(path)),
        heal=heal_sharded_table,
        timings=_StatsCounter(),
    )


@lru_cache(maxsize=8)
def sharded_google_jobs(
    scale: str = "paper", seed: int = 0, shard_rows: int = 1_000_000
) -> str:
    """Google job table spilled sorted by submit time (path string).

    The submit-time sort makes per-shard interarrival kernels exact:
    every shard holds a contiguous time range, so cross-shard gaps are
    single boundary differences (see fig5's gap state).
    """
    spec = _scale(scale)
    config = GoogleConfig(
        busy_window=spec.busy_window, busy_factor=spec.busy_factor
    )
    return _sharded_build(
        "workload-jobs-shards",
        {
            "scale": fingerprint(spec),
            "seed": seed,
            "config": fingerprint(config),
            "grids": fingerprint(GRID_PRESETS),
            "order": "submit_time",
        },
        lambda: workload_dataset(scale, seed).google_jobs.sort_by(
            "submit_time"
        ),
        shard_rows,
    )


@lru_cache(maxsize=8)
def sharded_task_durations(
    scale: str = "paper", seed: int = 0, shard_rows: int = 1_000_000
) -> str:
    """Google task-duration sample as a single-column sharded table."""
    spec = _scale(scale)
    config = GoogleConfig(
        busy_window=spec.busy_window, busy_factor=spec.busy_factor
    )
    return _sharded_build(
        "workload-tasks-shards",
        {
            "scale": fingerprint(spec),
            "seed": seed,
            "config": fingerprint(config),
            "columns": ("duration",),
        },
        lambda: Table(
            {"duration": workload_dataset(scale, seed).google_tasks.duration}
        ),
        shard_rows,
    )


@lru_cache(maxsize=8)
def sharded_machine_usage(
    scale: str = "paper", seed: int = 0, shard_rows: int = 1_000_000
) -> str:
    """Simulated machine-usage table spilled machine-major (path string).

    Rows are sorted by ``(machine_id, time)`` — the exact element order
    :func:`repro.hostload.series.grouped_machine_series` gathers — and
    shard cuts are aligned to machine boundaries (``group_by``), so a
    per-machine series is always contiguous within one shard.
    """
    spec = _scale(scale)
    config = sim_google_config(spec)
    return _sharded_build(
        "simulation-usage-shards",
        {
            "scale": fingerprint(spec),
            "seed": seed,
            "config": fingerprint(config),
            "sim": fingerprint(SimConfig()),
            "order": "machine_id,time",
        },
        lambda: simulation_dataset(scale, seed).result.machine_usage.sort_by(
            "machine_id", "time"
        ),
        shard_rows,
        group_by="machine_id",
    )


def grid_system_names() -> list[str]:
    """Names of the calibrated Grid/HPC systems, Table I order first."""
    order = [
        "AuverGrid",
        "NorduGrid",
        "SHARCNET",
        "ANL",
        "RICC",
        "METACENTRUM",
        "LLNL-Atlas",
        "DAS-2",
    ]
    return [n for n in order if n in GRID_PRESETS]
