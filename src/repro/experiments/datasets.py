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

Experiments that reduce one of the large Google-side tables (jobs,
task durations, machine usage) name it and hand a shard kernel to
:func:`fold_table` or :func:`map_table`; they never see where its rows
live. This module alone decides that from the active
:class:`BackendSpec`: under ``memory`` the kernel runs once, in this
process, on the builder's in-memory table as the only shard; under
``sharded`` the table is spilled to a
:class:`~repro.core.shard.ShardedTable` and the same kernel is folded
over its shards by the supervised map-reduce. Every host-load
experiment reads the per-machine series from :func:`fleet_series`,
which cuts them from the machine-major ``machine_usage`` table with
one such kernel; the series themselves are never cached.
"""

from __future__ import annotations

import atexit
import dataclasses
import fcntl
import os
import shutil
import tempfile
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .. import __version__
from ..core.diskcache import MISS, DiskCache, cache_key, fingerprint
from ..core.mapreduce import map_reduce, map_shards
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
    "active_backend",
    "blocks_fan_out",
    "configure_backend",
    "configure_cache",
    "dataset_cache",
    "dataset_stats",
    "default_cache_dir",
    "fleet_series",
    "fold_table",
    "heal_sharded_table",
    "map_table",
    "reset_dataset_stats",
    "workload_dataset",
    "simulation_dataset",
    "sim_google_config",
]

#: Bump when a builder, model default, cached container or the cache's
#: entry format changes; old disk-cache entries then miss.
DATASET_CACHE_VERSION = 4


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


def _workload_config(spec: ScaleSpec) -> GoogleConfig:
    """Google model for the workload tables at this scale."""
    return GoogleConfig(busy_window=spec.busy_window, busy_factor=spec.busy_factor)


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


def _workload_key(scale: str, seed: int) -> dict[str, object]:
    """Cache-key parts every workload-derived entry shares."""
    spec = _scale(scale)
    return {
        "scale": fingerprint(spec),
        "seed": seed,
        "config": fingerprint(_workload_config(spec)),
    }


def _simulation_key(scale: str, seed: int) -> dict[str, object]:
    """Cache-key parts every simulation-derived entry shares."""
    spec = _scale(scale)
    return {
        "scale": fingerprint(spec),
        "seed": seed,
        "config": fingerprint(sim_google_config(spec)),
        "sim": fingerprint(SimConfig()),
    }


@dataclass(frozen=True)
class WorkloadDataset:
    """Per-job tables for every system plus Google task-level samples."""

    horizon: float
    google_jobs: Table
    grid_jobs_native: dict[str, Table]  # GWA/SWF schemas
    grid_jobs: dict[str, Table]  # converted to the common schema
    google_tasks: TaskRequests  # task-level sample (lengths, priorities)


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


def configure_cache(cache_dir: str | Path | None) -> DiskCache | None:
    """Point the dataset builders at an on-disk cache (None disables).

    The cache keeps :class:`DiskCache`'s default budgets. Also clears
    the in-process memos so the new cache takes effect for subsequent
    calls.
    """
    global _CACHE, _CACHE_CONFIGURED
    _CACHE_CONFIGURED = True
    _CACHE = None if cache_dir is None else DiskCache(cache_dir)
    workload_dataset.cache_clear()
    simulation_dataset.cache_clear()
    fleet_series.cache_clear()
    _ROOTS.clear()
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
    return _cached_build(
        "workload",
        {**_workload_key(scale, seed), "grids": fingerprint(GRID_PRESETS)},
        lambda: _build_workload(spec, seed, _workload_config(spec)),
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
def simulation_dataset(scale: str = "paper", seed: int = 0) -> SimResult:
    """Simulated cluster run at the requested scale (memoized).

    Its ``machine_usage`` is machine-major, sorted by
    ``(machine_id, time)``, so every machine's series is one contiguous
    run of rows.
    """
    spec = _scale(scale)
    return _cached_build(
        "simulation",
        _simulation_key(scale, seed),
        lambda: _build_simulation(spec, seed, sim_google_config(spec)),
    )


def _build_simulation(
    spec: ScaleSpec, seed: int, config: GoogleConfig
) -> SimResult:
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
    # The monitor emits tick-major rows; machine ids are the machines
    # table's arange, so machine-major order is machines-table order.
    return dataclasses.replace(
        result,
        machine_usage=result.machine_usage.sort_by("machine_id", "time"),
    )


# -- backend ------------------------------------------------------------------


@dataclass(frozen=True)
class BackendSpec:
    """Where the dataset tables live while experiment kernels fold them.

    ``memory`` (the default) hands a kernel the builder's in-memory
    table as its only shard, in this process. ``sharded`` spills the
    table to a :class:`repro.core.shard.ShardedTable` of
    ``shard_rows``-row shards and folds the same kernel over them,
    optionally across ``jobs`` block workers forked from a forkserver
    (one per supervised run, see :func:`blocks_fan_out`). Both backends
    run one set of kernels whose merges are exact, so output is
    byte-identical for any ``shard_rows`` and ``jobs``; only peak
    memory and wall-clock change.
    """

    name: str = "memory"
    shard_rows: int = 1_000_000
    jobs: int = 1
    #: Per-block wall-clock budget in the supervised map-reduce pool
    #: (None disables) and extra attempts per transiently failed block.
    block_timeout: float | None = None
    block_retries: int = 2

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


#: The experiment backend; :func:`configure_backend` replaces it.
_BACKEND = BackendSpec()


def configure_backend(spec: BackendSpec | None) -> BackendSpec:
    """Select the experiment backend (None restores the default).

    The choice lives in this module only. Forked experiment workers
    inherit it; map-reduce block workers never read it, since each
    block gets the table root, kernel and fault hook as arguments.
    """
    global _BACKEND
    _BACKEND = spec if spec is not None else BackendSpec()
    if _BACKEND.name == "sharded":
        # Made here, before any worker forks, so that every worker
        # spills into the same place.
        _spill_cache()
    fleet_series.cache_clear()
    return _BACKEND


def active_backend() -> BackendSpec:
    """The backend :func:`configure_backend` last selected."""
    return _BACKEND


# -- spills -------------------------------------------------------------------

#: The disk cache spills land in when no dataset cache is configured:
#: one temp dir, made by the process that selected the sharded backend
#: and removed when that process exits. Forked workers inherit it, so
#: they share its entries and its spill locks.
_TMP_SPILL_CACHE: DiskCache | None = None


def _spill_cache() -> DiskCache:
    """Where sharded tables are spilled: the dataset cache, or a temp one."""
    global _TMP_SPILL_CACHE
    cache = dataset_cache()
    if cache is not None:
        return cache
    if _TMP_SPILL_CACHE is None:
        root = tempfile.mkdtemp(prefix="repro-spill-")
        # No budget: the dir lives as long as the run, and an evicted
        # spill would have to be made again.
        _TMP_SPILL_CACHE = DiskCache(root, max_bytes=None, max_entries=None)
        # Forked workers leave through os._exit, so only this process
        # runs the hook.
        atexit.register(shutil.rmtree, root, ignore_errors=True)
    return _TMP_SPILL_CACHE


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


def _spill_key(
    kind: str, key_parts: dict[str, object], shard_rows: int
) -> str:
    """Disk-cache key of one table spill."""
    return cache_key(
        kind=kind,
        version=DATASET_CACHE_VERSION,
        repro=__version__,
        shard_rows=shard_rows,
        **key_parts,
    )


def _sharded_build(
    kind: str,
    key_parts: dict[str, object],
    build_table,
    shard_rows: int,
    group_by: str | None = None,
) -> str:
    """Spill a pure table builder to a sharded directory, via the cache.

    Returns the shard-table root as a path string (cheap to pickle into
    kernels and to memoize). The spill lands in an entry
    (:meth:`DiskCache.put_path`) of :func:`_spill_cache`: the dataset
    cache when one is configured, else the run's temp cache, shared by
    every worker of the run either way. Spills are **crash-safe**:
    they stage at a deterministic per-key path under ``<cache>/.spill/``
    so a process killed mid-spill leaves a journaled partial that the
    next attempt resumes instead of restarting, and processes that miss
    the same key at once take turns on a lock beside it.
    """
    cache = _spill_cache()
    key = _spill_key(kind, key_parts, shard_rows)
    path = cache.get_path(key)
    if path is not MISS:
        _STATS["disk_hits"] += 1
        return str(path)
    stage = cache.root / ".spill" / key[:16]
    with _spill_lock(stage.with_name(f"{stage.name}.lock")):
        # Workers that miss the same table at once share one staging
        # dir, so only the lock holder spills; a waiter finds the entry
        # the holder published.
        path = cache.get_path(key)
        if path is not MISS:
            _STATS["disk_hits"] += 1
            return str(path)
        _STATS["disk_misses"] += 1
        table = build_table()
        stage.mkdir(parents=True, exist_ok=True)
        dest = stage / "shards"
        _spill(table, dest, shard_rows, group_by, kind, resume=True)
        cache.put_path(key, dest)
        shutil.rmtree(stage, ignore_errors=True)
        path = cache.get_path(key)
    if path is MISS:
        # A put never evicts its own entry: another process evicted it,
        # or the publish failed. The spill has no other place to live.
        raise RuntimeError(
            f"{kind} spill is missing from {cache.root} right after it "
            "was stored (evicted by another process, or the store failed)"
        )
    return str(path)


def heal_sharded_table(root: str, message: str) -> str | None:
    """Quarantine a corrupt sharded table and re-derive it from source.

    The recovery path behind every :class:`ShardIntegrityError`: the
    damaged entry is parked in its cache's quarantine and the table is
    rebuilt from its pure upstream builder — byte-identical by
    construction. The table name that resolved to the damaged root
    resolves to the new one from now on. Returns the fresh root, or
    ``None`` for a root this process never derived (the caller then
    re-raises).
    """
    root = str(root)
    memo = next((m for m, path in _ROOTS.items() if path == root), None)
    if memo is None:
        return None
    _STATS["shards_quarantined"] += 1
    table, scale, seed, shard_rows = memo
    spec = _TABLES[table]
    _spill_cache().quarantine_entry(
        _spill_key(spec.kind, spec.key(scale, seed), shard_rows)
    )
    del _ROOTS[memo]
    new_root = _table_root(*memo)
    _STATS["shards_rederived"] += 1
    return new_root


# -- dataset tables -----------------------------------------------------------


@dataclass(frozen=True)
class _TableSpec:
    """One dataset table that experiment kernels fold over.

    ``build(scale, seed)`` is the pure builder of the whole table, with
    rows in fold order; under the memory backend its result is the
    fold's only shard. The sharded backend spills it to the disk-cache
    entry ``kind`` keyed by ``key(scale, seed)`` plus ``shard_rows``,
    cutting shards only between runs of ``group_by`` when set.
    """

    kind: str
    key: Callable[[str, int], dict[str, object]]
    build: Callable[[str, int], Table]
    group_by: str | None = None


_TABLES: dict[str, _TableSpec] = {
    # Submit order, as generated (the arrival processes emit sorted
    # times): each shard covers a contiguous time range, so fig5's
    # cross-shard gaps are single boundary differences.
    "google_jobs": _TableSpec(
        kind="workload-jobs-shards",
        key=lambda scale, seed: {
            **_workload_key(scale, seed),
            "grids": fingerprint(GRID_PRESETS),
            "order": "submit_time",
        },
        build=lambda scale, seed: workload_dataset(scale, seed).google_jobs,
    ),
    "task_durations": _TableSpec(
        kind="workload-tasks-shards",
        key=lambda scale, seed: {
            **_workload_key(scale, seed),
            "columns": ("duration",),
        },
        build=lambda scale, seed: Table(
            {"duration": workload_dataset(scale, seed).google_tasks.duration}
        ),
    ),
    # Machine-major (machine_id, time), as _build_simulation stores it,
    # cut only at machine boundaries: each machine's whole series sits
    # in exactly one shard, where fleet_series' kernel cuts it out.
    "machine_usage": _TableSpec(
        kind="simulation-usage-shards",
        key=lambda scale, seed: {
            **_simulation_key(scale, seed),
            "order": "machine_id,time",
        },
        build=lambda scale, seed: simulation_dataset(scale, seed).machine_usage,
        group_by="machine_id",
    ),
}

#: (table, scale, seed, shard_rows) -> root of that table's spill: the
#: one record of every spill this process made. :func:`heal_sharded_table`
#: finds a damaged root here and re-derives it through :func:`_table_root`,
#: so a pass that names a table after another pass healed it reads the
#: healed copy.
_ROOTS: dict[tuple[str, str, int, int], str] = {}


def _table_root(table: str, scale: str, seed: int, shard_rows: int) -> str:
    """The named table's spill, made on first use in this process."""
    memo = (table, scale, seed, shard_rows)
    if memo not in _ROOTS:
        spec = _TABLES[table]
        _ROOTS[memo] = _sharded_build(
            spec.kind,
            spec.key(scale, seed),
            lambda: spec.build(scale, seed),
            shard_rows,
            spec.group_by,
        )
    return _ROOTS[memo]


def blocks_fan_out(scale: str, seed: int) -> bool:
    """Whether a pass over some table can launch block workers.

    True under the sharded backend with more than one job when some
    table is longer than one shard; every other pass runs its blocks
    inline. Builds the tables, so ask once the datasets are warm.
    """
    backend = active_backend()
    return (
        backend.name == "sharded"
        and backend.jobs > 1
        and any(
            spec.build(scale, seed).num_rows > backend.shard_rows
            for spec in _TABLES.values()
        )
    )


def _shard_injector(kind: str):
    """Fault-injection hook for map-reduce workers over this table kind."""
    from . import faults  # lazy: faults imports this module at top level

    plan = faults.plan_from_env()
    if plan is None or not plan.has_shard_faults(kind):
        return None
    return faults.ShardFaultInjector(plan=plan, table=kind)


def _over_shards(run, table, scale, seed, kernel, args):
    """One supervised ``run`` (map_reduce/map_shards) over a table's spill.

    Worker count, per-block timeout and retries come from the active
    backend. Shard damage found at open or by a block heals through
    :func:`heal_sharded_table`, fault plans inject through the worker
    hook, and recovery counters land in :func:`dataset_stats`.
    """
    backend = active_backend()
    root = _table_root(table, scale, seed, backend.shard_rows)
    try:
        shards = ShardedTable.open(root)
    except ShardIntegrityError as exc:
        root = heal_sharded_table(root, str(exc))
        if root is None:
            raise
        shards = ShardedTable.open(root)
    return run(
        shards,
        kernel,
        args=args,
        jobs=backend.jobs,
        config=Policy(
            timeout=backend.block_timeout, retries=backend.block_retries
        ),
        inject=_shard_injector(_TABLES[table].kind),
        heal=heal_sharded_table,
        timings=_StatsCounter(),
    )


def fold_table(
    table: str,
    scale: str,
    seed: int,
    kernel,
    *,
    args: tuple = (),
):
    """Left fold of ``kernel(shard, *args)`` over a dataset table.

    ``table`` names one of ``google_jobs``, ``task_durations`` and
    ``machine_usage``. Under the memory backend the builder's table is
    the only shard: the kernel runs once, here, on the table itself.
    Under the sharded backend the table's spill is folded by a
    supervised map-reduce in shard order, with the backend's worker
    count; block results combine through the accumulator's ``merge``
    method. Returns ``None`` for an empty table, like a zero-shard
    map-reduce.
    """
    if active_backend().name == "memory":
        whole = _TABLES[table].build(scale, seed)
        return kernel(whole, *args) if whole.num_rows else None
    return _over_shards(map_reduce, table, scale, seed, kernel, args)


def map_table(
    table: str,
    scale: str,
    seed: int,
    kernel,
    *,
    args: tuple = (),
) -> list:
    """Per-shard ``kernel(shard, *args)`` results, in shard order.

    :func:`fold_table` without the fold; the memory backend returns the
    one result of its single shard.
    """
    if active_backend().name == "memory":
        whole = _TABLES[table].build(scale, seed)
        return [kernel(whole, *args)] if whole.num_rows else []
    return _over_shards(map_shards, table, scale, seed, kernel, args)


def _shard_series(shard, machines: Table) -> dict[int, MachineLoadSeries]:
    """Map kernel: the series of every machine in one usage shard.

    Calls ``all_machine_series`` through this module's binding, which
    ``bench/tracing.py`` wraps as the ``hostload.series`` layer; the
    binding itself is never handed to a block worker, since a wrapped
    function cannot be pickled by name.
    """
    return all_machine_series(shard, machines)


@lru_cache(maxsize=4)
def fleet_series(
    scale: str = "paper", seed: int = 0
) -> dict[int, MachineLoadSeries]:
    """Every simulated machine's load series, in machines-table order.

    Cut from the ``machine_usage`` table by one kernel on each shard.
    Shards are machine-aligned and machine-major, so merging their
    dicts in shard order gives machines-table order on either backend.
    Memoized like the builders it reads; callers treat the dict and
    its series as read-only.
    """
    machines = simulation_dataset(scale, seed).machines
    series: dict[int, MachineLoadSeries] = {}
    for part in map_table(
        "machine_usage", scale, seed, _shard_series, args=(machines,)
    ):
        series.update(part)
    return series


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
