"""``repro-bench``: tracked kernel + experiment benchmark harness.

Times the vectorized analysis/simulation kernels against their scalar
golden references, the chunked paper-scale host-load pipeline, the
out-of-core sharded backend against the in-memory batch path (plus a
spawn-isolated 10x-paper streaming run whose ``peak_rss_kb`` is the
bounded-memory claim), and every registered experiment, at one or more
dataset scales. Results
land in ``benchmarks/BENCH_<n>.json`` snapshots (``n`` auto-increments)
and each run diffs itself against the previous snapshot, flagging
regressions.

Regression policy: by default only *speedup ratios* are compared —
vectorized-over-scalar wall-time ratios are nearly machine-independent,
so CI stays meaningful across hosts. An entry regresses when its
speedup drops below 80% of the baseline's **and** below the grace floor
of 5x (a 40x kernel drifting to 35x is noise; dropping under 5x means
the vectorization broke). Raw wall-time comparison against the
baseline (same-machine runs only) is opt-in via ``--check-wall``.

Entry schema (one JSON object per benchmark x scale)::

    {"name": ..., "scale": ..., "wall_s": ..., "cpu_s": ...,
     "peak_rss_kb": ..., "tasks_per_s": ..., "speedup": ...}

``peak_rss_kb`` is the process high-water mark after the entry ran
(``getrusage``; monotone across entries — the paper-pipeline bound is
its value on a fresh run). ``speedup`` is the median, over interleaved
pairs of calls, of the oracle's (scalar or in-memory) wall over the
kernel's wall; null for unpaired benches. ``wall_s`` is the kernel's
best wall, and ``tasks_per_s`` is rows (or tasks) processed per
kernel wall-second.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import sys
import tempfile
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from ..core.ecdf import ecdf
from ..core.fairness import HourlyCountsAccumulator
from ..core.kernels import (
    ECDFAccumulator,
    MassCountAccumulator,
    pooled_level_durations,
)
from ..core.mapreduce import map_reduce
from ..core.masscount import mass_count
from ..core.shard import write_table
from ..core.timing import Timings
from ..hostload.levels import (
    _pooled_level_durations_scalar,
    duration_stats_by_level,
    pooled_level_durations as pooled_series_durations,
)
from ..hostload.series import _all_machine_series_scalar, grouped_machine_series
from ..hostload.stream import UsageGridAccumulator
from ..sim.cluster import ClusterSimulator, SimConfig
from ..sim.monitor import MACHINE_USAGE_SCHEMA
from ..synth.google_model import (
    GoogleConfig,
    generate_task_requests,
    iter_task_requests,
)
from ..synth.machines import generate_machines
from ..synth.presets import DAY, HOUR
from ..synth.sharded import shard_task_requests
from ..traces.schema import priority_band_array
from ..core.table import Table
from .datasets import SCALES
from .registry import EXPERIMENTS

__all__ = ["main", "run_benchmarks"]

SNAPSHOT_PATTERN = re.compile(r"BENCH_(\d+)\.json$")

#: Regression thresholds (see module docstring).
SPEEDUP_RETENTION = 0.8
SPEEDUP_GRACE_FLOOR = 5.0
#: Baselines below this claim no real speedup (the sharded folds hover
#: near 1x) — there the ratio is all measurement noise, so the
#: retention check does not apply.
SPEEDUP_CHECK_MIN = 1.5
WALL_TOLERANCE = 1.2

#: Synthetic usage-grid sizes per scale: (machines, ticks-per-machine).
#: Ticks are 5-minute samples; machine count dominates the scalar
#: path's cost (one full-table scan per machine), tick count the
#: vectorized path's.
_KERNEL_GRIDS = {
    # "small" is sized so the vectorized kernels take >= a few ms — any
    # smaller and the CI-gated speedup ratios are scheduler noise.
    "small": (64, 576),
    "medium": (2_000, 288),
    "paper": (12_500, 720),
}

#: Streaming host-load pipeline sizes: (machines, horizon_s, tasks/hour).
#: Paper scale is the full trace: 25M tasks on 12,500 machines over a
#: month (25e6 tasks / 720 h).
_PIPELINES = {
    "small": (16, 2 * DAY, 1_000.0),
    "medium": (1_000, 6 * DAY, 12_000.0),
    "paper": (12_500, 30 * DAY, 25_000_000.0 / (30 * DAY / HOUR)),
}

#: ``sim_drain`` sizes: (machines, horizon_s, tasks/hour). Kept
#: moderate so the scalar golden run stays affordable everywhere.
_DRAIN_SIMS = {
    "small": (16, 2 * DAY, 220.0),
    "medium": (32, 4 * DAY, 390.0),
    "paper": (40, 6 * DAY, 480.0),
}

#: Scalar golden references skipped where the O(machines x rows) scan
#: would dominate the whole run; their entries carry speedup null.
_SCALAR_SKIP_SCALES = {"paper"}

#: Sharded-reduction input sizes: synthetic duration rows per scale.
#: Paper matches the trace's 25M tasks.
_SHARDED_ROWS = {"small": 200_000, "medium": 2_000_000, "paper": 25_000_000}

#: Production spill size (the runner's ``--shard-rows`` default).
_SHARD_ROWS_DEFAULT = 1_000_000

#: 10x-paper streaming run: (horizon_s, tasks/hour) — 250M tasks over
#: the paper's month, spilled as 5M-row shards of two columns.
_TENX_STREAM = (30 * DAY, 10 * 25_000_000.0 / (30 * DAY / HOUR))
_TENX_SHARD_ROWS = 5_000_000
_TENX_COLUMNS = ("submit_time", "duration")


def _bench_shard_rows(rows: int) -> int:
    """Spill size: production shards, but at least a four-shard fold so
    the small CI scale still exercises multi-shard merging."""
    return min(_SHARD_ROWS_DEFAULT, max(1, -(-rows // 4)))


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _timed(
    fn: Callable[[], object],
    *,
    min_wall_s: float = 0.05,
    max_repeats: int = 20,
) -> tuple[object, float, float]:
    """(result, wall seconds, cpu seconds) — best of up to ``max_repeats``.

    Sub-``min_wall_s`` calls are re-run and the fastest wall time kept,
    so short walls are not dominated by scheduler noise; anything slower
    is measured once. Speedups are timed by :func:`_timed_pair`.
    """
    timings = Timings()
    best_wall = best_cpu = None
    result = None
    for i in range(max_repeats):
        name = f"call{i}"
        with timings.stage(name):
            result = fn()
        stats = timings.stages[name]
        if best_wall is None or stats.wall_s < best_wall:
            best_wall, best_cpu = stats.wall_s, stats.cpu_s
        if stats.wall_s >= min_wall_s:
            break
    return result, best_wall, best_cpu


def _timed_pair(
    fn: Callable[[], object],
    oracle: Callable[[], object],
    *,
    min_pairs: int = 3,
    max_pairs: int = 25,
    budget_s: float = 0.25,
) -> tuple[object, object, float, float, float]:
    """Time a kernel and its oracle in interleaved pairs.

    Each pair calls both back to back, alternating which goes first,
    so host drift moves both sides of a pair alike and cancels in the
    pair's oracle-over-kernel wall ratio. Pairs repeat until both sides
    together have run ``budget_s`` (at least ``min_pairs``, at most
    ``max_pairs``). Returns (kernel result, oracle result, best kernel
    wall, that call's cpu, median per-pair ratio).
    """
    timings = Timings()
    calls = {"fn": fn, "oracle": oracle}
    results: dict[str, object] = {}
    best_wall = best_cpu = None
    ratios: list[float] = []
    spent = 0.0
    for i in range(max_pairs):
        for side in ("fn", "oracle") if i % 2 == 0 else ("oracle", "fn"):
            with timings.stage(f"{side}{i}"):
                results[side] = calls[side]()
        fast = timings.stages[f"fn{i}"]
        slow = timings.stages[f"oracle{i}"]
        if best_wall is None or fast.wall_s < best_wall:
            best_wall, best_cpu = fast.wall_s, fast.cpu_s
        ratios.append(slow.wall_s / max(fast.wall_s, 1e-9))
        spent += fast.wall_s + slow.wall_s
        if i + 1 >= min_pairs and spent >= budget_s:
            break
    return (
        results["fn"],
        results["oracle"],
        best_wall,
        best_cpu,
        float(np.median(ratios)),
    )


def _entry(
    name: str,
    scale: str,
    wall_s: float,
    cpu_s: float,
    *,
    tasks: int | None = None,
    speedup: float | None = None,
) -> dict[str, object]:
    return {
        "name": name,
        "scale": scale,
        "wall_s": round(wall_s, 6),
        "cpu_s": round(cpu_s, 6),
        "peak_rss_kb": _peak_rss_kb(),
        "tasks_per_s": (
            None if tasks is None or wall_s <= 0 else round(tasks / wall_s, 1)
        ),
        "speedup": None if speedup is None else round(speedup, 2),
    }


# -- synthetic inputs ----------------------------------------------------------


def _sticky_series(
    rng: np.random.Generator,
    n_machines: int,
    n_ticks: int,
    high: float,
    change_prob: float = 0.3,
) -> np.ndarray:
    """Tick-major usage rows whose levels persist across samples.

    Real host load is sticky — Tables II/III measure how *long* levels
    stay unchanged — so the benchmark input holds each drawn value for
    a geometric number of ticks instead of redrawing every sample
    (which would be the run-length kernels' unrepresentative worst
    case).
    """
    candidates = rng.uniform(0.0, high, (n_machines, n_ticks))
    change = rng.uniform(size=(n_machines, n_ticks)) < change_prob
    change[:, 0] = True
    held_idx = np.maximum.accumulate(
        np.where(change, np.arange(n_ticks)[None, :], 0), axis=1
    )
    held = np.take_along_axis(candidates, held_idx, axis=1)
    return held.T.reshape(-1)


def _synthetic_usage(
    scale: str, seed: int
) -> tuple[Table, Table]:
    """Monitor-shaped usage table + machines table for kernel benches."""
    n_machines, n_ticks = _KERNEL_GRIDS[scale]
    rng = np.random.default_rng(seed)
    machines = generate_machines(n_machines, rng)
    ids = np.asarray(machines["machine_id"], dtype=np.int64)
    times = np.repeat(np.arange(n_ticks) * 300.0, n_machines)
    rows = n_machines * n_ticks
    columns: dict[str, np.ndarray] = {
        "time": times,
        "machine_id": np.tile(ids, n_ticks),
    }
    for name in MACHINE_USAGE_SCHEMA:
        if name in columns:
            continue
        if name == "n_running":
            columns[name] = rng.integers(0, 40, rows)
        else:
            columns[name] = _sticky_series(rng, n_machines, n_ticks, 0.5)
    return Table(columns, schema=MACHINE_USAGE_SCHEMA), machines


# -- individual benches --------------------------------------------------------


def _bench_series_extraction(
    scale: str, seed: int
) -> tuple[dict[str, object], dict]:
    usage, machines = _synthetic_usage(scale, seed)
    speedup = None
    if scale in _SCALAR_SKIP_SCALES:
        series, wall, cpu = _timed(
            lambda: grouped_machine_series(usage, machines)
        )
    else:
        series, _, wall, cpu, speedup = _timed_pair(
            lambda: grouped_machine_series(usage, machines),
            lambda: _all_machine_series_scalar(usage, machines),
        )
    entry = _entry(
        "series_extraction",
        scale,
        wall,
        cpu,
        tasks=len(usage),
        speedup=speedup,
    )
    return entry, {"series": series}


def _bench_run_length(scale: str, seed: int, series: dict) -> dict[str, object]:
    speedup = None
    if scale in _SCALAR_SKIP_SCALES:
        _, wall, cpu = _timed(lambda: pooled_series_durations(series, "cpu"))
    else:
        _, _, wall, cpu, speedup = _timed_pair(
            lambda: pooled_series_durations(series, "cpu"),
            lambda: _pooled_level_durations_scalar(series, "cpu"),
        )
    rows = sum(len(s) for s in series.values())
    return _entry(
        "run_length_segmentation",
        scale,
        wall,
        cpu,
        tasks=rows,
        speedup=speedup,
    )


def _bench_mass_count(scale: str, seed: int, series: dict) -> dict[str, object]:
    def run():
        acc = MassCountAccumulator(positive_only=True)
        for s in series.values():
            acc.add(s.relative("cpu"))
        return acc.finalize()

    _, wall, cpu = _timed(run)
    rows = sum(len(s) for s in series.values())
    return _entry("mass_count_accumulation", scale, wall, cpu, tasks=rows)


def _bench_sim_drain(scale: str, seed: int) -> dict[str, object]:
    """SoA engine (compiled hot loop when available) vs scalar golden.

    The speedup column is the whole point — the 0.8x retention gate on
    it keeps the fast engine fast.
    """
    n_machines, horizon, tasks_per_hour = _DRAIN_SIMS[scale]
    rng = np.random.default_rng(seed)
    machines = generate_machines(n_machines, rng)
    requests = generate_task_requests(
        horizon,
        seed=seed + 1,
        config=GoogleConfig(busy_window=None),
        tasks_per_hour=tasks_per_hour,
    )

    def run(engine: str):
        sim = ClusterSimulator(machines, SimConfig(), seed=seed + 2)
        return sim.run(requests, horizon, engine=engine)

    speedup = None
    if scale in _SCALAR_SKIP_SCALES:
        result, wall, cpu = _timed(lambda: run("soa"))
    else:
        result, scalar_result, wall, cpu, speedup = _timed_pair(
            lambda: run("soa"), lambda: run("scalar")
        )
        if scalar_result.task_events != result.task_events:
            raise AssertionError(
                "sim_drain: SoA engine diverged from scalar golden run"
            )
    return _entry(
        "sim_drain",
        scale,
        wall,
        cpu,
        tasks=int(result.counts["scheduled"]),
        speedup=speedup,
    )


def _bench_chunked_generation(scale: str, seed: int) -> dict[str, object]:
    _n_machines, horizon, tasks_per_hour = _PIPELINES[scale]

    def run():
        total = 0
        for chunk in iter_task_requests(
            horizon,
            seed=seed,
            config=GoogleConfig(busy_window=None),
            tasks_per_hour=tasks_per_hour,
        ):
            total += len(chunk)
        return total

    total, wall, cpu = _timed(run)
    return _entry("chunked_generation", scale, wall, cpu, tasks=int(total))


def _bench_hostload_pipeline(scale: str, seed: int) -> dict[str, object]:
    """Streamed paper-scale host-load characterization, end to end.

    Chunked generation -> random placement -> usage-grid scatter-adds
    -> pooled run-length durations + Tables II/III stats + mass-count,
    all without materializing the full task stream.
    """
    n_machines, horizon, tasks_per_hour = _PIPELINES[scale]

    def run():
        rng = np.random.default_rng(seed + 1)
        machines = generate_machines(n_machines, rng)
        grid = UsageGridAccumulator(
            machines, horizon, attributes=("cpu_usage", "mem_usage")
        )
        mass = MassCountAccumulator(positive_only=True)
        total = 0
        for chunk in iter_task_requests(
            horizon,
            seed=seed,
            config=GoogleConfig(busy_window=None),
            tasks_per_hour=tasks_per_hour,
        ):
            n = len(chunk)
            total += n
            slots = rng.integers(0, n_machines, n)
            start = chunk.submit_time + rng.exponential(10.0, n)
            grid.add_tasks(
                slots,
                start,
                start + chunk.duration,
                cpu=chunk.cpu_request * chunk.cpu_utilization,
                mem=chunk.mem_request * chunk.mem_utilization,
                band=priority_band_array(chunk.priority),
            )
        times, values, lengths = grid.pool("cpu_usage")
        stats = duration_stats_by_level(
            pooled_level_durations(times, values, lengths)
        )
        mass.add(values)
        return total, stats, mass.finalize()

    (total, _stats, _mc), wall, cpu = _timed(run)
    return _entry("hostload_pipeline", scale, wall, cpu, tasks=int(total))


# -- sharded backend benches ---------------------------------------------------


def _sharded_ecdf_kernel(shard) -> ECDFAccumulator:
    """Map kernel: distinct-value ECDF partial of one shard."""
    acc = ECDFAccumulator()
    acc.add(np.asarray(shard["duration"]))
    return acc


def _sharded_mass_kernel(shard) -> MassCountAccumulator:
    """Map kernel: ordered mass-count chunks of one shard."""
    acc = MassCountAccumulator()
    acc.add(np.asarray(shard["duration"]))
    return acc


def _bench_sharded_reduce(
    scale: str, seed: int, log: Callable[[str], None]
) -> list[dict[str, object]]:
    """ECDF + mass-count folds over on-disk shards vs the in-memory batch.

    Both sides reduce the same duration column to the same result
    (asserted bit-identical), so the speedup column is an honest
    backend-vs-backend measure of what the out-of-core fold costs on
    top of one materialized array. Near 1x is the expected answer —
    the point of the sharded path is bounded memory, not single-core
    wall time — and entries under the 1.5x floor are exempt from the
    retention gate.
    """
    rows = _SHARDED_ROWS[scale]
    rng = np.random.default_rng(seed)
    # Durations rounded to 0.1s: repeated values keep the merged ECDF's
    # distinct-value folding honest (continuous draws never collide).
    values = np.round(rng.exponential(3600.0, rows), 1)
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-shards-"))
    entries: list[dict[str, object]] = []
    try:
        sharded = write_table(
            Table({"duration": values}),
            tmp / "durations",
            _bench_shard_rows(rows),
        )
        # Timed regions cover fold *and* finalize on the sharded side so
        # the ratio against the one-shot batch call is like for like.
        got_ecdf, want_ecdf, wall, cpu, speedup = _timed_pair(
            lambda: map_reduce(sharded, _sharded_ecdf_kernel).finalize(),
            lambda: ecdf(values),
        )
        if not (
            np.array_equal(got_ecdf.values, want_ecdf.values)
            and np.array_equal(got_ecdf.probabilities, want_ecdf.probabilities)
        ):
            raise AssertionError(
                "sharded_ecdf: merged ECDF diverged from the in-memory batch"
            )
        entry = _entry(
            "sharded_ecdf", scale, wall, cpu, tasks=rows, speedup=speedup
        )
        entries.append(entry)
        log(f"  sharded_ecdf [{scale}] {entry['wall_s']}s "
            f"speedup={entry['speedup']}")

        got_mc, want_mc, wall, cpu, speedup = _timed_pair(
            lambda: map_reduce(sharded, _sharded_mass_kernel).finalize(),
            lambda: mass_count(values),
        )
        if (
            got_mc.mm_distance != want_mc.mm_distance
            or got_mc.joint_ratio != want_mc.joint_ratio
        ):
            raise AssertionError(
                "sharded_masscount: merged stats diverged from the "
                "in-memory batch"
            )
        entry = _entry(
            "sharded_masscount", scale, wall, cpu,
            tasks=rows, speedup=speedup,
        )
        entries.append(entry)
        log(f"  sharded_masscount [{scale}] {entry['wall_s']}s "
            f"speedup={entry['speedup']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return entries


def _stream_summary_kernel(shard, horizon: float) -> dict[str, object]:
    """Map kernel for the streaming run: hourly counts + duration max."""
    hours = HourlyCountsAccumulator(horizon)
    hours.add(np.asarray(shard["submit_time"]))
    duration = np.asarray(shard["duration"])
    return {
        "hours": hours,
        "max_duration": float(duration.max()) if duration.size else 0.0,
        "rows": int(duration.size),
    }


def _merge_stream_summary(left: dict, right: dict) -> dict:
    left["hours"].merge(right["hours"])
    left["max_duration"] = max(left["max_duration"], right["max_duration"])
    left["rows"] += right["rows"]
    return left


def _stream_probe(
    dest: str,
    seed: int,
    horizon: float,
    tasks_per_hour: float,
    shard_rows: int,
) -> dict[str, float]:
    """Spawn-isolated streaming characterization (child process body).

    Spills the chunked task stream straight to two-column shards, then
    map-reduces hourly submission counts and the duration maximum over
    them — no step ever holds more than one generation chunk or one
    shard. Runs in a fresh interpreter so the returned ``ru_maxrss``
    is the pipeline's own high-water mark, not whatever the parent
    bench process touched first; that number *is* the bounded-memory
    claim, so it must not inherit the parent's footprint.
    """
    timings = Timings()
    with timings.stage("stream"):
        sharded = shard_task_requests(
            Path(dest) / "trace",
            horizon,
            seed=seed,
            config=GoogleConfig(busy_window=None),
            tasks_per_hour=tasks_per_hour,
            shard_rows=shard_rows,
            columns=_TENX_COLUMNS,
        )
        summary = map_reduce(
            sharded,
            _stream_summary_kernel,
            args=(horizon,),
            merge=_merge_stream_summary,
        )
    if summary["rows"] != sharded.num_rows:
        raise AssertionError("sharded_stream_10x: reduced row count mismatch")
    stats = timings.stages["stream"]
    return {
        "rows": float(sharded.num_rows),
        "shards": float(sharded.num_shards),
        "busiest_hour": float(np.max(summary["hours"].counts())),
        "wall_s": stats.wall_s,
        "cpu_s": stats.cpu_s,
        "peak_rss_kb": float(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ),
    }


def _bench_sharded_stream_10x(
    seed: int, log: Callable[[str], None]
) -> dict[str, object]:
    """10x-paper (250M task) out-of-core run with its own RSS bound.

    The whole run executes in one spawned child so the recorded
    ``peak_rss_kb`` is the streaming pipeline's true bound — the
    parent's other benches materialize multi-GB tables and ``ru_maxrss``
    never comes back down. No speedup column: there is no in-memory
    baseline to compare against at a scale that exists to exceed RAM.
    """
    tmp = tempfile.mkdtemp(prefix="repro-bench-10x-")
    horizon, tasks_per_hour = _TENX_STREAM
    try:
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            probe = pool.submit(
                _stream_probe, tmp, seed, horizon, tasks_per_hour,
                _TENX_SHARD_ROWS,
            ).result()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    entry = _entry(
        "sharded_stream_10x", "10x-paper",
        probe["wall_s"], probe["cpu_s"], tasks=int(probe["rows"]),
    )
    entry["peak_rss_kb"] = int(probe["peak_rss_kb"])
    log(
        f"  sharded_stream_10x [10x-paper] {entry['wall_s']}s "
        f"tasks={entry['tasks_per_s']}/s shards={int(probe['shards'])} "
        f"rss={entry['peak_rss_kb']}kB"
    )
    return entry


def _lint_root() -> Path | None:
    """Repo root holding the lintable source tree, if we run from one.

    Walks up from this file looking for ``pyproject.toml`` with a
    ``[tool.reprolint]`` table; returns None under an installed wheel,
    where there is no tree to lint and the bench entry is skipped.
    """
    for parent in Path(__file__).resolve().parents:
        marker = parent / "pyproject.toml"
        if marker.is_file() and "[tool.reprolint]" in marker.read_text():
            return parent
    return None


def _bench_reprolint(log: Callable[[str], None]) -> list[dict[str, object]]:
    """Cold and warm-cache lint of the repo's own src tree.

    The warm entry's speedup (cold wall over warm wall) tracks the
    incremental cache's payoff: a warm run re-analyzes nothing, so the
    ratio collapsing toward 1x means invalidation broke.
    """
    root = _lint_root()
    if root is None:
        log("  reprolint: no source tree found, skipped")
        return []
    # The analysis layer sits above experiments by design; the bench
    # harness measures every subsystem, so this one import crosses up.
    from ..analysis.engine import lint_paths  # reprolint: disable=REP301

    cache_dir = Path(tempfile.mkdtemp(prefix="reprolint-bench-"))
    try:
        run, cold_wall, cold_cpu = _timed(
            lambda: lint_paths(
                [root / "src"], root=root, cache_dir=cache_dir
            ),
            max_repeats=1,
        )
        warm_run, warm_wall, warm_cpu = _timed(
            lambda: lint_paths(
                [root / "src"], root=root, cache_dir=cache_dir
            ),
            max_repeats=1,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    entries = [
        _entry(
            "reprolint_cold", "repo", cold_wall, cold_cpu,
            tasks=run.files_checked,
        ),
        _entry(
            "reprolint_warm", "repo", warm_wall, warm_cpu,
            tasks=warm_run.files_checked,
            speedup=cold_wall / warm_wall,
        ),
    ]
    log(
        f"  reprolint [repo] cold={cold_wall:.2f}s warm={warm_wall:.2f}s "
        f"files={run.files_checked} warm_analyzed={warm_run.files_analyzed}"
    )
    return entries


def _bench_reprolint_effects(
    log: Callable[[str], None],
) -> list[dict[str, object]]:
    """Cold/warm lint restricted to the parallel-safety effect rules.

    Isolates what the effect fixpoint (worker reachability, boundary
    sites, ordered-sink flow) costs on top of parsing, and proves the
    filtered config keys its own warm cache (files_analyzed == 0 on
    the second run).
    """
    root = _lint_root()
    if root is None:
        log("  reprolint_effects: no source tree found, skipped")
        return []
    from ..analysis.engine import lint_paths  # reprolint: disable=REP301

    effect_rules = ("REP103", "REP203", "REP303")
    cache_dir = Path(tempfile.mkdtemp(prefix="reprolint-effects-bench-"))
    try:
        run, cold_wall, cold_cpu = _timed(
            lambda: lint_paths(
                [root / "src"], root=root, cache_dir=cache_dir,
                select=effect_rules,
            ),
            max_repeats=1,
        )
        warm_run, warm_wall, warm_cpu = _timed(
            lambda: lint_paths(
                [root / "src"], root=root, cache_dir=cache_dir,
                select=effect_rules,
            ),
            max_repeats=1,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    entries = [
        _entry(
            "reprolint_effects_cold", "repo", cold_wall, cold_cpu,
            tasks=run.files_checked,
        ),
        _entry(
            "reprolint_effects_warm", "repo", warm_wall, warm_cpu,
            tasks=warm_run.files_checked,
            speedup=cold_wall / warm_wall,
        ),
    ]
    log(
        f"  reprolint_effects [repo] cold={cold_wall:.2f}s "
        f"warm={warm_wall:.2f}s files={run.files_checked} "
        f"warm_analyzed={warm_run.files_analyzed}"
    )
    return entries


def _bench_reprolint_cfg(
    log: Callable[[str], None],
) -> list[dict[str, object]]:
    """Cold/warm lint restricted to the crash-consistency CFG rules.

    Isolates what the per-function abstract interpretation (path and
    handle lattices, exception-path tracking) plus the lifecycle-fact
    fixpoint costs, and proves the filtered config keys its own warm
    cache (files_analyzed == 0 on the second run).
    """
    root = _lint_root()
    if root is None:
        log("  reprolint_cfg: no source tree found, skipped")
        return []
    from ..analysis.engine import lint_paths  # reprolint: disable=REP301

    cfg_rules = ("REP801", "REP802", "REP803")
    cache_dir = Path(tempfile.mkdtemp(prefix="reprolint-cfg-bench-"))
    try:
        run, cold_wall, cold_cpu = _timed(
            lambda: lint_paths(
                [root / "src"], root=root, cache_dir=cache_dir,
                select=cfg_rules,
            ),
            max_repeats=1,
        )
        warm_run, warm_wall, warm_cpu = _timed(
            lambda: lint_paths(
                [root / "src"], root=root, cache_dir=cache_dir,
                select=cfg_rules,
            ),
            max_repeats=1,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    entries = [
        _entry(
            "reprolint_cfg_cold", "repo", cold_wall, cold_cpu,
            tasks=run.files_checked,
        ),
        _entry(
            "reprolint_cfg_warm", "repo", warm_wall, warm_cpu,
            tasks=warm_run.files_checked,
            speedup=cold_wall / warm_wall,
        ),
    ]
    log(
        f"  reprolint_cfg [repo] cold={cold_wall:.2f}s "
        f"warm={warm_wall:.2f}s files={run.files_checked} "
        f"warm_analyzed={warm_run.files_analyzed}"
    )
    return entries


def _bench_experiments(
    scale: str, seed: int, log: Callable[[str], None]
) -> list[dict[str, object]]:
    entries = []
    for exp_id, fn in EXPERIMENTS.items():
        _, wall, cpu = _timed(lambda: fn(scale=scale, seed=seed))
        entries.append(_entry(f"exp:{exp_id}", scale, wall, cpu))
        log(f"  exp:{exp_id} [{scale}] {wall:.2f}s")
    return entries


def run_benchmarks(
    scales: Sequence[str],
    seed: int = 0,
    *,
    experiments: bool = True,
    only: Sequence[str] | None = None,
    log: Callable[[str], None] = lambda _msg: None,
) -> list[dict[str, object]]:
    """All benchmark entries for the requested scales, in order.

    ``only`` restricts the run to the named benchmark families (entry
    ``name`` values) — e.g. ``only=("sim_drain",)`` adds the paper
    scale for the simulator without dragging in the 25M-task pipeline
    benchmarks. None (the default) runs everything.
    """

    def want(name: str) -> bool:
        return only is None or name in only

    entries: list[dict[str, object]] = []
    for scale in scales:
        if scale not in _KERNEL_GRIDS:
            raise KeyError(
                f"unknown scale {scale!r}; available: {sorted(_KERNEL_GRIDS)}"
            )
        kernel_family = (
            "series_extraction",
            "run_length_segmentation",
            "mass_count_accumulation",
        )
        if any(want(name) for name in kernel_family):
            entry, shared = _bench_series_extraction(scale, seed)
            if want("series_extraction"):
                entries.append(entry)
                log(f"  series_extraction [{scale}] {entry['wall_s']}s "
                    f"speedup={entry['speedup']}")
            if want("run_length_segmentation"):
                entry = _bench_run_length(scale, seed, shared["series"])
                entries.append(entry)
                log(f"  run_length_segmentation [{scale}] {entry['wall_s']}s "
                    f"speedup={entry['speedup']}")
            if want("mass_count_accumulation"):
                entries.append(_bench_mass_count(scale, seed, shared["series"]))
            del shared
        if want("sim_drain"):
            entry = _bench_sim_drain(scale, seed)
            entries.append(entry)
            log(f"  sim_drain [{scale}] {entry['wall_s']}s "
                f"tasks={entry['tasks_per_s']}/s speedup={entry['speedup']}")
        if want("chunked_generation"):
            entries.append(_bench_chunked_generation(scale, seed))
        if want("hostload_pipeline"):
            entry = _bench_hostload_pipeline(scale, seed)
            entries.append(entry)
            log(f"  hostload_pipeline [{scale}] {entry['wall_s']}s "
                f"tasks={entry['tasks_per_s']}/s rss={entry['peak_rss_kb']}kB")
        if want("sharded_ecdf") or want("sharded_masscount"):
            entries.extend(
                e for e in _bench_sharded_reduce(scale, seed, log)
                if want(e["name"])
            )
        if scale == "paper" and want("sharded_stream_10x"):
            entries.append(_bench_sharded_stream_10x(seed, log))
        if experiments and scale in SCALES and only is None:
            entries.extend(_bench_experiments(scale, seed, log))
    if only is None:
        entries.extend(_bench_reprolint(log))
        entries.extend(_bench_reprolint_effects(log))
        entries.extend(_bench_reprolint_cfg(log))
    return entries


# -- snapshots and regression diffs -------------------------------------------


def _snapshot_number(path: Path) -> int | None:
    match = SNAPSHOT_PATTERN.search(path.name)
    return int(match.group(1)) if match else None


def existing_snapshots(out_dir: Path) -> list[Path]:
    """BENCH_<n>.json files in ascending n order."""
    found = [
        p for p in out_dir.glob("BENCH_*.json")
        if _snapshot_number(p) is not None
    ]
    return sorted(found, key=_snapshot_number)


def next_snapshot_path(out_dir: Path) -> Path:
    snapshots = existing_snapshots(out_dir)
    n = _snapshot_number(snapshots[-1]) + 1 if snapshots else 3
    return out_dir / f"BENCH_{n}.json"


def compare_snapshots(
    baseline: dict, current: dict, *, check_wall: bool = False
) -> list[str]:
    """Regression messages (empty = clean) between two snapshots."""
    old = {(e["name"], e["scale"]): e for e in baseline["entries"]}
    problems = []
    for entry in current["entries"]:
        key = (entry["name"], entry["scale"])
        base = old.get(key)
        if base is None:
            continue
        new_speed, old_speed = entry.get("speedup"), base.get("speedup")
        if new_speed is not None and old_speed is not None:
            if (
                old_speed >= SPEEDUP_CHECK_MIN
                and new_speed < SPEEDUP_RETENTION * old_speed
                and new_speed < SPEEDUP_GRACE_FLOOR
            ):
                problems.append(
                    f"{key[0]} [{key[1]}]: speedup {old_speed:.1f}x -> "
                    f"{new_speed:.1f}x (below {SPEEDUP_RETENTION:.0%} of "
                    f"baseline and the {SPEEDUP_GRACE_FLOOR:g}x floor)"
                )
        if check_wall and base.get("wall_s"):
            ratio = entry["wall_s"] / base["wall_s"]
            if ratio > WALL_TOLERANCE:
                problems.append(
                    f"{key[0]} [{key[1]}]: wall {base['wall_s']:.3f}s -> "
                    f"{entry['wall_s']:.3f}s ({ratio:.2f}x, tolerance "
                    f"{WALL_TOLERANCE:g}x)"
                )
    return problems


# -- CLI ----------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Benchmark the vectorized kernels and registered experiments; "
            "write a BENCH_<n>.json snapshot and diff it against the "
            "previous one."
        ),
    )
    parser.add_argument(
        "--scale",
        action="append",
        choices=sorted(_KERNEL_GRIDS),
        default=None,
        help="scale(s) to benchmark, repeatable (default: small medium)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--out",
        metavar="DIR",
        default="benchmarks",
        help="snapshot directory (default: benchmarks)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="snapshot to diff against (default: newest BENCH_*.json in --out)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when a speedup regresses vs the baseline",
    )
    parser.add_argument(
        "--check-wall",
        action="store_true",
        help=(
            "also compare raw wall times vs the baseline (same-machine "
            "runs only); implies --check"
        ),
    )
    parser.add_argument(
        "--skip-experiments",
        action="store_true",
        help="benchmark only the kernels, not the registered experiments",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        default=None,
        help=(
            "run only the named benchmark families (repeatable), e.g. "
            "--only sim_drain; skips experiments and lint benchmarks"
        ),
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="run and diff without writing a new snapshot",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    scales = args.scale or ["small", "medium"]
    out_dir = Path(args.out)

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    log(f"repro-bench: scales={scales} seed={args.seed}")
    entries = run_benchmarks(
        scales,
        args.seed,
        experiments=not args.skip_experiments,
        only=args.only,
        log=log,
    )
    snapshot = {
        "version": 1,
        "seed": args.seed,
        "scales": list(scales),
        "entries": entries,
    }

    baseline_path: Path | None = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        snapshots = existing_snapshots(out_dir)
        if snapshots:
            baseline_path = snapshots[-1]

    problems: list[str] = []
    if baseline_path is not None and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        problems = compare_snapshots(
            baseline, snapshot, check_wall=args.check_wall
        )
        log(f"baseline: {baseline_path}")
        if problems:
            for msg in problems:
                log(f"REGRESSION: {msg}")
        else:
            log("no regressions vs baseline")
    elif args.check or args.check_wall:
        log("no baseline snapshot found; nothing to check against")

    if not args.no_write:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = next_snapshot_path(out_dir)
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
        log(f"wrote {path}")

    for entry in entries:
        speed = entry["speedup"]
        rate = entry["tasks_per_s"]
        print(
            f"{entry['name']:28s} {entry['scale']:7s} "
            f"wall={entry['wall_s']:>10.3f}s "
            + (f"speedup={speed:>7.2f}x " if speed is not None else " " * 17)
            + (f"rate={rate:,.0f}/s" if rate is not None else "")
        )
    if (args.check or args.check_wall) and problems:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
