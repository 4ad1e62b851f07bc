"""Kernel benchmark: the library's vectorized kernels against their oracles.

Run from a checkout's root (the package installed or ``src`` on
``PYTHONPATH``)::

    python -m benchmarks.kernels --scale small --check

Times three vectorized kernels against the scalar golden references of
``tests/oracles.py`` at one or more dataset scales: per-machine series
extraction, run-length segmentation of usage levels, and the
simulator's drain (``ClusterSimulator.run``, on the C kernel when one
is built) against the scalar engine (``sim_drain``). Everything else is
timed end to end, each workload in a fresh process, by the
repository's ``bench/`` harness, not here. Results land in
``benchmarks/BENCH_<n>.json`` snapshots (``n`` auto-increments) and
each run diffs itself against the previous snapshot, flagging
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
(``getrusage``; monotone across entries). ``speedup`` is the median,
over interleaved pairs of calls, of the scalar oracle's wall over the
kernel's wall; null at scales that skip the oracle. ``wall_s`` is the
kernel's best wall, and ``tasks_per_s`` is rows (or tasks) processed
per kernel wall-second.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import re
import resource
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from repro.core.table import Table
from repro.core.timing import Timings
from repro.hostload.levels import pooled_level_durations
from repro.hostload.series import all_machine_series
from repro.sim.cluster import ClusterSimulator, SimConfig
from repro.sim.monitor import MACHINE_USAGE_SCHEMA
from repro.synth.google_model import GoogleConfig, generate_task_requests
from repro.synth.machines import generate_machines
from repro.synth.presets import DAY
from tests.oracles import (
    all_machine_series_scalar,
    pooled_level_durations_scalar,
    run_scalar,
)

__all__ = ["main", "run_benchmarks"]

SNAPSHOT_PATTERN = re.compile(r"BENCH_(\d+)\.json$")

#: Regression thresholds (see module docstring).
SPEEDUP_RETENTION = 0.8
SPEEDUP_GRACE_FLOOR = 5.0
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

#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc() -> None:
    """Fix glibc's malloc thresholds for the rest of the process.

    glibc raises its mmap threshold each time a large mmapped block is
    freed, and trims the heap past twice that threshold. So whether a
    kernel's temporaries arrive page-faulted from a fresh mmap or warm
    from the heap depends on what the process freed before: on a
    2-vCPU host, small-scale ``series_extraction`` read 4.6-5.2x as
    the first entry of a process and 3.3-5.2x after other entries had
    run. Pinned where glibc's own adjustment ends on 64-bit (a 32 MiB
    mmap threshold, trimming past 64 MiB), every entry is timed in one
    allocator state wherever it runs. Without ``mallopt`` this does
    nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


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
    budget_s: float = 2.0,
) -> tuple[object, object, float, float, float]:
    """Time a kernel and its oracle in interleaved pairs.

    Each pair calls both back to back, alternating which goes first,
    so host drift moves both sides of a pair alike and cancels in the
    pair's oracle-over-kernel wall ratio. Pairs repeat until both sides
    together have run ``budget_s`` (at least ``min_pairs``, at most
    ``max_pairs``). Returns (kernel result, oracle result, best kernel
    wall, that call's cpu, median per-pair ratio).

    The budget lets the millisecond kernels of the small scale run all
    ``max_pairs`` pairs (``series_extraction`` takes about 0.8 s for
    them on a 2-vCPU host), so one outlier pair cannot move the median
    that the speedup gate compares; slower entries stop once the
    budget is spent, after at least ``min_pairs``.
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
    """The entry, plus the extracted series run-length segmentation reads."""
    usage, machines = _synthetic_usage(scale, seed)
    speedup = None
    if scale in _SCALAR_SKIP_SCALES:
        series, wall, cpu = _timed(
            lambda: all_machine_series(usage, machines)
        )
    else:
        series, _, wall, cpu, speedup = _timed_pair(
            lambda: all_machine_series(usage, machines),
            lambda: all_machine_series_scalar(usage, machines),
        )
    entry = _entry(
        "series_extraction",
        scale,
        wall,
        cpu,
        tasks=len(usage),
        speedup=speedup,
    )
    return entry, series


def _bench_run_length(scale: str, seed: int, series: dict) -> dict[str, object]:
    speedup = None
    if scale in _SCALAR_SKIP_SCALES:
        _, wall, cpu = _timed(lambda: pooled_level_durations(series, "cpu"))
    else:
        _, _, wall, cpu, speedup = _timed_pair(
            lambda: pooled_level_durations(series, "cpu"),
            lambda: pooled_level_durations_scalar(series, "cpu"),
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


def _bench_sim_drain(scale: str, seed: int) -> dict[str, object]:
    """The simulator (compiled hot loop when available) vs the scalar engine.

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

    def simulator() -> ClusterSimulator:
        return ClusterSimulator(machines, SimConfig(), seed=seed + 2)

    speedup = None
    if scale in _SCALAR_SKIP_SCALES:
        result, wall, cpu = _timed(lambda: simulator().run(requests, horizon))
    else:
        result, scalar_result, wall, cpu, speedup = _timed_pair(
            lambda: simulator().run(requests, horizon),
            lambda: run_scalar(simulator(), requests, horizon),
        )
        if scalar_result.task_events != result.task_events:
            raise AssertionError(
                "sim_drain: the simulator diverged from the scalar golden run"
            )
    return _entry(
        "sim_drain",
        scale,
        wall,
        cpu,
        tasks=int(result.counts["scheduled"]),
        speedup=speedup,
    )


def run_benchmarks(
    scales: Sequence[str],
    seed: int = 0,
    *,
    log: Callable[[str], None] = lambda _msg: None,
) -> list[dict[str, object]]:
    """Every family's entry for each requested scale, in order.

    Pins the process's malloc thresholds first (:func:`_pin_malloc`).
    """
    _pin_malloc()
    entries: list[dict[str, object]] = []

    def add(entry: dict[str, object]) -> None:
        entries.append(entry)
        log(f"  {entry['name']} [{entry['scale']}] {entry['wall_s']}s "
            f"tasks={entry['tasks_per_s']}/s speedup={entry['speedup']}")

    for scale in scales:
        if scale not in _KERNEL_GRIDS:
            raise KeyError(
                f"unknown scale {scale!r}; available: {sorted(_KERNEL_GRIDS)}"
            )
        entry, series = _bench_series_extraction(scale, seed)
        add(entry)
        add(_bench_run_length(scale, seed, series))
        del series
        add(_bench_sim_drain(scale, seed))
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
                new_speed < SPEEDUP_RETENTION * old_speed
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
        prog="python -m benchmarks.kernels",
        description=(
            "Benchmark the vectorized kernels against their oracles; "
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

    log(f"benchmarks.kernels: scales={scales} seed={args.seed}")
    entries = run_benchmarks(scales, args.seed, log=log)
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
