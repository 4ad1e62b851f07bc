"""Usage-level analyses: snapshots and unchanged-level durations.

Covers Fig. 10 (load-level snapshot of sampled machines over time) and
Tables II-III (statistics of how long CPU/memory stay in the same
one-fifth usage level), plus the usage-sample pools behind the
mass-count disparity of Figs. 11-12. Durations are segmented for all
machines in one run-length pass (:mod:`repro.core.kernels`); the
machine-at-a-time loop it replaced is the tests' golden reference
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import kernels
from ..core.masscount import MassCount, mass_count
from ..core.segments import DEFAULT_USAGE_LEVELS, discretize
from .series import MachineLoadSeries

__all__ = [
    "LevelSnapshot",
    "level_snapshot",
    "LevelDurationStats",
    "duration_stats_by_level",
    "pooled_level_durations",
    "usage_mass_count",
]


@dataclass(frozen=True)
class LevelSnapshot:
    """Discretized load levels of several machines over time (Fig. 10)."""

    machine_ids: np.ndarray
    times: np.ndarray
    levels: np.ndarray  # shape (num_machines, num_times), int level codes
    edges: np.ndarray

    @property
    def num_machines(self) -> int:
        return len(self.machine_ids)

    def level_occupancy(self) -> np.ndarray:
        """Fraction of (machine, time) cells per level."""
        n_levels = len(self.edges) - 1
        counts = np.bincount(self.levels.ravel(), minlength=n_levels)
        return counts / self.levels.size


def level_snapshot(
    series: dict[int, MachineLoadSeries],
    attribute: str = "cpu",
    num_machines: int = 50,
    edges: np.ndarray = DEFAULT_USAGE_LEVELS,
    seed: int = 0,
) -> LevelSnapshot:
    """Discretized relative-usage matrix for randomly sampled machines."""
    if not series:
        raise ValueError("series is empty")
    rng = np.random.default_rng(seed)
    ids = np.asarray(sorted(series))
    if num_machines < len(ids):
        ids = np.sort(rng.choice(ids, size=num_machines, replace=False))
    rows = []
    times = None
    for mid in ids:
        s = series[int(mid)]
        if times is None:
            times = s.times
        elif len(s.times) != len(times):
            raise ValueError("machines have unequal sample counts")
        rows.append(discretize(s.relative(attribute), edges))
    return LevelSnapshot(
        machine_ids=ids,
        times=np.asarray(times),
        levels=np.vstack(rows),
        edges=np.asarray(edges),
    )


@dataclass(frozen=True)
class LevelDurationStats:
    """Tables II/III row: statistics of unchanged-level durations."""

    level: int
    interval: str
    count: int
    avg_minutes: float
    max_minutes: float
    joint_ratio: tuple[float, float]
    mm_distance_minutes: float


def pooled_level_durations(
    series: dict[int, MachineLoadSeries],
    attribute: str = "cpu",
    edges: np.ndarray = DEFAULT_USAGE_LEVELS,
) -> dict[int, np.ndarray]:
    """Unchanged-level durations pooled over all machines.

    Runs the one-pass run-length kernel over all machines' concatenated
    series — bit-identical to segmenting one machine at a time with
    :func:`repro.core.segments.level_durations`, the scalar loop that
    ``tests/oracles.py`` keeps as the golden reference.
    """
    n_levels = len(np.asarray(edges)) - 1
    if not series:
        return {lvl: np.empty(0) for lvl in range(n_levels)}
    pool = list(series.values())
    times = np.concatenate([s.times for s in pool])
    lengths = np.asarray([len(s) for s in pool], dtype=np.int64)
    # One pooled divide-and-clip instead of a relative() call per
    # machine; dividing each element by its own machine's scalar
    # capacity is the identical float64 operation either way.
    caps = np.repeat(
        np.asarray([s.capacity_for(attribute) for s in pool]), lengths
    )
    values = np.clip(
        np.concatenate([s.absolute(attribute) for s in pool]) / caps, 0.0, 1.0
    )
    return kernels.pooled_level_durations(times, values, lengths, edges)


def duration_stats_by_level(
    pooled: dict[int, np.ndarray],
    edges: np.ndarray = DEFAULT_USAGE_LEVELS,
) -> list[LevelDurationStats]:
    """Summarize pooled durations into Tables II/III rows."""
    edges = np.asarray(edges)
    rows = []
    for lvl, durations in sorted(pooled.items()):
        interval = f"[{edges[lvl]:g},{edges[lvl + 1]:g}]"
        if durations.size == 0:
            rows.append(
                LevelDurationStats(lvl, interval, 0, 0.0, 0.0, (0.0, 0.0), 0.0)
            )
            continue
        mc = mass_count(durations)
        rows.append(
            LevelDurationStats(
                level=lvl,
                interval=interval,
                count=int(durations.size),
                avg_minutes=float(durations.mean() / 60.0),
                max_minutes=float(durations.max() / 60.0),
                joint_ratio=mc.joint_ratio,
                mm_distance_minutes=mc.mm_distance / 60.0,
            )
        )
    return rows


def usage_mass_count(
    series: dict[int, MachineLoadSeries], attribute: str = "cpu"
) -> MassCount:
    """Mass-count disparity of pooled relative usage (Figs. 11-12).

    Zero samples carry no mass and are dropped (mass-count requires a
    positive total; an all-idle pool raises).
    """
    pool = np.concatenate([s.relative(attribute) for s in series.values()])
    pool = pool[pool > 0]
    if pool.size == 0:
        raise ValueError("all usage samples are zero")
    return mass_count(pool)
