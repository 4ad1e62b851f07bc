"""Tables II & III — continuous duration of unchanged usage level.

CPU levels flip roughly every 6 minutes with joint ratios near 30/70
and mm-distances of 18-49 minutes; memory levels persist longer (~10
minutes average) with stronger skew (~20/80) and mm-distances up to
~350 minutes — CPU usage changes much more frequently than memory.
"""

from __future__ import annotations

import numpy as np

from ..hostload.levels import duration_stats_by_level, pooled_level_durations
from .base import ExperimentResult, ResultTable
from .datasets import fleet_series

__all__ = ["run_cpu", "run_mem"]


def _table_for(attribute: str, series) -> tuple[ResultTable, dict[str, object]]:
    pooled = pooled_level_durations(series, attribute)
    stats = duration_stats_by_level(pooled)
    rows = []
    for s in stats:
        rows.append(
            (
                s.interval,
                s.count,
                round(s.avg_minutes, 1),
                round(s.max_minutes, 0),
                f"{s.joint_ratio[0]:.0f}/{s.joint_ratio[1]:.0f}",
                round(s.mm_distance_minutes, 1),
            )
        )
    # Rarely-visited levels give degenerate joint ratios (a handful of
    # near-identical durations); summarize the well-populated ones.
    total_runs = sum(s.count for s in stats)
    threshold = max(50, int(0.02 * total_runs))
    populated = [s for s in stats if s.count >= threshold]
    avg_all = (
        float(
            np.average(
                [s.avg_minutes for s in populated],
                weights=[s.count for s in populated],
            )
        )
        if populated
        else 0.0
    )
    metrics = {
        f"{attribute}_weighted_avg_duration_min": round(avg_all, 1),
        f"{attribute}_joint_small_sides": tuple(
            round(s.joint_ratio[0], 0) for s in populated
        ),
    }
    table = ResultTable.build(
        f"unchanged {attribute.upper()} usage level durations",
        ("interval", "count", "avg_min", "max_min", "joint_ratio", "mmdist_min"),
        rows,
    )
    return table, metrics


def run_cpu(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    """Table II (CPU)."""
    table, metrics = _table_for("cpu", fleet_series(scale, seed))
    return ExperimentResult(
        experiment_id="tab2",
        title="Continuous duration of unchanged CPU usage level",
        tables=(table,),
        metrics=metrics,
        paper_reference={
            "avg_minutes": "5-6 across all levels",
            "joint_ratios": "26/74 .. 30/70",
            "mm_distance_min": "18-49",
        },
        notes="CPU levels change within minutes — the volatile resource.",
    )


def run_mem(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    """Table III (memory)."""
    table, metrics = _table_for("mem", fleet_series(scale, seed))
    return ExperimentResult(
        experiment_id="tab3",
        title="Continuous duration of unchanged memory usage level",
        tables=(table,),
        metrics=metrics,
        paper_reference={
            "avg_minutes": "6-10 across levels",
            "joint_ratios": "18/82 .. 26/74",
            "mm_distance_min": "63-351",
        },
        notes="Memory levels persist longer than CPU levels.",
    )


def matched_level_comparison(series) -> bool:
    """True when CPU levels flip faster than memory levels.

    Compared per usage level (both attributes populated with >= 10
    runs): the majority of matched levels must show a shorter average
    CPU duration. A level-matched comparison avoids the bias where one
    attribute sits deep inside a level and rarely crosses a boundary.
    """
    cpu_stats = duration_stats_by_level(pooled_level_durations(series, "cpu"))
    mem_stats = duration_stats_by_level(pooled_level_durations(series, "mem"))
    wins = ties = 0
    for c, m in zip(cpu_stats, mem_stats):
        if c.count >= 10 and m.count >= 10:
            ties += 1
            if c.avg_minutes < m.avg_minutes:
                wins += 1
    return ties > 0 and wins * 2 > ties
