"""Fig. 11 — mass-count disparity of relative CPU usage.

Paper: joint ratio ~40/60 with mm-distance ~13% (all priorities) and
~38/62 / ~13% (high priority only); cluster CPU load ~35% overall,
~20% for high-priority tasks — a fairly uniform usage distribution.
"""

from __future__ import annotations

import numpy as np

from ..hostload.levels import usage_mass_count
from ..hostload.priority import band_usage
from .base import ExperimentResult, ResultTable
from .datasets import fleet_series

__all__ = ["run"]


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    series = fleet_series(scale, seed)

    mc_all = usage_mass_count(series, "cpu")
    mc_high = usage_mass_count(series, "cpu_high")

    mean_all = float(
        np.mean([band_usage(s, "cpu", "all").mean() for s in series.values()])
    )
    mean_high = float(
        np.mean([band_usage(s, "cpu", "high").mean() for s in series.values()])
    )

    rows = [
        (
            "all priorities",
            f"{mc_all.joint_ratio[0]:.0f}/{mc_all.joint_ratio[1]:.0f}",
            round(100 * mc_all.mm_distance_relative(1.0), 1),
            round(100 * mean_all, 1),
        ),
        (
            "high priority",
            f"{mc_high.joint_ratio[0]:.0f}/{mc_high.joint_ratio[1]:.0f}",
            round(100 * mc_high.mm_distance_relative(1.0), 1),
            round(100 * mean_high, 1),
        ),
    ]
    return ExperimentResult(
        experiment_id="fig11",
        title="Mass-count disparity of CPU usage",
        tables=(
            ResultTable.build(
                "Fig. 11: CPU usage mass-count",
                ("tasks", "joint_ratio", "mmdist_%", "mean_usage_%"),
                rows,
            ),
        ),
        metrics={
            "all_joint_small_side": round(mc_all.joint_ratio[0], 1),
            "high_joint_small_side": round(mc_high.joint_ratio[0], 1),
            "mean_cpu_usage_pct": round(100 * mean_all, 1),
            "mean_cpu_usage_high_pct": round(100 * mean_high, 1),
            "high_band_uses_less": mean_high < mean_all,
            "near_uniform": mc_all.joint_ratio[0] > 30,
        },
        paper_reference={
            "all": "joint ratio 40/60, mmdist 13%, load ~35%",
            "high": "joint ratio 38/62, mmdist 13%, load ~20%",
        },
        notes=(
            "CPU usage is fairly uniform (large joint ratio, small "
            "mm-distance), and high-priority load is well below total load."
        ),
    )
