"""Sec. VI in-text task-length statistics.

Paper: ~55% of Google tasks finish within 10 minutes, ~90% within one
hour, ~94% within 3 hours; mean 5.6 h, max 29 days. AuverGrid: mean
7.2 h, max 18 days, ~70% under 12 hours — Cloud tasks are mostly
shorter, yet the longest Cloud tasks are longer than the longest Grid
tasks.
"""

from __future__ import annotations

import numpy as np

from ..core.summary import fraction_below
from ..synth.presets import DAY, HOUR
from .base import ExperimentResult, ResultTable
from .datasets import fold_table, workload_dataset
from .fig4_masscount_length import collect_durations

__all__ = ["run"]


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    data = workload_dataset(scale, seed)
    google = fold_table(
        "task_durations", scale, seed, collect_durations
    ).merged()
    ag = np.asarray(data.grid_jobs_native["AuverGrid"]["run_time"])

    rows = [
        (
            "Google",
            round(float(google.mean()) / HOUR, 2),
            round(float(google.max()) / DAY, 1),
            round(fraction_below(google, 600), 3),
            round(fraction_below(google, HOUR), 3),
            round(fraction_below(google, 3 * HOUR), 3),
            round(fraction_below(google, 12 * HOUR), 3),
        ),
        (
            "AuverGrid",
            round(float(ag.mean()) / HOUR, 2),
            round(float(ag.max()) / DAY, 1),
            round(fraction_below(ag, 600), 3),
            round(fraction_below(ag, HOUR), 3),
            round(fraction_below(ag, 3 * HOUR), 3),
            round(fraction_below(ag, 12 * HOUR), 3),
        ),
    ]
    return ExperimentResult(
        experiment_id="txt2",
        title="Task-length statistics, Google vs AuverGrid",
        tables=(
            ResultTable.build(
                "task execution time statistics",
                ("system", "mean_h", "max_d", "<10min", "<1h", "<3h", "<12h"),
                rows,
            ),
        ),
        metrics={
            "google_frac_under_10min": round(fraction_below(google, 600), 3),
            "google_frac_under_1h": round(fraction_below(google, HOUR), 3),
            "google_frac_under_3h": round(fraction_below(google, 3 * HOUR), 3),
            "google_mean_hours": round(float(google.mean()) / HOUR, 2),
            "google_max_days": round(float(google.max()) / DAY, 1),
            "auvergrid_mean_hours": round(float(ag.mean()) / HOUR, 2),
            "auvergrid_max_days": round(float(ag.max()) / DAY, 1),
            "cloud_tasks_mostly_shorter": fraction_below(google, HOUR)
            > fraction_below(ag, HOUR),
            "cloud_max_longer": float(google.max()) > float(ag.max()),
        },
        paper_reference={
            "google": "55% <10 min, 90% <1 h, 94% <3 h; mean 5.6 h, max 29 d",
            "auvergrid": "70% <12 h; mean 7.2 h, max 18 d",
        },
        notes=(
            "Cloud tasks are mostly shorter while the extreme Cloud tasks "
            "(long-running services) exceed the longest Grid tasks."
        ),
    )
