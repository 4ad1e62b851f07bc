"""Fig. 10 — load-level snapshot of 50 machines: CPU vs memory, all vs
high-priority tasks.

Key shapes: CPUs are mostly in low usage levels outside the busy
days-21-25 stretch; memory sits in high levels throughout; restricting
to high-priority tasks drops the apparent load dramatically because
most usage comes from preemptible low-priority work.
"""

from __future__ import annotations

import numpy as np

from ..core.segments import usage_level_labels
from ..hostload.levels import level_snapshot
from ..hostload.priority import band_share
from .base import ExperimentResult, ResultTable
from .datasets import SCALES, fleet_series

__all__ = ["run"]

_PANELS = (
    ("cpu", "(a) CPU, all tasks"),
    ("cpu_high", "(b) CPU, high-priority tasks"),
    ("mem", "(c) MEM, all tasks"),
    ("mem_high", "(d) MEM, high-priority tasks"),
)


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    series = fleet_series(scale, seed)
    labels = usage_level_labels()

    rows = []
    occupancy: dict[str, np.ndarray] = {}
    for attribute, title in _PANELS:
        snap = level_snapshot(
            series, attribute=attribute, num_machines=50, seed=seed
        )
        occ = snap.level_occupancy()
        occupancy[attribute] = occ
        rows.append((title, *(round(float(v), 3) for v in occ)))

    shares = band_share(series, "cpu")

    metrics: dict[str, object] = {
        "cpu_low_levels_frac": round(
            float(occupancy["cpu"][:2].sum()), 3
        ),
        "mem_high_levels_frac": round(
            float(occupancy["mem"][2:].sum()), 3
        ),
        "high_priority_cpu_mostly_idle": float(
            occupancy["cpu_high"][0]
        )
        > 0.5,
        "cpu_share_low_band": round(shares["low"] / max(shares["total"], 1e-9), 3),
    }

    spec = SCALES[scale]
    if spec.busy_window is not None:
        start, end = spec.busy_window
        times = np.concatenate([s.times for s in series.values()])
        cpu = np.concatenate([s.cpu for s in series.values()])
        busy = (times >= start) & (times < end)
        metrics["busy_window_cpu_uplift"] = round(
            float(cpu[busy].mean() / max(cpu[~busy].mean(), 1e-12)), 2
        )

    return ExperimentResult(
        experiment_id="fig10",
        title="Snapshot of resource-usage load levels",
        tables=(
            ResultTable.build(
                "Fig. 10: fraction of (machine, sample) cells per level",
                ("panel", *labels),
                rows,
            ),
        ),
        metrics=metrics,
        paper_reference={
            "cpu": "machines mostly idle except days 21-25",
            "mem": "majority of machines at high memory levels",
            "high_priority": (
                "load from high-priority tasks is light; most CPU is "
                "consumed by low-priority tasks"
            ),
        },
        notes=(
            "CPU occupies the low levels and memory the high levels; "
            "high-priority-only views are much lighter, matching Fig. 10."
        ),
    )
