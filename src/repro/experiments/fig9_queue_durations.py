"""Fig. 9 — mass-count of unchanged running-queue-state durations.

The running count is discretized into the paper's intervals ([0,9],
[10,19], [20,29], [30,39], [40,49], [50,...]) and the run lengths of
each interval are pooled over machines. The paper finds roughly a
10/90 joint ratio on the mid intervals, 15/85 on [40,49], and a much
smaller mm-distance on [40,49] (that state flips fastest).
"""

from __future__ import annotations

import numpy as np

from ..core.masscount import joint_ratio_label, mass_count
from ..core.segments import QUEUE_STATE_LEVELS, usage_level_labels
from ..hostload.queues import running_state_durations
from .base import ExperimentResult, ResultTable
from .datasets import fleet_series

__all__ = ["run"]


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    series = fleet_series(scale, seed)
    labels = usage_level_labels(QUEUE_STATE_LEVELS)

    pooled: dict[int, list[np.ndarray]] = {
        i: [] for i in range(len(QUEUE_STATE_LEVELS) - 1)
    }
    for s in series.values():
        per_machine = running_state_durations(s.n_running, s.times)
        for lvl, durations in per_machine.items():
            if durations.size:
                pooled[lvl].append(durations)

    rows = []
    joint_small_sides = {}
    mm_by_level = {}
    for lvl in sorted(pooled):
        chunks = pooled[lvl]
        label = labels[lvl]
        if not chunks:
            rows.append((label, 0, "-", "-", "-"))
            continue
        durations = np.concatenate(chunks)
        mc = mass_count(durations)
        joint_small_sides[lvl] = mc.joint_ratio[0]
        mm_by_level[lvl] = mc.mm_distance / 60.0
        rows.append(
            (
                label,
                int(durations.size),
                joint_ratio_label(mc),
                round(mc.mm_distance / 60.0, 1),
                round(float(durations.mean()) / 60.0, 1),
            )
        )

    observed = [v for v in joint_small_sides.values()]
    return ExperimentResult(
        experiment_id="fig9",
        title="Mass-count of unchanged queuing-state durations",
        tables=(
            ResultTable.build(
                "Fig. 9: per running-count interval",
                (
                    "interval",
                    "num_runs",
                    "joint_ratio",
                    "mmdist_min",
                    "avg_duration_min",
                ),
                rows,
            ),
        ),
        metrics={
            "intervals_with_data": len(observed),
            "joint_small_side_range": (
                round(min(observed), 1),
                round(max(observed), 1),
            )
            if observed
            else (0, 0),
            "skewed_everywhere": all(v < 50 for v in observed),
        },
        paper_reference={
            "joint_ratios": "11/89, 12/88, 13/87, 16/84 on the four shown intervals",
            "mm_distance_min": "972, 845, 820, 370",
            "finding": "~90% of constant-state periods are short (Pareto)",
        },
        notes=(
            "Unchanged-state durations are heavily skewed (many short runs, "
            "few long ones) in every interval, matching Fig. 9."
        ),
    )
