"""Extension 5 — common modes of host load.

The introduction's scheduling use case: "by characterizing common modes
of host load within a data center, a job scheduler can use this
information for task allocation". Clusters the simulated fleet into
load modes and reports each mode's signature (Fig. 10's narration —
light/heavy/alternating machines — made quantitative).
"""

from __future__ import annotations

import numpy as np

from ..hostload.modes import discover_modes
from .base import ExperimentResult, ResultTable
from .datasets import fleet_series

__all__ = ["run"]


def run(scale: str = "paper", seed: int = 0, k: int = 4) -> ExperimentResult:
    series = fleet_series(scale, seed)
    modes = discover_modes(series, k=k, seed=seed)

    rows = []
    for j, desc in enumerate(modes.describe()):
        rows.append(
            (
                j,
                desc["size"],
                round(desc["cpu_mean"], 3),
                round(desc["cpu_std"], 3),
                round(desc["mem_mean"], 3),
                round(desc["mem_std"], 3),
                round(desc["cpu_autocorr"], 2),
            )
        )

    sizes = modes.mode_sizes()
    cpu_means = modes.centroids_raw[:, 0]
    # Separation in standardized feature space: mean pairwise centroid
    # distance (> ~1 std means genuinely distinct behaviour groups).
    c = modes.centroids
    dists = [
        float(np.linalg.norm(c[i] - c[j]))
        for i in range(len(c))
        for j in range(i + 1, len(c))
    ]
    separation = float(np.mean(dists)) if dists else 0.0
    return ExperimentResult(
        experiment_id="ext5",
        title="Common modes of host load",
        tables=(
            ResultTable.build(
                f"k-means load modes (k={k}) over the fleet",
                (
                    "mode",
                    "machines",
                    "cpu_mean",
                    "cpu_std",
                    "mem_mean",
                    "mem_std",
                    "cpu_autocorr",
                ),
                rows,
            ),
        ),
        metrics={
            "num_modes": int(modes.num_modes),
            "largest_mode_share": round(
                float(sizes.max() / sizes.sum()), 3
            ),
            "mode_cpu_spread": round(
                float(cpu_means.max() - cpu_means.min()), 3
            ),
            "centroid_separation_std": round(separation, 2),
            "distinct_modes_found": bool(separation > 1.0),
        },
        paper_reference={
            "finding": (
                "machines split into light, heavy, alternating and "
                "irregular memory/CPU usage patterns (Sec. IV.B.2)"
            ),
        },
        notes="Modes differ mainly in mean level and volatility.",
    )
