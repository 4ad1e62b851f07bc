"""Fig. 2 — number of jobs and tasks per priority (1..12).

The paper's histogram clusters into three bands: low (1-4) holds the
bulk of jobs, middle (5-8) a moderate share led by priority 6, and a
visible spike of high-priority (9) production services.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.ecdf import histogram_counts
from ..traces.schema import priority_band_array
from .base import ExperimentResult, ResultTable
from .datasets import fold_table

__all__ = ["run"]

#: The figure's x-axis: Google priorities 1..12.
_PRIORITIES = np.arange(1, 13)


@dataclass
class _PriorityCounts:
    """Mergeable Fig. 2 state: pure integer counts, exact under sums."""

    job_counts: np.ndarray  # int64 per priority 1..12
    task_counts: np.ndarray  # int64 per priority 1..12
    band_counts: np.ndarray  # int64 per band (low, middle, high)
    total_jobs: int
    total_tasks: int

    def merge(self, other: "_PriorityCounts") -> "_PriorityCounts":
        self.job_counts = self.job_counts + other.job_counts
        self.task_counts = self.task_counts + other.task_counts
        self.band_counts = self.band_counts + other.band_counts
        self.total_jobs += other.total_jobs
        self.total_tasks += other.total_tasks
        return self


def _collect_priorities(shard) -> _PriorityCounts:
    """Map kernel: one shard's priority/task histogram.

    Integer count sums merge exactly in any grouping, so the histogram
    is the same for one shard or many.
    """
    priorities = np.asarray(shard["priority"])
    num_tasks = np.asarray(shard["num_tasks"])
    job_counts = histogram_counts(priorities, _PRIORITIES)
    # Task counts weight each job by its task fan-out.
    task_counts = np.array(
        [int(num_tasks[priorities == p].sum()) for p in _PRIORITIES],
        dtype=np.int64,
    )
    bands = priority_band_array(priorities)
    band_counts = np.array(
        [int(np.count_nonzero(bands == b)) for b in (0, 1, 2)], dtype=np.int64
    )
    return _PriorityCounts(
        job_counts=job_counts,
        task_counts=task_counts,
        band_counts=band_counts,
        total_jobs=int(priorities.size),
        total_tasks=int(num_tasks.sum()),
    )


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    counts = fold_table("google_jobs", scale, seed, _collect_priorities)
    job_counts = counts.job_counts
    band_fracs = {
        "low(1-4)": float(int(counts.band_counts[0]) / counts.total_jobs),
        "middle(5-8)": float(int(counts.band_counts[1]) / counts.total_jobs),
        "high(9-12)": float(int(counts.band_counts[2]) / counts.total_jobs),
    }

    rows = [
        (int(p), int(jc), int(tc))
        for p, jc, tc in zip(_PRIORITIES, job_counts, counts.task_counts)
    ]
    return ExperimentResult(
        experiment_id="fig2",
        title="Jobs and tasks per priority",
        tables=(
            ResultTable.build(
                "Fig. 2: counts per priority",
                ("priority", "num_jobs", "num_tasks"),
                rows,
            ),
        ),
        metrics={
            "total_jobs": counts.total_jobs,
            "total_tasks": counts.total_tasks,
            **{f"job_frac_{k}": round(v, 3) for k, v in band_fracs.items()},
            "modal_priority": int(_PRIORITIES[np.argmax(job_counts)]),
        },
        paper_reference={
            "total_jobs": "~670,000",
            "total_tasks": ">25 million",
            "labeled_bars_x1e4": "p1=16, p2=11.3, p3=17, p4=13, p5=0.9, p6=4, p9=4.7",
            "finding": "most jobs/tasks sit at low priorities (1-5)",
        },
        notes=(
            "Priorities cluster into low/middle/high exactly as the paper's "
            "three groups; counts scale with the generated horizon."
        ),
    )
