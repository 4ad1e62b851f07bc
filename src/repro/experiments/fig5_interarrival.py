"""Fig. 5 — CDF of the interval between consecutive job submissions.

Google submission intervals are far shorter than any Grid system's:
the Cloud receives a near-continuous job stream while Grids idle
between diurnal bursts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.ecdf import ecdf
from ..traces.convert import job_interarrival_times
from .base import ExperimentResult, ResultTable
from .datasets import fold_table, grid_system_names, workload_dataset

__all__ = ["run", "CDF_POINTS"]

#: Interarrival evaluation grid (seconds), the figure's x-axis.
CDF_POINTS = (5, 10, 30, 60, 120, 300, 600, 1000, 2000)


@dataclass
class _GapState:
    """Mergeable interarrival gaps over time-sorted submit shards.

    Each shard contributes its internal ``np.diff`` plus its first/last
    submit times; merging adjacent states inserts the one boundary gap
    ``other.first - self.last``. Because the jobs table is in submit
    order, concatenating the chunks in shard order is elementwise
    identical to ``np.diff`` over the full sorted column — so the ECDF,
    median, and mean are the same for any sharding, one shard included.
    """

    first: float
    last: float
    count: int
    chunks: list = field(default_factory=list)

    def merge(self, other: "_GapState") -> "_GapState":
        if other.first < self.last:
            raise ValueError("gap states must merge in time order")
        self.chunks.append(np.array([other.first - self.last]))
        self.chunks.extend(other.chunks)
        self.last = other.last
        self.count += other.count
        return self

    def gaps(self) -> np.ndarray:
        if self.count < 2:
            return np.empty(0)
        return np.concatenate(self.chunks) if self.chunks else np.empty(0)


def _shard_gaps(shard) -> _GapState:
    """Map kernel: interarrival gaps within one time-sorted shard."""
    submit = np.sort(np.asarray(shard["submit_time"], dtype=np.float64))
    return _GapState(
        first=float(submit[0]),
        last=float(submit[-1]),
        count=int(submit.size),
        chunks=[np.diff(submit)] if submit.size > 1 else [],
    )


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    data = workload_dataset(scale, seed)
    state = fold_table("google_jobs", scale, seed, _shard_gaps)
    intervals = {"Google": state.gaps() if state is not None else np.empty(0)}
    intervals.update(
        {n: job_interarrival_times(data.grid_jobs[n]) for n in grid_system_names()}
    )

    rows = []
    medians: dict[str, float] = {}
    means: dict[str, float] = {}
    for name, gaps in intervals.items():
        cdf = ecdf(gaps)
        medians[name] = float(np.median(gaps))
        means[name] = float(gaps.mean())
        rows.append((name, *(round(float(cdf(x)), 3) for x in CDF_POINTS)))

    grid_means = [v for k, v in means.items() if k != "Google"]
    return ExperimentResult(
        experiment_id="fig5",
        title="CDF of job submission intervals",
        tables=(
            ResultTable.build(
                "Fig. 5: P(interval <= x seconds)",
                ("system", *(f"<={x}s" for x in CDF_POINTS)),
                rows,
            ),
        ),
        metrics={
            "google_median_interval_s": round(medians["Google"], 2),
            "google_mean_interval_s": round(means["Google"], 2),
            "min_grid_mean_interval_s": round(min(grid_means), 1),
            "google_shortest_intervals": means["Google"] < min(grid_means),
        },
        paper_reference={
            "finding": (
                "Google's submission-interval CDF lies far left of every "
                "Grid system's (much higher submission frequency)"
            ),
        },
        notes=(
            "At 552 jobs/hour the median Google gap is a few seconds; Grid "
            "systems wait minutes to hours between submissions."
        ),
    )
