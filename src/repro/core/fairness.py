"""Submission-rate statistics and Jain's fairness index (Table I).

The paper evaluates how bursty job submission is by counting jobs per
hour and summarizing the hourly counts with min/mean/max plus Jain's
fairness index (Eq. (3)): ``f(x) = (sum x_i)^2 / (n * sum x_i^2)``.
A fairness of 1 means perfectly even hourly rates; strongly diurnal
Grid workloads score near 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "jain_fairness",
    "hourly_counts",
    "HourlyCountsAccumulator",
    "SubmissionRateStats",
    "submission_rate_stats",
]

HOUR = 3600.0


def jain_fairness(x: np.ndarray) -> float:
    """Jain's fairness index of a non-negative sample (Eq. (3))."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("input must be non-empty")
    if np.any(x < 0):
        raise ValueError("fairness index requires non-negative values")
    peak = x.max()
    if peak == 0:
        return 1.0  # all-zero allocation is trivially even
    # The index is scale-free, so divide by the peak first: the squares
    # of a tiny sample would otherwise underflow and push the index
    # outside [1/n, 1].
    x = x / peak
    return float(np.sum(x) ** 2 / (x.size * np.sum(x * x)))


def hourly_counts(submit_times: np.ndarray, horizon: float | None = None) -> np.ndarray:
    """Number of submissions in each wall-clock hour of the trace."""
    submit_times = np.asarray(submit_times, dtype=np.float64)
    if submit_times.size == 0:
        raise ValueError("submit_times must be non-empty")
    if np.any(submit_times < 0):
        raise ValueError("submission times must be non-negative")
    end = float(horizon) if horizon is not None else float(submit_times.max())
    n_hours = max(int(np.ceil(end / HOUR)), 1)
    bins = np.floor(submit_times / HOUR).astype(np.int64)
    bins = np.minimum(bins, n_hours - 1)  # a submit exactly at the horizon
    return np.bincount(bins, minlength=n_hours).astype(np.int64)


class HourlyCountsAccumulator:
    """Mergeable hourly submission counts over a fixed horizon.

    Streaming counterpart of :func:`hourly_counts` with an explicit
    horizon: each chunk contributes an ``int64`` partial bincount over
    the same fixed number of hour bins, and integer addition makes the
    merged counts exactly equal to the batch counts for any chunking
    and any merge grouping. Derived statistics (Table I via
    :func:`submission_rate_stats`, Jain fairness) are then computed
    from an identical counts array.
    """

    def __init__(self, horizon: float) -> None:
        end = float(horizon)
        if not end > 0:
            raise ValueError("horizon must be positive")
        self._n_hours = max(int(np.ceil(end / HOUR)), 1)
        self._counts = np.zeros(self._n_hours, dtype=np.int64)
        self._n_values = 0

    def add(self, submit_times: np.ndarray) -> None:
        """Fold one chunk of submission times into the counts."""
        submit_times = np.asarray(submit_times, dtype=np.float64)
        if submit_times.size == 0:
            return
        if np.any(submit_times < 0):
            raise ValueError("submission times must be non-negative")
        bins = np.floor(submit_times / HOUR).astype(np.int64)
        bins = np.minimum(bins, self._n_hours - 1)
        self._counts += np.bincount(bins, minlength=self._n_hours)
        self._n_values += submit_times.size

    def merge(self, other: "HourlyCountsAccumulator") -> "HourlyCountsAccumulator":
        """Add another accumulator's counts (same horizon required)."""
        if other._n_hours != self._n_hours:
            raise ValueError("cannot merge accumulators with different horizons")
        self._counts += other._counts
        self._n_values += other._n_values
        return self

    @property
    def n_values(self) -> int:
        return self._n_values

    def counts(self) -> np.ndarray:
        """The hourly counts array (matches :func:`hourly_counts`)."""
        if self._n_values == 0:
            raise ValueError("submit_times must be non-empty")
        return self._counts.copy()

    def finalize(self) -> "SubmissionRateStats":
        """Table I row for everything added so far."""
        counts = self.counts()
        return SubmissionRateStats(
            max_per_hour=int(counts.max()),
            avg_per_hour=float(counts.mean()),
            min_per_hour=int(counts.min()),
            fairness=jain_fairness(counts),
        )


@dataclass(frozen=True)
class SubmissionRateStats:
    """Row of Table I: per-hour submission-rate summary for one system."""

    max_per_hour: int
    avg_per_hour: float
    min_per_hour: int
    fairness: float


def submission_rate_stats(
    submit_times: np.ndarray, horizon: float | None = None
) -> SubmissionRateStats:
    """Compute the Table I row for a stream of submission times."""
    counts = hourly_counts(submit_times, horizon)
    return SubmissionRateStats(
        max_per_hour=int(counts.max()),
        avg_per_hour=float(counts.mean()),
        min_per_hour=int(counts.min()),
        fairness=jain_fairness(counts),
    )
