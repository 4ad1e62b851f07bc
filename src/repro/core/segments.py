"""Run-length segmentation of discretized time series.

Section IV of the paper repeatedly asks: *for how long does a machine
stay in the same state?* — where "state" is either the running-queue
interval ([0,9], [10,19], ...; Fig. 9) or a usage-level bucket ([0,0.2),
[0.2,0.4), ...; Tables II-III). This module discretizes a sampled
series into levels and extracts the maximal constant-level segments
with their durations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Segments",
    "discretize",
    "constant_segments",
    "level_durations",
    "DEFAULT_USAGE_LEVELS",
    "QUEUE_STATE_LEVELS",
    "usage_level_labels",
]

#: The paper's five equal usage intervals: [0,0.2), ..., [0.8,1].
DEFAULT_USAGE_LEVELS = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

#: The paper's running-queue intervals: [0,9], [10,19], ..., [50,inf).
QUEUE_STATE_LEVELS = np.array([0.0, 10.0, 20.0, 30.0, 40.0, 50.0, np.inf])


def usage_level_labels(edges: np.ndarray = DEFAULT_USAGE_LEVELS) -> list[str]:
    """One label like ``'[0,0.2)'`` per level (``len(edges) - 1`` total)."""
    edges = np.asarray(edges, dtype=np.float64)
    labels = []
    for i in range(len(edges) - 1):
        hi = edges[i + 1]
        if np.isinf(hi):
            labels.append(f"[{edges[i]:g},inf)")
        else:
            labels.append(f"[{edges[i]:g},{hi:g})")
    return labels


def discretize(values: np.ndarray, edges: np.ndarray = DEFAULT_USAGE_LEVELS) -> np.ndarray:
    """Map values to level indices given ascending interval edges.

    Level ``i`` covers ``[edges[i], edges[i+1])``; values at or above
    the last edge map to the final level, values below ``edges[0]``
    raise. With the default edges, a value of exactly 1.0 falls in the
    top level ``[0.8, 1]``, matching the paper's closed last interval.
    """
    values = np.asarray(values, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be 1-D, ascending, with >= 2 entries")
    if values.size and values.min() < edges[0]:
        raise ValueError("values below the first edge")
    if edges.size <= 8 and values.size > edges.size:
        # Few edges (the usual five usage levels): summing comparisons
        # beats a binary search per element. Produces the identical
        # level code: the count of interior edges at or below a value
        # equals searchsorted(side="right") - 1 on ascending edges.
        idx = np.zeros(values.shape, dtype=np.int64)
        for edge in edges[1:-1]:
            idx += values >= edge
        return np.minimum(idx, len(edges) - 2)
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.minimum(idx, len(edges) - 2).astype(np.int64)


@dataclass(frozen=True)
class Segments:
    """Maximal constant-level runs of a discretized series.

    Attributes
    ----------
    levels:
        Level index of each run.
    durations:
        Duration of each run (same units as the input timestamps).
    start_times:
        Start timestamp of each run.
    """

    levels: np.ndarray
    durations: np.ndarray
    start_times: np.ndarray

    def __len__(self) -> int:
        return len(self.levels)

    def for_level(self, level: int) -> np.ndarray:
        """Durations of runs at one level."""
        return self.durations[self.levels == level]


def constant_segments(times: np.ndarray, levels: np.ndarray) -> Segments:
    """Extract maximal runs of equal level from a sampled series.

    ``times`` are sample timestamps (ascending); sample ``i`` is assumed
    to hold until ``times[i+1]``. The final sample's duration is taken
    as the trailing sampling interval (median spacing), mirroring a
    fixed-period monitor.
    """
    times = np.asarray(times, dtype=np.float64)
    levels = np.asarray(levels)
    if times.shape != levels.shape:
        raise ValueError("times and levels must have equal shape")
    if times.size == 0:
        empty = np.empty(0)
        return Segments(empty.astype(np.int64), empty, empty)
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")

    change = np.flatnonzero(levels[1:] != levels[:-1]) + 1
    starts = np.concatenate(([0], change))
    if times.size > 1:
        tail = float(np.median(np.diff(times)))
    else:
        tail = 1.0
    boundaries = np.concatenate((times[starts], [times[-1] + tail]))
    durations = np.diff(boundaries)
    return Segments(
        levels=levels[starts].astype(np.int64),
        durations=durations,
        start_times=times[starts],
    )


def level_durations(
    times: np.ndarray,
    values: np.ndarray,
    edges: np.ndarray = DEFAULT_USAGE_LEVELS,
) -> dict[int, np.ndarray]:
    """Durations of unchanged discretized level, keyed by level index.

    This is the quantity behind Tables II/III and Fig. 9: discretize the
    sampled series with ``edges`` and collect the run durations of every
    level (levels never visited map to empty arrays).
    """
    levels = discretize(values, edges)
    segments = constant_segments(np.asarray(times, dtype=np.float64), levels)
    n_levels = len(np.asarray(edges)) - 1
    return {lvl: segments.for_level(lvl) for lvl in range(n_levels)}
