"""Vectorized analysis kernels shared by the hostload/sim/synth layers.

The paper-scale trace (25M tasks, >12.5k machines, a month of 5-minute
samples) turns every per-machine Python loop into a bottleneck. This
module collects the hot inner passes as single-sweep NumPy kernels:

* :func:`pooled_level_durations` — run-length segmentation of *many*
  concatenated series in one pass (replaces the per-machine loop over
  :func:`repro.core.segments.level_durations`).
* :func:`grouped_sort_split` — one ``lexsort`` + ``np.split`` grouped
  pass over a :class:`~repro.core.table.Table` (replaces per-key
  filter-and-sort scans, which are O(groups x rows)).
* :class:`MassCountAccumulator` — chunked mass-count pooling for
  streaming/columnar generation.

Equivalence contract: every kernel here is **bit-identical** to the
scalar path it replaces. The scalar implementations live in
``tests/oracles.py`` as golden references, and the
``tests/test_kernels.py`` golden suite runs both on seeded inputs.
"""

from __future__ import annotations

import numpy as np

from .ecdf import ECDF
from .masscount import MassCount, mass_count
from .segments import DEFAULT_USAGE_LEVELS, discretize
from .table import Table

__all__ = [
    "pooled_level_durations",
    "grouped_sort_split",
    "MassCountAccumulator",
    "ECDFAccumulator",
]


def _series_tails(
    starts: np.ndarray,
    ends: np.ndarray,
    diffs: np.ndarray,
    within: np.ndarray,
) -> np.ndarray:
    """Trailing sampling interval per series: median spacing, or 1.0.

    Mirrors :func:`repro.core.segments.constant_segments` exactly — a
    single-sample series gets tail 1.0, otherwise the median of its
    consecutive time differences. ``within`` masks the diff positions
    that do not cross a series boundary.
    """
    counts = ends - starts
    if counts.size == 0:
        return np.empty(0)
    length = counts[0]
    if length > 1 and np.all(counts == length):
        # Equal-length fast path: the within-series diffs concatenate
        # to (n_series, length - 1) rows; one axis-wise median.
        return np.median(diffs[within].reshape(-1, length - 1), axis=1)
    tails = np.empty(counts.size)
    for i, (s, e) in enumerate(zip(starts, ends)):
        tails[i] = float(np.median(diffs[s : e - 1])) if e - s > 1 else 1.0
    return tails


def pooled_level_durations(
    times: np.ndarray,
    values: np.ndarray,
    lengths: np.ndarray,
    edges: np.ndarray = DEFAULT_USAGE_LEVELS,
) -> dict[int, np.ndarray]:
    """Unchanged-level durations of many concatenated series, one pass.

    ``times``/``values`` hold ``len(lengths)`` series back to back
    (series ``i`` spans ``lengths[i]`` samples); the result is keyed by
    level and concatenates every series' run durations in series order —
    bit-identical to looping :func:`repro.core.segments.level_durations`
    over the series and concatenating per level.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if times.shape != values.shape or times.ndim != 1:
        raise ValueError("times and values must be 1-D with equal shape")
    if np.any(lengths < 0) or int(lengths.sum()) != times.size:
        raise ValueError("lengths must be non-negative and sum to len(times)")
    n_levels = len(np.asarray(edges)) - 1
    if times.size == 0:
        # discretize() still validates the edges on the empty pool.
        discretize(values, edges)
        return {lvl: np.empty(0) for lvl in range(n_levels)}

    levels = discretize(values, edges)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    nonempty = lengths > 0
    series_starts = offsets[:-1][nonempty]
    series_ends = offsets[1:][nonempty]

    is_series_start = np.zeros(times.size, dtype=bool)
    is_series_start[series_starts] = True
    diffs = np.diff(times)
    within = ~is_series_start[1:]  # diff positions that stay in one series
    if np.any(diffs[within] <= 0):
        raise ValueError("times must be strictly increasing")

    is_run_start = is_series_start.copy()
    is_run_start[1:] |= (levels[1:] != levels[:-1]) & within
    run_starts = np.flatnonzero(is_run_start)
    run_levels = levels[run_starts]

    tails = _series_tails(series_starts, series_ends, diffs, within)
    series_end_times = times[series_ends - 1] + tails

    series_of_run = (
        np.searchsorted(series_starts, run_starts, side="right") - 1
    )
    last_run = np.ones(run_starts.size, dtype=bool)
    last_run[:-1] = series_of_run[1:] != series_of_run[:-1]

    next_boundary = np.empty(run_starts.size)
    next_boundary[:-1] = times[run_starts[1:]]
    next_boundary[last_run] = series_end_times[series_of_run[last_run]]
    durations = next_boundary - times[run_starts]
    return {lvl: durations[run_levels == lvl] for lvl in range(n_levels)}


def grouped_sort_split(
    table: Table, key: str, within: str | None = None
) -> tuple[np.ndarray, dict[str, list[np.ndarray]]]:
    """Split every column of ``table`` by ``key`` with one stable sort.

    Returns ``(unique_keys, columns)`` where ``columns[name][i]`` is the
    slice of column ``name`` belonging to ``unique_keys[i]``, ordered by
    ``within`` (ties keep original row order). Bit-identical to masking
    the table once per key and ``sort_by(within)``-ing each subset, but
    a single O(n log n) pass: the per-group slices are views into one
    gathered array, so no per-group copies are made.
    """
    keys = table[key]
    if len(keys) == 0:
        return keys[:0], {name: [] for name in table.column_names}
    if within is not None:
        order = np.lexsort((table[within], keys))
    else:
        order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    unique_keys = sorted_keys[np.concatenate(([0], bounds))]
    columns = {
        name: np.split(table[name][order], bounds)
        for name in table.column_names
    }
    return unique_keys, columns


class MassCountAccumulator:
    """Pool sample chunks for one final mass-count pass.

    Chunked/columnar generators produce values block by block; this
    accumulator collects the blocks and finalizes with a single
    :func:`~repro.core.masscount.mass_count` over their concatenation —
    bit-identical to materializing the pool up front, while the producer
    only ever holds one block of its full columns in memory.
    """

    def __init__(self, *, positive_only: bool = False) -> None:
        self._chunks: list[np.ndarray] = []
        self._positive_only = positive_only

    def add(self, values: np.ndarray) -> None:
        """Add one chunk (values are copied to float64)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("chunks must be 1-D")
        if self._positive_only:
            arr = arr[arr > 0]
        if arr.size:
            self._chunks.append(np.array(arr, dtype=np.float64, copy=True))

    @property
    def n_values(self) -> int:
        return sum(chunk.size for chunk in self._chunks)

    def merged(self) -> np.ndarray:
        """All pooled values in insertion order."""
        if not self._chunks:
            return np.empty(0)
        return np.concatenate(self._chunks)

    def merge(self, other: "MassCountAccumulator") -> "MassCountAccumulator":
        """Append another accumulator's chunks after this one's.

        Order matters for bit-identity: ``mass_count`` sums the pooled
        sample in insertion order (pairwise summation over the
        concatenated array), so merging shard accumulators in shard
        order reproduces the in-memory total exactly.
        """
        if other._positive_only != self._positive_only:
            raise ValueError("cannot merge accumulators with different filters")
        self._chunks.extend(other._chunks)
        return self

    def finalize(self) -> MassCount:
        """Mass-count disparity of the pooled sample."""
        return mass_count(self.merged())


class ECDFAccumulator:
    """Mergeable ECDF state: sorted distinct values + integer counts.

    Exactness contract: for any partition of a sample into chunks, in
    any order and any merge grouping, ``finalize()`` is bit-identical
    to :func:`repro.core.ecdf.ecdf` on the full sample. This holds
    because the state is value-keyed integer counts — the merged
    distinct values equal the full sample's distinct values, integer
    count addition is exact and order-free, and the final probabilities
    divide the same ``cumsum`` of the same ``int64`` counts by the same
    total.
    """

    def __init__(self) -> None:
        self._values = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)

    def add(self, sample: np.ndarray) -> None:
        """Fold one sample chunk into the state."""
        sample = np.asarray(sample, dtype=np.float64)
        if sample.ndim != 1:
            raise ValueError("chunks must be 1-D")
        if np.any(~np.isfinite(sample)):
            raise ValueError("sample contains non-finite values")
        if sample.size == 0:
            return
        values, counts = np.unique(sample, return_counts=True)
        self._fold(values, counts.astype(np.int64))

    def merge(self, other: "ECDFAccumulator") -> "ECDFAccumulator":
        """Fold another accumulator's state into this one."""
        self._fold(other._values, other._counts)
        return self

    def _fold(self, values: np.ndarray, counts: np.ndarray) -> None:
        if values.size == 0:
            return
        if self._values.size == 0:
            self._values = values.copy()
            self._counts = counts.copy()
            return
        pooled = np.concatenate((self._values, values))
        unique, inverse = np.unique(pooled, return_inverse=True)
        total = np.zeros(unique.size, dtype=np.int64)
        np.add.at(total, inverse, np.concatenate((self._counts, counts)))
        self._values = unique
        self._counts = total

    @property
    def n_values(self) -> int:
        return int(self._counts.sum())

    def finalize(self) -> ECDF:
        """The ECDF of everything added so far."""
        n = int(self._counts.sum())
        if n == 0:
            raise ValueError("sample must be non-empty")
        return ECDF(
            values=self._values, probabilities=np.cumsum(self._counts) / n
        )
