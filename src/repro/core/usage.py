"""Per-job memory utilization (Sec. III.4, Fig. 6(b)).

Implements the memory-usage convention of Fig. 6(b), where Google's
normalized memory values are rescaled by an assumed node capacity
(32 GB or 64 GB) for comparison against the absolute values in Grid
traces. The paper's Eq. (4), CPU usage as cumulative per-processor
execution time over wall-clock time, is applied where Grid jobs are
converted: :func:`repro.traces.convert.grid_jobs_to_job_table`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "memory_usage_mb",
    "GB",
]

#: Megabytes per gigabyte (the unit Fig. 6(b)'s x-axis is plotted in is MB
#: in the hundreds, consistent with "Memory Utilization" up to ~1000).
GB = 1024.0


def memory_usage_mb(
    normalized_mem: np.ndarray, max_capacity_gb: float
) -> np.ndarray:
    """Rescale normalized [0, 1] memory usage to megabytes.

    Mirrors Fig. 6(b)'s "MaxCap=32GB / MaxCap=64GB" assumption for the
    Google trace, whose memory values are only released normalized.
    """
    normalized = np.asarray(normalized_mem, dtype=np.float64)
    if max_capacity_gb <= 0:
        raise ValueError("max_capacity_gb must be positive")
    if normalized.size and (normalized.min() < 0 or normalized.max() > 1 + 1e-9):
        raise ValueError("normalized memory must lie in [0, 1]")
    return normalized * max_capacity_gb * GB
