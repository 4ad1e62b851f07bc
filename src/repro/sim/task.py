"""Per-task columns for the simulator.

The engine keeps every immutable per-task quantity in
:class:`TaskColumns` — one structure-of-arrays block built once per
run — and refers to tasks by row index. One row is one submission
lineage: resubmissions after failure or eviction reuse the row, bumping
its incarnation so stale completion events can be recognized and
dropped (lazy cancellation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traces.schema import priority_band_array

__all__ = ["TaskColumns"]


@dataclass(frozen=True)
class TaskColumns:
    """Immutable structure-of-arrays view of a request stream.

    One row per submission lineage, in arrival order. The engine
    keeps its *mutable* per-task state (state, machine, incarnation,
    resubmit count, fate, start time) in plain per-row sequences of its
    own; these columns carry everything that never changes after
    :meth:`from_requests`, and the final event log is assembled by
    fancy-indexing them with the recorded row indices instead of
    reading attributes task by task.
    """

    submit_time: np.ndarray
    job_id: np.ndarray
    task_index: np.ndarray
    priority: np.ndarray
    band: np.ndarray
    cpu_request: np.ndarray
    mem_request: np.ndarray
    duration: np.ndarray
    cpu_eff: np.ndarray
    mem_eff: np.ndarray
    page_cache: np.ndarray
    fate: np.ndarray

    @classmethod
    def from_requests(cls, requests) -> "TaskColumns":
        """Build the column block from a ``TaskRequests`` stream."""
        return cls(
            submit_time=np.asarray(requests.submit_time, dtype=np.float64),
            job_id=np.asarray(requests.job_id, dtype=np.int64),
            task_index=np.asarray(requests.task_index, dtype=np.int32),
            priority=np.asarray(requests.priority, dtype=np.int16),
            band=priority_band_array(requests.priority),
            cpu_request=np.asarray(requests.cpu_request, dtype=np.float64),
            mem_request=np.asarray(requests.mem_request, dtype=np.float64),
            duration=np.asarray(requests.duration, dtype=np.float64),
            cpu_eff=np.asarray(
                requests.cpu_request * requests.cpu_utilization,
                dtype=np.float64,
            ),
            mem_eff=np.asarray(
                requests.mem_request * requests.mem_utilization,
                dtype=np.float64,
            ),
            page_cache=np.asarray(requests.page_cache, dtype=np.float64),
            fate=np.asarray(requests.fate, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.submit_time)

