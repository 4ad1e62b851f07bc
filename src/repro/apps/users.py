"""Per-user workload analysis.

The trace model associates every job with a user ("each job corresponds
to one user", Sec. II). This module summarizes the user dimension:
how many users drive the load, how skewed the jobs-per-user
distribution is (mass-count over users), and each heavy user's
submission dynamics — inputs for per-user quota and capacity decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fairness import jain_fairness
from ..core.masscount import MassCount, mass_count
from ..core.table import Table

__all__ = ["UserSummary", "user_summary", "top_user_share"]


def top_user_share(jobs: Table, k: int = 10) -> float:
    """Fraction of all jobs submitted by the ``k`` heaviest users."""
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = np.sort(
        np.unique(np.asarray(jobs["user_id"]), return_counts=True)[1]
    )[::-1]
    return float(counts[:k].sum() / counts.sum())


@dataclass(frozen=True)
class UserSummary:
    """Cluster-wide user-dimension summary."""

    num_users: int
    jobs_per_user_mean: float
    jobs_per_user_max: int
    top10_share: float
    fairness_across_users: float
    masscount: MassCount


def user_summary(jobs: Table) -> UserSummary:
    """Summarize the user dimension of a per-job table."""
    if len(jobs) == 0:
        raise ValueError("job table is empty")
    counts = np.unique(np.asarray(jobs["user_id"]), return_counts=True)[1]
    return UserSummary(
        num_users=int(counts.size),
        jobs_per_user_mean=float(counts.mean()),
        jobs_per_user_max=int(counts.max()),
        top10_share=top_user_share(jobs, k=min(10, counts.size)),
        fairness_across_users=jain_fairness(counts.astype(np.float64)),
        masscount=mass_count(counts.astype(np.float64)),
    )
