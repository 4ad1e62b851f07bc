"""Placement policies of the priority scheduler.

In the paper's Section II model, higher-priority tasks are processed
first and may preempt lower-priority ones, and ties are broken
first-come-first-serve; the engine (:mod:`repro.sim.soa`) runs that
queue. Placement picks the "best" machine for one task under a
pluggable policy — the default ``balance`` spreads load to minimize
peak demand, matching the paper's description of Google's scheduler;
``best_fit``, ``first_fit`` and ``random`` exist for the ablation
benchmarks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["choose_machine_columns", "PLACEMENT_POLICIES"]

PLACEMENT_POLICIES = ("balance", "best_fit", "first_fit", "random")


def choose_machine_columns(
    free_cpu: np.ndarray,
    free_mem: np.ndarray,
    available: np.ndarray,
    cpu_capacity: np.ndarray,
    cpu_request: float,
    mem_request: float,
    allowed_mask: np.ndarray | None,
    policy: str,
    rng: np.random.Generator,
) -> int:
    """Pick a machine for a task from the fleet's columns, or -1.

    Candidates are the available machines with enough free CPU and
    memory, inside ``allowed_mask`` when the task carries placement
    constraints. Ties go to the lowest index (NumPy's first-index
    argmax/argmin).

    Policies
    --------
    balance:
        The paper's model — among fitting machines choose the one with
        the most free CPU relative to capacity, balancing demand across
        the fleet and minimizing peak load.
    best_fit:
        Tightest fit: least free CPU that still fits (bin-packing).
    first_fit:
        Lowest machine index that fits.
    random:
        Uniform among fitting machines.
    """
    mask = (free_cpu >= cpu_request) & (free_mem >= mem_request) & available
    if allowed_mask is not None:
        mask &= allowed_mask
    if not mask.any():
        return -1
    idx = np.flatnonzero(mask)
    if policy == "balance":
        score = free_cpu[idx] / cpu_capacity[idx]
        return int(idx[np.argmax(score)])
    if policy == "best_fit":
        return int(idx[np.argmin(free_cpu[idx])])
    if policy == "first_fit":
        return int(idx[0])
    if policy == "random":
        return int(rng.choice(idx))
    raise ValueError(
        f"unknown placement policy {policy!r}; choose from {PLACEMENT_POLICIES}"
    )
