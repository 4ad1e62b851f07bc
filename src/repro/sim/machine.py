"""Struct-of-arrays machine fleet state.

All per-machine quantities live in flat NumPy arrays indexed by machine
position, so placement decisions and the 5-minute monitor are fully
vectorized. The engine (:mod:`repro.sim.soa`, or its C kernel) owns
task start/stop and writes these arrays; the monitor reads them.

Units: capacities and usages are normalized to the *largest* machine in
the cluster, exactly like the released Google trace. Relative (per-
capacity) load is derived by the host-load analyses, not stored.
"""

from __future__ import annotations

import numpy as np

from ..core.table import Table

__all__ = ["FleetState"]

_NUM_BANDS = 3


class FleetState:
    """Aggregate resource accounting for every machine in the cluster."""

    def __init__(self, machines: Table) -> None:
        n = machines.num_rows
        if n == 0:
            raise ValueError("fleet must contain at least one machine")
        self.machine_ids = np.asarray(machines["machine_id"], dtype=np.int64)
        self.cpu_capacity = np.asarray(machines["cpu_capacity"], dtype=np.float64)
        self.mem_capacity = np.asarray(machines["mem_capacity"], dtype=np.float64)
        self.page_capacity = np.asarray(
            machines["page_cache_capacity"], dtype=np.float64
        )
        self.free_cpu = self.cpu_capacity.copy()
        self.free_mem = self.mem_capacity.copy()
        # Actual-usage aggregates (sum over running tasks).
        self.cpu_base = np.zeros(n)
        self.mem_base = np.zeros(n)
        self.mem_assigned = np.zeros(n)
        self.page_base = np.zeros(n)
        # Per-priority-band splits for Figs. 10-12.
        self.cpu_band = np.zeros((n, _NUM_BANDS))
        self.mem_band = np.zeros((n, _NUM_BANDS))
        self.n_running = np.zeros(n, dtype=np.int64)
        # Machine availability (churn): down machines accept no tasks.
        self.available = np.ones(n, dtype=bool)

    @property
    def num_machines(self) -> int:
        return len(self.machine_ids)
