"""Per-machine load time series extracted from monitor output.

A :class:`MachineLoadSeries` is the unit of analysis for Section IV:
time-aligned CPU/memory/page-cache samples of one machine, in both
absolute (largest-machine) units and relative (per-capacity) load
levels, with the mid+high and high priority splits the paper uses.
:func:`all_machine_series` extracts every machine's series in one
grouped pass; :func:`machine_series` extracts one machine's, and
looping it over the fleet is the scalar reference the grouped pass is
held to bit for bit (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kernels import grouped_sort_split
from ..core.table import Table

__all__ = [
    "MachineLoadSeries",
    "machine_series",
    "all_machine_series",
]


@dataclass(frozen=True)
class MachineLoadSeries:
    """Sampled load of a single machine (absolute, normalized units)."""

    machine_id: int
    cpu_capacity: float
    mem_capacity: float
    page_capacity: float
    times: np.ndarray
    cpu: np.ndarray
    mem: np.ndarray
    mem_assigned: np.ndarray
    page_cache: np.ndarray
    cpu_mid_high: np.ndarray
    cpu_high: np.ndarray
    mem_mid_high: np.ndarray
    mem_high: np.ndarray
    n_running: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    # -- relative (per-capacity) views ----------------------------------------

    def capacity_for(self, attribute: str) -> float:
        """Capacity normalizing one usage attribute."""
        capacity = {
            "cpu": self.cpu_capacity,
            "cpu_mid_high": self.cpu_capacity,
            "cpu_high": self.cpu_capacity,
            "mem": self.mem_capacity,
            "mem_assigned": self.mem_capacity,
            "mem_mid_high": self.mem_capacity,
            "mem_high": self.mem_capacity,
            "page_cache": self.page_capacity,
        }
        try:
            return capacity[attribute]
        except KeyError:
            raise ValueError(
                f"unknown attribute {attribute!r}; choose from {sorted(capacity)}"
            ) from None

    def absolute(self, attribute: str) -> np.ndarray:
        """The raw sampled series of one usage attribute."""
        try:
            return {
                "cpu": self.cpu,
                "cpu_mid_high": self.cpu_mid_high,
                "cpu_high": self.cpu_high,
                "mem": self.mem,
                "mem_assigned": self.mem_assigned,
                "mem_mid_high": self.mem_mid_high,
                "mem_high": self.mem_high,
                "page_cache": self.page_cache,
            }[attribute]
        except KeyError:
            raise ValueError(f"unknown attribute {attribute!r}") from None

    def relative(self, attribute: str = "cpu") -> np.ndarray:
        """Load level in [0, 1]: usage over this machine's capacity.

        ``attribute`` is one of ``cpu``, ``mem``, ``mem_assigned``,
        ``page_cache``, ``cpu_mid_high``, ``cpu_high``,
        ``mem_mid_high``, ``mem_high``.
        """
        cap = self.capacity_for(attribute)
        return np.clip(self.absolute(attribute) / cap, 0.0, 1.0)

    def max_load(self, attribute: str = "cpu") -> float:
        """Maximum absolute load over the trace (Fig. 7's statistic)."""
        values = {
            "cpu": self.cpu,
            "mem": self.mem,
            "mem_assigned": self.mem_assigned,
            "page_cache": self.page_cache,
        }
        try:
            arr = values[attribute]
        except KeyError:
            raise ValueError(
                f"unknown attribute {attribute!r}; choose from {sorted(values)}"
            ) from None
        return float(arr.max()) if arr.size else 0.0


def machine_series(
    machine_usage: Table, machines: Table, machine_id: int
) -> MachineLoadSeries:
    """Extract one machine's series from the monitor's usage table."""
    mask = machine_usage["machine_id"] == machine_id
    if not mask.any():
        raise KeyError(f"machine {machine_id} has no usage samples")
    sub = machine_usage.select(mask).sort_by("time")
    midx = np.flatnonzero(machines["machine_id"] == machine_id)
    if midx.size == 0:
        raise KeyError(f"machine {machine_id} not in machine table")
    i = int(midx[0])
    return MachineLoadSeries(
        machine_id=machine_id,
        cpu_capacity=float(machines["cpu_capacity"][i]),
        mem_capacity=float(machines["mem_capacity"][i]),
        page_capacity=float(machines["page_cache_capacity"][i]),
        times=np.asarray(sub["time"]),
        cpu=np.asarray(sub["cpu_usage"]),
        mem=np.asarray(sub["mem_usage"]),
        mem_assigned=np.asarray(sub["mem_assigned"]),
        page_cache=np.asarray(sub["page_cache"]),
        cpu_mid_high=np.asarray(sub["cpu_mid_high"]),
        cpu_high=np.asarray(sub["cpu_high"]),
        mem_mid_high=np.asarray(sub["mem_mid_high"]),
        mem_high=np.asarray(sub["mem_high"]),
        n_running=np.asarray(sub["n_running"]),
    )


def all_machine_series(
    machine_usage: Table, machines: Table
) -> dict[int, MachineLoadSeries]:
    """Every machine's series via one ``argsort``+``np.split`` pass.

    One stable lexsort by (machine, time) replaces a per-machine
    filter-and-sort scan (O(machines x rows)); per-machine columns are
    views into the gathered arrays. The result dict is in
    machines-table order and bit-identical to calling
    :func:`machine_series` for each machine with samples, the scalar
    path that ``tests/oracles.py`` keeps as the golden reference.
    """
    unique_ids, cols = grouped_sort_split(
        machine_usage, "machine_id", within="time"
    )
    slot_of = {int(mid): i for i, mid in enumerate(unique_ids)}
    out: dict[int, MachineLoadSeries] = {}
    for i, machine_id in enumerate(machines["machine_id"]):
        mid = int(machine_id)
        slot = slot_of.get(mid)
        if slot is None or mid in out:
            continue
        out[mid] = MachineLoadSeries(
            machine_id=mid,
            cpu_capacity=float(machines["cpu_capacity"][i]),
            mem_capacity=float(machines["mem_capacity"][i]),
            page_capacity=float(machines["page_cache_capacity"][i]),
            times=cols["time"][slot],
            cpu=cols["cpu_usage"][slot],
            mem=cols["mem_usage"][slot],
            mem_assigned=cols["mem_assigned"][slot],
            page_cache=cols["page_cache"][slot],
            cpu_mid_high=cols["cpu_mid_high"][slot],
            cpu_high=cols["cpu_high"][slot],
            mem_mid_high=cols["mem_mid_high"][slot],
            mem_high=cols["mem_high"][slot],
            n_running=cols["n_running"][slot],
        )
    return out
