"""Maximum host load per machine, grouped by capacity (Fig. 7).

The paper estimates each machine's usable capacity as the maximum
resource usage observed over the trace's lifetime, then plots the
distribution of these maxima per capacity group for CPU, consumed
memory, assigned memory and page cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import MachineLoadSeries

__all__ = ["MaxLoadDistribution", "max_load_by_capacity"]

_CAPACITY_ATTR = {
    "cpu": "cpu_capacity",
    "mem": "mem_capacity",
    "mem_assigned": "mem_capacity",
    "page_cache": "page_capacity",
}


@dataclass(frozen=True)
class MaxLoadDistribution:
    """Max-load sample of one (attribute, capacity group)."""

    attribute: str
    capacity: float
    max_loads: np.ndarray

    @property
    def num_machines(self) -> int:
        return len(self.max_loads)

    def fraction_at_capacity(self, tolerance: float = 0.02) -> float:
        """Share of machines whose max load reaches their capacity.

        Fig. 7(a): >80%/70% of low/middle-CPU machines max out.
        """
        if self.num_machines == 0:
            return 0.0
        return float(
            np.count_nonzero(self.max_loads >= self.capacity * (1 - tolerance))
            / self.num_machines
        )

    def mean_relative(self) -> float:
        """Mean max load as a fraction of capacity (~0.8 for memory)."""
        if self.num_machines == 0:
            return 0.0
        return float(self.max_loads.mean() / self.capacity)


def max_load_by_capacity(
    series: dict[int, MachineLoadSeries], attribute: str = "cpu"
) -> dict[float, MaxLoadDistribution]:
    """Group per-machine max loads by the machines' capacity level."""
    if attribute not in _CAPACITY_ATTR:
        raise ValueError(
            f"unknown attribute {attribute!r}; choose from "
            f"{sorted(_CAPACITY_ATTR)}"
        )
    cap_attr = _CAPACITY_ATTR[attribute]
    buckets: dict[float, list[float]] = {}
    for s in series.values():
        cap = round(float(getattr(s, cap_attr)), 6)
        buckets.setdefault(cap, []).append(s.max_load(attribute))
    return {
        cap: MaxLoadDistribution(
            attribute=attribute,
            capacity=cap,
            max_loads=np.asarray(values),
        )
        for cap, values in sorted(buckets.items())
    }
