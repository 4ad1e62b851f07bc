"""Priority-band views of host load (Sec. III.1, Figs. 10-12).

The paper clusters the 12 priorities into low (1-4), middle (5-8) and
high (9-12) bands and re-evaluates host load restricted to mid+high or
high-only tasks: a machine that looks full may be idle *from the
perspective of* high-priority work, because most usage comes from
preemptible low-priority tasks.
"""

from __future__ import annotations

import numpy as np

from ..traces.schema import PriorityBand
from .series import MachineLoadSeries

__all__ = ["band_usage", "band_share"]

_BAND_COLUMNS = {
    ("cpu", "all"): "cpu",
    ("cpu", "mid_high"): "cpu_mid_high",
    ("cpu", "high"): "cpu_high",
    ("mem", "all"): "mem",
    ("mem", "mid_high"): "mem_mid_high",
    ("mem", "high"): "mem_high",
}


def band_usage(
    series: MachineLoadSeries, attribute: str = "cpu", band: str = "all"
) -> np.ndarray:
    """Relative usage attributable to tasks at or above a band.

    ``band`` is ``all`` (every priority), ``mid_high`` (priority >= 5)
    or ``high`` (priority >= 9).
    """
    try:
        column = _BAND_COLUMNS[(attribute, band)]
    except KeyError:
        raise ValueError(
            f"unsupported (attribute, band) = ({attribute!r}, {band!r}); "
            f"supported: {sorted(_BAND_COLUMNS)}"
        ) from None
    return series.relative(column)


def band_share(
    series: dict[int, MachineLoadSeries], attribute: str = "cpu"
) -> dict[str, float]:
    """Cluster-wide mean usage share per exclusive band.

    Returns mean relative usage attributed to low, middle and high
    bands plus the total, averaged over machines and time.
    """
    totals = {band.name.lower(): 0.0 for band in PriorityBand}
    total_all = 0.0
    n = 0
    for s in series.values():
        all_u = band_usage(s, attribute, "all")
        mid_high = band_usage(s, attribute, "mid_high")
        high = band_usage(s, attribute, "high")
        totals["low"] += float((all_u - mid_high).sum())
        totals["middle"] += float((mid_high - high).sum())
        totals["high"] += float(high.sum())
        total_all += float(all_u.sum())
        n += len(all_u)
    if n == 0:
        raise ValueError("no samples")
    out = {k: v / n for k, v in totals.items()}
    out["total"] = total_all / n
    return out
