"""Fig. 7 — distribution of maximum host load per capacity group.

The paper finds CPU maxima pinned at capacity (>80%/70% of low/middle
capacity machines hit their cap), memory maxima around ~80% of
capacity (OS overhead), assigned memory near ~90%, and a page-cache
distribution with its own spread.
"""

from __future__ import annotations

import numpy as np

from ..core.table import Table
from ..hostload.maxload import MaxLoadDistribution
from .base import ExperimentResult, ResultTable
from .datasets import fold_table, simulation_dataset

__all__ = ["run", "ATTRIBUTES"]

ATTRIBUTES = ("cpu", "mem", "mem_assigned", "page_cache")

#: Usage column backing each attribute.
_USAGE_COLUMN = {
    "cpu": "cpu_usage",
    "mem": "mem_usage",
    "mem_assigned": "mem_assigned",
    "page_cache": "page_cache",
}

#: Machines-table capacity column grouping each attribute (mirrors
#: ``repro.hostload.maxload._CAPACITY_ATTR`` via the machines schema).
_CAPACITY_COLUMN = {
    "cpu": "cpu_capacity",
    "mem": "mem_capacity",
    "mem_assigned": "mem_capacity",
    "page_cache": "page_cache_capacity",
}


def _machine_maxima(shard) -> dict[int, dict[str, float]]:
    """Map kernel: per-machine max of each usage attribute in one shard.

    The usage table is machine-major and its shards are group-aligned,
    so every machine's full series sits contiguously in exactly one
    shard; ``np.maximum.reduceat`` over the run starts gives the same
    float maxima as ``MachineLoadSeries.max_load`` (max is exact under
    any grouping).
    """
    ids = np.asarray(shard["machine_id"])
    starts = np.concatenate(
        ([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1)
    )
    maxima = {
        attr: np.maximum.reduceat(np.asarray(shard[col]), starts)
        for attr, col in _USAGE_COLUMN.items()
    }
    return {
        int(mid): {attr: float(maxima[attr][k]) for attr in ATTRIBUTES}
        for k, mid in enumerate(ids[starts].tolist())
    }


def _merge_maxima(left: dict, right: dict) -> dict:
    left.update(right)
    return left


def _max_load_groups(
    machines: Table, maxima: dict[int, dict[str, float]], attribute: str
) -> dict[float, MaxLoadDistribution]:
    """Fig. 7's capacity groups from per-machine maxima.

    Buckets in machines-table order with duplicate/missing machines
    skipped — the same iteration
    :func:`~repro.hostload.maxload.max_load_by_capacity` performs over
    the grouped series dict — so group membership, order, and every
    float match it.
    """
    cap_col = _CAPACITY_COLUMN[attribute]
    buckets: dict[float, list[float]] = {}
    seen: set[int] = set()
    for i, machine_id in enumerate(machines["machine_id"]):
        mid = int(machine_id)
        if mid in seen or mid not in maxima:
            continue
        seen.add(mid)
        cap = round(float(machines[cap_col][i]), 6)
        buckets.setdefault(cap, []).append(maxima[mid][attribute])
    return {
        cap: MaxLoadDistribution(
            attribute=attribute, capacity=cap, max_loads=np.asarray(values)
        )
        for cap, values in sorted(buckets.items())
    }


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    machines = simulation_dataset(scale, seed).result.machines
    maxima = fold_table(
        "machine_usage", scale, seed, _machine_maxima, merge=_merge_maxima
    )
    groups_of = {
        attribute: _max_load_groups(machines, maxima or {}, attribute)
        for attribute in ATTRIBUTES
    }

    rows = []
    metrics: dict[str, object] = {}
    for attribute in ATTRIBUTES:
        for cap, dist in groups_of[attribute].items():
            rows.append(
                (
                    attribute,
                    cap,
                    dist.num_machines,
                    round(dist.mean_relative(), 3),
                    round(dist.fraction_at_capacity(tolerance=0.05), 3),
                )
            )
    cpu_groups = groups_of["cpu"]
    caps = sorted(cpu_groups)
    if caps:
        low = cpu_groups[caps[0]]
        metrics["cpu_lowcap_frac_at_capacity"] = round(
            low.fraction_at_capacity(tolerance=0.05), 3
        )
    mem_groups = groups_of["mem"]
    mem_rel = [d.mean_relative() for d in mem_groups.values() if d.num_machines]
    metrics["mem_mean_relative_max"] = round(
        sum(mem_rel) / len(mem_rel), 3
    ) if mem_rel else 0.0
    asg_groups = groups_of["mem_assigned"]
    asg_rel = [d.mean_relative() for d in asg_groups.values() if d.num_machines]
    metrics["mem_assigned_mean_relative_max"] = round(
        sum(asg_rel) / len(asg_rel), 3
    ) if asg_rel else 0.0
    metrics["assigned_exceeds_consumed"] = (
        metrics["mem_assigned_mean_relative_max"]
        > metrics["mem_mean_relative_max"]
    )

    return ExperimentResult(
        experiment_id="fig7",
        title="Maximum host load per capacity group",
        tables=(
            ResultTable.build(
                "Fig. 7: per (attribute, capacity) max-load statistics",
                (
                    "attribute",
                    "capacity",
                    "machines",
                    "mean_max/capacity",
                    "frac_at_capacity",
                ),
                rows,
            ),
        ),
        metrics=metrics,
        paper_reference={
            "cpu": ">80%/70% of low/middle-CPU machines max out at capacity",
            "mem": "max consumed memory ~80% of capacity (system overhead)",
            "mem_assigned": "~90% of capacity with high probability",
        },
        notes=(
            "CPU maxima sit at/near capacity while consumed memory maxima "
            "stay below assigned memory, matching the figure's ordering."
        ),
    )
