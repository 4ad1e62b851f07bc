"""Fig. 13 — host-load dynamics: Google vs AuverGrid vs SHARCNET.

Three findings: (1) Grid hosts run CPU above memory (compute-bound
science jobs) while Google hosts run memory above CPU; (2) Google CPU
load is ~20x noisier than Grid CPU load under a mean filter; (3) Grid
load is stable over hours while Google load flips within minutes.
"""

from __future__ import annotations

import numpy as np

from ..core.noise import autocorrelation, noise_stats
from ..synth.grid_hostload import GridHostConfig, generate_grid_host_series
from .base import ExperimentResult, ResultTable
from .datasets import SCALES, map_table, simulation_dataset

__all__ = ["run"]


def _relative_cpu_means(shard, machine_ids, cpu_caps) -> dict[int, float]:
    """Map kernel: mean relative CPU load per machine in one shard.

    ``machine_ids``/``cpu_caps`` are the machines-table columns; the
    division uses the same Python-float capacity as
    ``MachineLoadSeries.relative``, and each machine's samples are a
    contiguous time-ordered run (machine-major, group-aligned shards),
    so every mean equals ``relative("cpu").mean()`` of that machine's
    series bit for bit.
    """
    cap_of = dict(
        zip(
            np.asarray(machine_ids).tolist(),
            np.asarray(cpu_caps, dtype=np.float64).tolist(),
        )
    )
    ids = np.asarray(shard["machine_id"])
    starts = np.concatenate(([0], np.flatnonzero(ids[1:] != ids[:-1]) + 1))
    ends = np.concatenate((starts[1:], [ids.size]))
    cpu = np.asarray(shard["cpu_usage"])
    out: dict[int, float] = {}
    for k, mid in enumerate(ids[starts].tolist()):
        rel = np.clip(cpu[starts[k] : ends[k]] / cap_of[mid], 0.0, 1.0)
        out[int(mid)] = float(rel.mean())
    return out


def _host_samples(shard, machine_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Map kernel: one machine's CPU and memory samples in one shard."""
    ids = np.asarray(shard["machine_id"])
    lo = int(np.searchsorted(ids, machine_id, side="left"))
    hi = int(np.searchsorted(ids, machine_id, side="right"))
    return (
        np.asarray(shard["cpu_usage"])[lo:hi],
        np.asarray(shard["mem_usage"])[lo:hi],
    )


def _google_host(scale: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Relative CPU/mem series of the machine with the median mean CPU."""
    machines = simulation_dataset(scale, seed).result.machines
    mean_of: dict[int, float] = {}
    for found in map_table(
        "machine_usage",
        scale,
        seed,
        _relative_cpu_means,
        args=(
            np.asarray(machines["machine_id"], dtype=np.int64),
            np.asarray(machines["cpu_capacity"], dtype=np.float64),
        ),
    ):
        mean_of.update(found)
    # Machines-table order with duplicates/missing skipped — the order
    # the per-machine series dict iterates in.
    row_of: dict[int, int] = {}
    for i, machine_id in enumerate(machines["machine_id"]):
        mid = int(machine_id)
        if mid not in row_of and mid in mean_of:
            row_of[mid] = i
    ordered = list(row_of)
    means = np.asarray([mean_of[mid] for mid in ordered])
    sel = ordered[int(np.argsort(means)[len(ordered) // 2])]
    # One machine's rows are a small read: an inline pass (which still
    # heals) rather than a second pool of block workers.
    parts = map_table(
        "machine_usage", scale, seed, _host_samples, args=(sel,), jobs=1
    )
    row = row_of[sel]
    cpu_cap = float(machines["cpu_capacity"][row])
    mem_cap = float(machines["mem_capacity"][row])
    cpu, mem = (np.concatenate(column) for column in zip(*parts))
    return (
        np.clip(cpu / cpu_cap, 0.0, 1.0),
        np.clip(mem / mem_cap, 0.0, 1.0),
    )


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    horizon = SCALES[scale].sim_horizon
    g_cpu, g_mem = _google_host(scale, seed)

    # Grid hosts: synthetic step-load nodes per the Fig. 13 model.
    ag_cfg = GridHostConfig(mean_level_duration=8 * 3600.0)
    sn_cfg = GridHostConfig(mean_level_duration=4 * 3600.0)
    _, ag_cpu, ag_mem = generate_grid_host_series(horizon, seed + 100, ag_cfg)
    _, sn_cpu, sn_mem = generate_grid_host_series(horizon, seed + 101, sn_cfg)

    rows = []
    stats: dict[str, dict[str, float]] = {}
    for name, cpu, mem in (
        ("Google", g_cpu, g_mem),
        ("AuverGrid", ag_cpu, ag_mem),
        ("SHARCNET", sn_cpu, sn_mem),
    ):
        ns = noise_stats(cpu)
        stats[name] = ns
        rows.append(
            (
                name,
                round(float(cpu.mean()), 3),
                round(float(mem.mean()), 3),
                round(ns["min"], 5),
                round(ns["mean"], 5),
                round(ns["max"], 5),
                round(autocorrelation(cpu), 4),
            )
        )

    noise_ratio = stats["Google"]["mean"] / max(
        stats["AuverGrid"]["mean"], 1e-12
    )
    return ExperimentResult(
        experiment_id="fig13",
        title="Host-load comparison: Cloud vs Grid",
        tables=(
            ResultTable.build(
                "Fig. 13: per-host CPU/memory load and noise",
                (
                    "system",
                    "mean_cpu",
                    "mean_mem",
                    "noise_min",
                    "noise_mean",
                    "noise_max",
                    "lag1_autocorr",
                ),
                rows,
            ),
        ),
        metrics={
            "google_mem_above_cpu": bool(g_mem.mean() > g_cpu.mean()),
            "grid_cpu_above_mem": bool(
                ag_cpu.mean() > ag_mem.mean() and sn_cpu.mean() > sn_mem.mean()
            ),
            "noise_ratio_google_over_auvergrid": round(float(noise_ratio), 1),
            "google_noisier": bool(noise_ratio > 2),
        },
        paper_reference={
            "noise": (
                "AuverGrid CPU noise 0.00008/0.0011/0.0026 vs Google "
                "0.00024/0.028/0.081 — ~20x on average"
            ),
            "usage_ordering": "Grid: CPU > memory; Google: CPU < memory",
            "stability": "Grid load stable for hours; Google flips in minutes",
        },
        notes=(
            "The noise ratio and the CPU/memory ordering reproduce Fig. 13; "
            "exact autocorrelation magnitudes depend on the trace's busy "
            "period and are reported, not asserted."
        ),
    )
