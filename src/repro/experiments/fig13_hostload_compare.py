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
from .datasets import SCALES, fleet_series

__all__ = ["run"]


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    horizon = SCALES[scale].sim_horizon
    # Google host: the machine with the median mean CPU load.
    series = list(fleet_series(scale, seed).values())
    means = np.asarray([s.relative("cpu").mean() for s in series])
    google = series[int(np.argsort(means)[len(means) // 2])]
    g_cpu = google.relative("cpu")
    g_mem = google.relative("mem")

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
