"""Extension 4 — best-fit distribution families for task lengths.

The paper's future work: find the best-fit load model. We fit the
candidate families to the Google task-length sample and to AuverGrid's
job lengths. AuverGrid collapses onto a single lognormal; Google's
body+service-tail mixture resists every single-family fit (large KS for
all candidates) — direct evidence that Cloud workloads need mixture
models.
"""

from __future__ import annotations

import numpy as np

from ..core.fit import fit_best
from .base import ExperimentResult, ResultTable
from .datasets import fold_table, workload_dataset
from .fig4_masscount_length import collect_durations

__all__ = ["run"]


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    data = workload_dataset(scale, seed)
    rng = np.random.default_rng(seed + 300)

    google = fold_table(
        "task_durations", scale, seed, collect_durations
    ).merged()
    if google.size > 60_000:
        google = rng.choice(google, 60_000, replace=False)
    auvergrid = np.asarray(data.grid_jobs_native["AuverGrid"]["run_time"])

    rows = []
    results = {}
    for name, sample in (("Google", google), ("AuverGrid", auvergrid)):
        fits = fit_best(sample)
        results[name] = fits
        for f in fits:
            rows.append(
                (
                    name,
                    f.family,
                    round(f.ks, 4),
                    ", ".join(f"{k}={v:.3g}" for k, v in f.params.items()),
                )
            )

    best_google = results["Google"][0]
    best_ag = results["AuverGrid"][0]
    return ExperimentResult(
        experiment_id="ext4",
        title="Best-fit distribution families for task lengths",
        tables=(
            ResultTable.build(
                "MLE fits ranked by AIC (best first per system)",
                ("system", "family", "KS", "parameters"),
                rows,
            ),
        ),
        metrics={
            "google_best_family": best_google.family,
            "google_best_ks": round(best_google.ks, 4),
            "auvergrid_best_family": best_ag.family,
            "auvergrid_best_ks": round(best_ag.ks, 4),
            "auvergrid_single_family_adequate": best_ag.ks < 0.05,
            "google_needs_mixture": best_google.ks > best_ag.ks,
        },
        paper_reference={
            "finding": (
                "future work: exploit the best-fit load prediction method "
                "based on our characterization (Sec. VI)"
            ),
        },
        notes=(
            "Grid lengths fit one lognormal; Cloud lengths need the "
            "body+service-tail mixture the generator uses."
        ),
    )
