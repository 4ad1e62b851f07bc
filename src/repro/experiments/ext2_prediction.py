"""Extension 2 — host-load predictability, Cloud vs Grid.

Executes the paper's announced future work: backtest standard
predictors on a simulated Google host and a synthetic Grid host. The
noise gap of Fig. 13 translates directly into a prediction-error gap.
"""

from __future__ import annotations

import numpy as np

from ..prediction import (
    EWMA,
    AutoRegressive,
    LastValue,
    MovingAverage,
    compare_predictors,
)
from ..synth.grid_hostload import generate_grid_host_series
from .base import ExperimentResult, ResultTable
from .datasets import SCALES, fleet_series

__all__ = ["run"]


def _predictors():
    return {
        "last_value": LastValue(),
        "moving_average_1h": MovingAverage(window=12),
        "ewma_0.3": EWMA(alpha=0.3),
        "ar4": AutoRegressive(order=4, train_window=288, refit_every=96),
    }


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    horizon = SCALES[scale].sim_horizon

    series = list(fleet_series(scale, seed).values())
    means = np.asarray([s.relative("cpu").mean() for s in series])
    cloud = series[int(np.argmax(means))].relative("cpu")
    _, grid, _ = generate_grid_host_series(horizon, seed + 200)

    # Cap the series length so the AR walk-forward stays fast.
    cloud = cloud[:2880]
    grid = grid[:2880]

    rows = []
    best: dict[str, float] = {}
    for name, load in (("Google", cloud), ("Grid", grid)):
        scores = compare_predictors(_predictors(), load)
        best[name] = scores[0].rmse
        for s in scores:
            rows.append((name, s.predictor, round(s.rmse, 5), round(s.mae, 5)))

    ratio = best["Google"] / max(best["Grid"], 1e-12)
    return ExperimentResult(
        experiment_id="ext2",
        title="Host-load predictability, Cloud vs Grid",
        tables=(
            ResultTable.build(
                "walk-forward one-step errors (5-minute horizon)",
                ("host", "predictor", "rmse", "mae"),
                rows,
            ),
        ),
        metrics={
            "best_cloud_rmse": round(best["Google"], 5),
            "best_grid_rmse": round(best["Grid"], 5),
            "cloud_over_grid_error_ratio": round(float(ratio), 1),
            "cloud_harder_to_predict": bool(ratio > 2),
        },
        paper_reference={
            "finding": (
                "it is more challenging to predict Google cluster's host "
                "load because of its higher noise and more unstable state "
                "(Sec. IV.B)"
            ),
        },
        notes="Every predictor does worse on the Cloud host.",
    )
