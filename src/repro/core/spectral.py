"""Diurnal structure: the folded daily profile and its amplitude.

The related work the paper builds on (H. Li's Grid workload dynamics)
shows Grid load has strong diurnal periodicity exploitable for
prediction, while Section IV finds Google load nearly structureless.
Folding a series by day and measuring the swing of the mean profile
quantifies that contrast (extension ext1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["folded_daily_profile", "daily_profile_amplitude"]


def folded_daily_profile(
    values: np.ndarray, samples_per_day: int
) -> np.ndarray:
    """Average value per position-in-day (fold the series by day).

    Whole days only; trailing partial days are dropped. This is the
    robust way to expose diurnal structure in bursty series, where the
    burst noise swamps a raw periodogram.
    """
    values = np.asarray(values, dtype=np.float64)
    if samples_per_day < 2:
        raise ValueError("samples_per_day must be >= 2")
    n_days = values.size // samples_per_day
    if n_days < 1:
        raise ValueError("series shorter than one day")
    folded = values[: n_days * samples_per_day].reshape(
        n_days, samples_per_day
    )
    return folded.mean(axis=0)


def daily_profile_amplitude(
    values: np.ndarray, samples_per_day: int
) -> float:
    """Relative swing of the folded daily profile: (max-min)/mean.

    ~0 for flat Cloud submission streams; large for diurnal Grid
    streams (the day/night cycle the paper's Grids exhibit).
    """
    profile = folded_daily_profile(values, samples_per_day)
    mean = float(profile.mean())
    if mean <= 0:
        return 0.0
    return float((profile.max() - profile.min()) / mean)
