"""Arrival processes: steady Cloud streams and bursty diurnal Grid ones.

The fairness index of hourly submission counts (Table I) is a direct
function of the counts' coefficient of variation: ``f = 1/(1 + CV^2 +
1/mu)`` for doubly-stochastic Poisson counts. We therefore generate
arrivals hour by hour — each hour's rate drawn from a gamma mixing
distribution shaped by a diurnal profile — which lets a preset dial in
the exact (mean rate, fairness) pair the paper reports per system.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..core.fairness import HOUR

__all__ = [
    "DoublyStochasticArrivals",
    "cv_for_fairness",
    "diurnal_profile",
]


def cv_for_fairness(fairness: float, mean_per_hour: float) -> float:
    """Coefficient of variation of hourly counts that yields a fairness.

    Inverts ``f = 1/(1 + CV^2 + 1/mu)`` (the extra ``1/mu`` is the
    Poisson sampling noise on top of the rate variation). Returns the
    CV of the *rate* process.
    """
    if not 0 < fairness <= 1:
        raise ValueError("fairness must be in (0, 1]")
    if mean_per_hour <= 0:
        raise ValueError("mean_per_hour must be positive")
    cv2 = 1.0 / fairness - 1.0 - 1.0 / mean_per_hour
    return float(np.sqrt(max(cv2, 0.0)))


def diurnal_profile(hours: np.ndarray, amplitude: float, peak_hour: float = 14.0) -> np.ndarray:
    """Mean-1 sinusoidal day/night modulation of hourly rates.

    ``amplitude`` in [0, 1): relative swing around the mean; the peak
    lands at ``peak_hour`` o'clock.
    """
    if not 0 <= amplitude < 1:
        raise ValueError("amplitude must be in [0, 1)")
    hours = np.asarray(hours, dtype=np.float64)
    phase = 2 * np.pi * (hours - peak_hour) / 24.0
    return 1.0 + amplitude * np.cos(phase)


@dataclass(frozen=True)
class DoublyStochasticArrivals:
    """Gamma-modulated Poisson arrivals with optional diurnal shape.

    Per hour ``i``: rate ``lambda_i = mu * D(i) * G_i`` with ``D`` the
    mean-1 diurnal profile and ``G_i`` i.i.d. gamma with mean 1 and the
    CV needed so the *total* hourly-count CV matches ``target_cv``.
    Arrival times are uniform within each hour given its count.

    An optional ``busy_factor`` multiplies the rate inside
    ``busy_window`` (in seconds) — the paper's Fig. 10 shows such a
    busy stretch on days 21-25 of the Google trace.
    """

    mean_per_hour: float
    target_cv: float = 0.0
    diurnal_amplitude: float = 0.0
    peak_hour: float = 14.0
    busy_window: tuple[float, float] | None = None
    busy_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_per_hour <= 0:
            raise ValueError("mean_per_hour must be positive")
        if self.target_cv < 0:
            raise ValueError("target_cv must be non-negative")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.busy_factor <= 0:
            raise ValueError("busy_factor must be positive")

    def hourly_rates(self, rng: np.random.Generator, n_hours: int) -> np.ndarray:
        """Draw the modulated per-hour rates (before Poisson sampling)."""
        hours = np.arange(n_hours, dtype=np.float64)
        profile = diurnal_profile(hours % 24, self.diurnal_amplitude, self.peak_hour)
        cv_d2 = self.diurnal_amplitude**2 / 2.0
        cv_g2 = max((1.0 + self.target_cv**2) / (1.0 + cv_d2) - 1.0, 0.0)
        if cv_g2 > 0:
            shape = 1.0 / cv_g2
            gamma = rng.gamma(shape, 1.0 / shape, n_hours)
        else:
            gamma = np.ones(n_hours)
        rates = self.mean_per_hour * profile * gamma
        if self.busy_window is not None:
            start, end = self.busy_window
            hour_start = hours * HOUR
            in_window = (hour_start >= start) & (hour_start < end)
            rates[in_window] *= self.busy_factor
        return rates

    def generate(self, rng: np.random.Generator, horizon: float) -> np.ndarray:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        n_hours = int(np.ceil(horizon / HOUR))
        rates = self.hourly_rates(rng, n_hours)
        counts = rng.poisson(rates)
        total = int(counts.sum())
        offsets = rng.uniform(0.0, HOUR, total)
        hour_of = np.repeat(np.arange(n_hours, dtype=np.float64), counts)
        times = hour_of * HOUR + offsets
        times = times[times < horizon]
        return np.sort(times)

    def iter_generate(
        self,
        rng: np.random.Generator,
        horizon: float,
        *,
        block_tasks: int = 4_194_304,
    ) -> Iterator[np.ndarray]:
        """Stream :meth:`generate`'s arrivals in bounded hour blocks.

        Concatenating the yielded arrays is bit-identical to the one-shot
        :meth:`generate` call with the same ``rng`` state, for any
        ``block_tasks``:

        * the rate and Poisson-count draws are the same single full-size
          calls, so the stream position entering the offset draws matches;
        * consecutive ``uniform(0, HOUR, k)`` calls fill the PCG64 stream
          sequentially (64 bits per double), so per-block offset draws
          concatenate to the one full-size draw;
        * hour value ranges are disjoint half-open intervals, so sorting
          each consecutive hour block separately equals the global sort.

        Peak memory is a few block-sized temporaries (the offsets, the
        hour index, the times and their filtered and sorted copies, each
        roughly ``block_tasks`` float64 values) plus the per-hour
        rate/count vectors, instead of four full-horizon arrays.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if block_tasks <= 0:
            raise ValueError("block_tasks must be positive")
        n_hours = int(np.ceil(horizon / HOUR))
        rates = self.hourly_rates(rng, n_hours)
        counts = rng.poisson(rates)
        block_hours = max(1, int(block_tasks / max(self.mean_per_hour, 1.0)))
        for lo in range(0, n_hours, block_hours):
            hi = min(lo + block_hours, n_hours)
            block_counts = counts[lo:hi]
            total = int(block_counts.sum())
            offsets = rng.uniform(0.0, HOUR, total)
            hour_of = np.repeat(np.arange(lo, hi, dtype=np.float64), block_counts)
            times = hour_of * HOUR + offsets
            times = times[times < horizon]
            yield np.sort(times)
