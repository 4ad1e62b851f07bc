"""Distribution toolkit for workload synthesis.

Provides the heavy-tailed building blocks trace models need — bounded
Pareto, truncated lognormal and weighted mixtures — all drawing from
an injected :class:`numpy.random.Generator` so every synthetic trace
is reproducible from its seed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Distribution",
    "Exponential",
    "Uniform",
    "LogNormal",
    "BoundedPareto",
    "Mixture",
    "Deterministic",
]


class Distribution:
    """Interface: a sampleable, positive-valued distribution."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean (used by calibration tests)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Always returns ``value``."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("value must be non-negative")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution with the given mean."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError("mean must be positive")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self.mean_value, size)

    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on ``[low, high)``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low < self.high:
            raise ValueError("require 0 <= low < high")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Lognormal parameterized by its *median* and log-space sigma.

    Optionally truncated to ``[low, high]`` by resampling (the mass cut
    off must stay small for the analytic mean to remain a good guide).
    """

    median: float
    sigma: float
    low: float = 0.0
    high: float = np.inf

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma <= 0:
            raise ValueError("median and sigma must be positive")
        if not 0 <= self.low < self.high:
            raise ValueError("require 0 <= low < high")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        mu = np.log(self.median)
        out = rng.lognormal(mu, self.sigma, size)
        bad = (out < self.low) | (out > self.high)
        # Resample the out-of-range draws (vectorized rejection).
        while np.any(bad):
            out[bad] = rng.lognormal(mu, self.sigma, int(bad.sum()))
            bad = (out < self.low) | (out > self.high)
        return out

    def mean(self) -> float:
        # Untruncated analytic mean; truncation is assumed mild.
        return float(self.median * np.exp(self.sigma**2 / 2))


@dataclass(frozen=True)
class BoundedPareto(Distribution):
    """Pareto truncated to ``[low, high]`` via inverse-CDF sampling.

    ``alpha < 1`` gives the very heavy tails that dominate the mean —
    the regime of Google's long-running service tasks.
    """

    alpha: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 < self.low < self.high:
            raise ValueError("require 0 < low < high")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.uniform(0.0, 1.0, size)
        la, ha = self.low**self.alpha, self.high**self.alpha
        # Inverse CDF of the bounded Pareto.
        return (la / (1.0 - u * (1.0 - la / ha))) ** (1.0 / self.alpha)

    def mean(self) -> float:
        a, lo, hi = self.alpha, self.low, self.high
        norm = 1.0 - (lo / hi) ** a
        if abs(a - 1.0) < 1e-12:
            return float(lo * np.log(hi / lo) / norm)
        return float(
            (a / (1.0 - a)) * lo**a * (hi ** (1.0 - a) - lo ** (1.0 - a)) / norm
        )


class Mixture(Distribution):
    """Weighted mixture of arbitrary component distributions."""

    def __init__(
        self, components: Sequence[Distribution], weights: Sequence[float]
    ) -> None:
        if len(components) != len(weights) or not components:
            raise ValueError("components and weights must be equal-length, non-empty")
        weights_arr = np.asarray(weights, dtype=np.float64)
        if np.any(weights_arr < 0) or abs(weights_arr.sum() - 1) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        self.components = tuple(components)
        self.weights = weights_arr

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        choice = rng.choice(len(self.components), size=size, p=self.weights)
        out = np.empty(size)
        for i, comp in enumerate(self.components):
            mask = choice == i
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(rng, count)
        return out

    def mean(self) -> float:
        return float(
            sum(w * c.mean() for w, c in zip(self.weights, self.components))
        )
