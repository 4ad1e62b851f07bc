"""Empirical distribution functions and histograms.

The paper's workload figures (Figs. 3, 5, 6) are empirical CDFs and
Fig. 2 is a histogram. All functions are vectorized and operate on
plain 1-D arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ECDF", "ecdf", "histogram_counts"]


@dataclass(frozen=True)
class ECDF:
    """Empirical CDF of a sample.

    Attributes
    ----------
    values:
        Sorted distinct sample values.
    probabilities:
        ``P(X <= values[i])`` for each value; weakly increasing, ends at 1.
    """

    values: np.ndarray
    probabilities: np.ndarray
    #: ``probabilities`` with a leading 0, so evaluation below the
    #: sample minimum indexes cleanly. Built once here — evaluation
    #: sits in hot loops and must not re-allocate per call.
    _padded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_padded", np.concatenate(([0.0], self.probabilities))
        )

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the CDF at arbitrary points (right-continuous)."""
        x_arr = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.values, x_arr, side="right")
        out = self._padded[idx]
        return out if x_arr.ndim else float(out)

    def quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        """Inverse CDF: smallest value with CDF >= q."""
        q_arr = np.asarray(q, dtype=np.float64)
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError("quantile levels must be in [0, 1]")
        idx = np.searchsorted(self.probabilities, q_arr, side="left")
        idx = np.minimum(idx, len(self.values) - 1)
        out = self.values[idx]
        return out if q_arr.ndim else float(out)


def ecdf(sample: np.ndarray) -> ECDF:
    """Build the empirical CDF of a non-empty sample."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise ValueError("sample must be non-empty")
    if np.any(~np.isfinite(sample)):
        raise ValueError("sample contains non-finite values")
    values, counts = np.unique(sample, return_counts=True)
    probabilities = np.cumsum(counts) / sample.size
    return ECDF(values=values, probabilities=probabilities)


def histogram_counts(values: np.ndarray, categories: np.ndarray) -> np.ndarray:
    """Count occurrences of each category value (Fig. 2 histograms)."""
    values = np.asarray(values)
    categories = np.asarray(categories)
    return np.array(
        [int(np.count_nonzero(values == c)) for c in categories], dtype=np.int64
    )
