"""Small summary-statistics helpers shared by experiments and reports."""

from __future__ import annotations

import numpy as np

__all__ = ["fraction_below"]


def fraction_below(sample: np.ndarray, threshold: float) -> float:
    """Fraction of the sample strictly below a threshold."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        raise ValueError("sample must be non-empty")
    return float(np.count_nonzero(sample < threshold) / sample.size)
