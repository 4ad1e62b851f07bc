"""Order statistics and the regression verdicts of the benchmark.

A comparison follows the rules the benchmark was defined with: a metric
may worsen by at most its bound (a share of the parent's median); a
change counts as ``better`` only if it wins at least nine tenths of at
least ten alternating parent/change pairs and the medians lie further
apart than the parent's interquartile range; a metric whose spread is
wider than its bound is ``unresolved`` unless every change run beats
every parent run.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence

__all__ = ["median", "quartiles", "spread", "pair_wins", "worse_by", "verdict"]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles(n=4)``)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def pair_wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs in which the change beats the parent; ties count for neither."""
    return sum(_beats(c, p, better) for p, c in zip(parent, change))


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent)


def verdict(
    parent: Sequence[float], change: Sequence[float], bound: float, better: str
) -> str:
    """``better``, ``unresolved``, ``worse`` or ``unchanged`` for one metric.

    ``parent[i]`` and ``change[i]`` are the i-th pair of alternating runs.
    """
    pairs = min(len(parent), len(change))
    mid_parent, mid_change = median(parent), median(change)
    q1, q3 = quartiles(parent)
    if (
        pairs >= MIN_PAIRS
        and pair_wins(parent, change, better) >= WIN_SHARE * pairs
        and _beats(mid_change, mid_parent, better)
        and abs(mid_change - mid_parent) > q3 - q1
    ):
        return "better"
    every_run_better = all(_beats(c, p, better) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved"
    if worse_by(mid_parent, mid_change, better) > bound:
        return "worse"
    return "unchanged"
