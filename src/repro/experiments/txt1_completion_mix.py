"""Sec. IV.B.1 in-text statistic — the completion-event mix.

Of ~44M task-completion events, ~59.2% are abnormal; among the
abnormal ones, ~50% are failures and ~30.7% kills.
"""

from __future__ import annotations

from .base import ExperimentResult, ResultTable
from .datasets import simulation_dataset

__all__ = ["run"]


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    data = simulation_dataset(scale, seed)
    mix = data.completion_mix()
    counts = data.counts

    abnormal = max(mix["abnormal"], 1e-12)
    fail_share = mix["fail"] / abnormal
    kill_share = mix["kill"] / abnormal

    rows = [
        (name, counts[name], round(mix[name], 3))
        for name in ("finish", "fail", "kill", "evict", "lost")
    ]
    rows.append(("abnormal(total)", sum(counts[k] for k in ("fail", "kill", "evict", "lost")), round(mix["abnormal"], 3)))
    return ExperimentResult(
        experiment_id="txt1",
        title="Completion-event mix",
        tables=(
            ResultTable.build(
                "completion events by terminal type",
                ("event", "count", "fraction"),
                rows,
            ),
        ),
        metrics={
            "abnormal_fraction": round(mix["abnormal"], 3),
            "fail_share_of_abnormal": round(fail_share, 3),
            "kill_share_of_abnormal": round(kill_share, 3),
            "fail_dominates_abnormal": fail_share > kill_share
            and fail_share > mix["evict"] / abnormal,
        },
        paper_reference={
            "abnormal_fraction": 0.592,
            "fail_share_of_abnormal": 0.50,
            "kill_share_of_abnormal": 0.307,
        },
        notes=(
            "Most completions are abnormal, led by failures then kills; "
            "evictions add on top via preemption."
        ),
    )
