"""Failure semantics: how far a task runs before each terminal fate.

The workload generator assigns every task instance a *fate* (finish,
fail, kill, lost — eviction instead happens mechanistically through
preemption). This module holds the parameters that decide the
effective run time for each fate and whether a dead task is
resubmitted, reproducing the paper's Sec. IV.B.1 event mix: ~59% of the
44M completion events are abnormal, dominated by fail (~50% of
abnormal) and kill (~30.7%). The engine (:mod:`repro.sim.soa` and its
C kernel) makes each draw with one ``rng.random()`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FailureModel"]


@dataclass(frozen=True)
class FailureModel:
    """Run-fraction ranges per fate plus resubmission policy.

    A task fated to fail, be killed, be lost or be evicted runs a
    uniform draw from its fate's ``(lo, hi)`` fraction of its duration;
    a finishing task runs all of it. Failed and evicted tasks retry
    with probability ``resubmit_prob`` up to ``max_resubmits`` times,
    each retry with a fate redrawn from ``refate_probs``; killed and
    lost tasks do not come back (the user gave up / the data is gone).
    """

    fail_fraction: tuple[float, float] = (0.02, 0.9)
    kill_fraction: tuple[float, float] = (0.02, 1.0)
    lost_fraction: tuple[float, float] = (0.02, 0.5)
    #: Fate-assigned (system-initiated) evictions, e.g. machine
    #: maintenance — preemption evictions happen mechanistically on top.
    evict_fraction: tuple[float, float] = (0.02, 0.8)
    resubmit_prob: float = 0.65
    max_resubmits: int = 3
    #: Fate distribution for *resubmitted* incarnations. Redrawing i.i.d.
    #: makes the completion-event mix equal this distribution regardless
    #: of retry depth — calibrated to Sec. IV.B.1's 59.2% abnormal.
    refate_probs: tuple[tuple[str, float], ...] = (
        ("finish", 0.408),
        ("fail", 0.296),
        ("kill", 0.182),
        ("evict", 0.104),
        ("lost", 0.010),
    )

    def __post_init__(self) -> None:
        for name in (
            "fail_fraction",
            "kill_fraction",
            "lost_fraction",
            "evict_fraction",
        ):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi <= 1:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi <= 1")
        if not 0 <= self.resubmit_prob <= 1:
            raise ValueError("resubmit_prob must be a probability")
        if self.max_resubmits < 0:
            raise ValueError("max_resubmits must be non-negative")
        total = sum(p for _, p in self.refate_probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"refate_probs must sum to 1, got {total}")
