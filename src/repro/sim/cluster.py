"""Cluster simulator front-end.

Runs a :class:`~repro.synth.google_model.TaskRequests` stream through
the Section-II scheduling model (12 priorities, FCFS per priority,
preemptive, balance placement) over a heterogeneous fleet, producing

* a task-event log in the trace's TASK_EVENT_SCHEMA,
* machine-level 5-minute usage samples (the monitor),
* cluster-level queue-state series,
* completion-event counters.

These are exactly the inputs the host-load analyses (Figs. 7-13,
Tables II-III) consume. :meth:`ClusterSimulator.run` is one engine,
the structure-of-arrays loop of :mod:`repro.sim.soa`, which runs on
the compiled C kernel of :mod:`repro.sim._ckernel` when one is built
and covers the config, and on its Python loop otherwise. The scalar
object-per-task engine it replaced is the tests' oracle
(``tests/oracles.py``), held to the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.table import Table
from ..synth.google_model import TaskRequests
from .churn import ChurnModel
from .constraints import ConstraintModel
from .failures import FailureModel
from .monitor import MonitorConfig
from .scheduler import PLACEMENT_POLICIES
from .soa import run_soa

__all__ = ["SimConfig", "SimResult", "ClusterSimulator"]


@dataclass(frozen=True)
class SimConfig:
    """Scheduler and measurement configuration."""

    placement: str = "balance"
    preemption: bool = True
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    failures: FailureModel = field(default_factory=FailureModel)
    #: Optional placement-constraint model (machine attributes + per-
    #: task constraint sampling). None = unconstrained scheduling.
    constraints: ConstraintModel | None = None
    #: Optional machine availability churn. None = machines never fail.
    churn: ChurnModel | None = None

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"placement must be one of {PLACEMENT_POLICIES}, "
                f"got {self.placement!r}"
            )


@dataclass(frozen=True)
class SimResult:
    """Everything a simulation run produced."""

    task_events: Table
    machine_usage: Table
    cluster_series: Table
    machines: Table
    horizon: float
    counts: dict[str, int]

    def completion_mix(self) -> dict[str, float]:
        """Fractions of completion events per terminal type."""
        total = sum(
            self.counts[k] for k in ("finish", "fail", "kill", "evict", "lost")
        )
        if total == 0:
            return {
                k: 0.0
                for k in ("finish", "fail", "kill", "evict", "lost", "abnormal")
            }
        mix = {
            k: self.counts[k] / total
            for k in ("finish", "fail", "kill", "evict", "lost")
        }
        mix["abnormal"] = 1.0 - mix["finish"]
        return mix


class ClusterSimulator:
    """Event-driven simulation of the Google scheduling model."""

    def __init__(
        self,
        machines: Table,
        config: SimConfig | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        self.machines = machines
        self.config = config or SimConfig()
        self.rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )

    # -- public API ----------------------------------------------------------

    def run(self, requests: TaskRequests, horizon: float) -> SimResult:
        """Simulate ``[0, horizon]`` seconds of the request stream.

        Runs the structure-of-arrays engine
        (:func:`~repro.sim.soa.run_soa`): on the compiled C hot loop
        when a kernel is built and covers the config, on its Python
        loop otherwise, with byte-identical results either way. The
        failure model must be exactly :class:`FailureModel`, whose
        draws the engine inlines; a subclass raises ``TypeError``.
        """
        return run_soa(self, requests, horizon)
