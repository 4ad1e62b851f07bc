"""Event-driven cluster simulator (the paper's Section II model)."""

from .churn import ChurnModel, MachineOutage, sample_outages
from .cluster import ENGINES, ClusterSimulator, SimConfig, SimResult
from .constraints import Constraint, ConstraintModel, generate_attribute_matrix
from .engine import EventQueue
from .failures import FailureModel
from .job import jobs_from_events
from .machine import FleetState
from .monitor import (
    CLUSTER_SERIES_SCHEMA,
    MACHINE_USAGE_SCHEMA,
    MonitorConfig,
    UsageMonitor,
)
from .scheduler import (
    PLACEMENT_POLICIES,
    PendingQueue,
    choose_machine,
    choose_machine_columns,
)
from .soa import run_soa
from .task import SimTask, TaskColumns

__all__ = [
    "CLUSTER_SERIES_SCHEMA",
    "ChurnModel",
    "ClusterSimulator",
    "Constraint",
    "ConstraintModel",
    "ENGINES",
    "EventQueue",
    "FailureModel",
    "FleetState",
    "MACHINE_USAGE_SCHEMA",
    "MachineOutage",
    "MonitorConfig",
    "PLACEMENT_POLICIES",
    "PendingQueue",
    "SimConfig",
    "SimResult",
    "SimTask",
    "TaskColumns",
    "UsageMonitor",
    "choose_machine",
    "choose_machine_columns",
    "generate_attribute_matrix",
    "jobs_from_events",
    "run_soa",
    "sample_outages",
]
