"""Event-driven cluster simulator (the paper's Section II model)."""

from .churn import ChurnModel, MachineOutage, sample_outages
from .cluster import ClusterSimulator, SimConfig, SimResult
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
from .scheduler import PLACEMENT_POLICIES, choose_machine_columns
from .task import TaskColumns

__all__ = [
    "CLUSTER_SERIES_SCHEMA",
    "ChurnModel",
    "ClusterSimulator",
    "Constraint",
    "ConstraintModel",
    "EventQueue",
    "FailureModel",
    "FleetState",
    "MACHINE_USAGE_SCHEMA",
    "MachineOutage",
    "MonitorConfig",
    "PLACEMENT_POLICIES",
    "SimConfig",
    "SimResult",
    "TaskColumns",
    "UsageMonitor",
    "choose_machine_columns",
    "generate_attribute_matrix",
    "jobs_from_events",
    "sample_outages",
]
