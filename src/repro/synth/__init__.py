"""Synthetic workload generation calibrated to the paper's statistics."""

from .arrivals import (
    DoublyStochasticArrivals,
    cv_for_fairness,
    diurnal_profile,
)
from ..core.distributions import (
    BoundedPareto,
    Deterministic,
    Distribution,
    Exponential,
    LogNormal,
    Mixture,
    Uniform,
)
from .google_model import (
    FATE_CODES,
    GoogleConfig,
    TaskRequests,
    generate_google_jobs,
    generate_google_trace,
    generate_task_requests,
    generate_task_requests_chunked,
    iter_task_requests,
)
from .grid_hostload import GridHostConfig, generate_grid_host_series
from .grid_model import generate_all_grids, generate_grid_jobs, grid_preset
from .machines import DEFAULT_FLEET, FleetConfig, generate_machines
from .presets import (
    AUVERGRID_TASK_LENGTH,
    DAY,
    GOOGLE_JOB_LENGTH,
    GOOGLE_PRIORITY_JOB_WEIGHTS,
    GOOGLE_TASK_LENGTH,
    GRID_PRESETS,
    HOUR,
    GridSystemPreset,
)

__all__ = [
    "AUVERGRID_TASK_LENGTH",
    "BoundedPareto",
    "DAY",
    "DEFAULT_FLEET",
    "Deterministic",
    "Distribution",
    "DoublyStochasticArrivals",
    "Exponential",
    "FATE_CODES",
    "FleetConfig",
    "GOOGLE_JOB_LENGTH",
    "GOOGLE_PRIORITY_JOB_WEIGHTS",
    "GOOGLE_TASK_LENGTH",
    "GRID_PRESETS",
    "GoogleConfig",
    "GridHostConfig",
    "GridSystemPreset",
    "HOUR",
    "LogNormal",
    "Mixture",
    "TaskRequests",
    "Uniform",
    "cv_for_fairness",
    "diurnal_profile",
    "generate_all_grids",
    "generate_google_jobs",
    "generate_google_trace",
    "generate_grid_host_series",
    "generate_grid_jobs",
    "generate_machines",
    "generate_task_requests",
    "generate_task_requests_chunked",
    "iter_task_requests",
    "grid_preset",
]
