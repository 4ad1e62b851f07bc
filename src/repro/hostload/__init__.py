"""Host-load reconstruction and analysis (the paper's Section IV)."""

from .levels import (
    LevelDurationStats,
    LevelSnapshot,
    duration_stats_by_level,
    level_snapshot,
    pooled_level_durations,
    usage_mass_count,
)
from .maxload import MaxLoadDistribution, max_load_by_capacity
from .modes import (
    FEATURE_NAMES,
    LoadModes,
    discover_modes,
    kmeans,
    machine_features,
)
from .priority import band_share, band_usage
from .queues import (
    QueueStateSeries,
    machine_queue_state,
    running_state_durations,
    task_spans,
)
from .series import MachineLoadSeries, all_machine_series, machine_series

__all__ = [
    "FEATURE_NAMES",
    "LevelDurationStats",
    "LevelSnapshot",
    "LoadModes",
    "MachineLoadSeries",
    "MaxLoadDistribution",
    "QueueStateSeries",
    "all_machine_series",
    "band_share",
    "discover_modes",
    "band_usage",
    "duration_stats_by_level",
    "kmeans",
    "machine_features",
    "level_snapshot",
    "machine_queue_state",
    "machine_series",
    "max_load_by_capacity",
    "pooled_level_durations",
    "running_state_durations",
    "task_spans",
    "usage_mass_count",
]
