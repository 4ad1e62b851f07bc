"""Statistical characterization toolkit — the paper's methodology."""

from .compare import (
    CloudGridComparison,
    SystemWorkload,
    compare_systems,
    job_interarrival_times,
)
from .diskcache import MISS, CacheStats, DiskCache, cache_key, fingerprint
from .distributions import (
    BoundedPareto,
    Deterministic,
    Distribution,
    Exponential,
    LogNormal,
    Mixture,
    Uniform,
)
from .ecdf import ECDF, ecdf, histogram_counts
from .fit import (
    CANDIDATE_FAMILIES,
    FittedModel,
    fit_best,
    fit_bounded_pareto,
    fit_exponential,
    fit_lognormal,
    fit_weibull,
    ks_statistic,
)
from .fairness import (
    SubmissionRateStats,
    hourly_counts,
    jain_fairness,
    submission_rate_stats,
)
from .kernels import (
    MassCountAccumulator,
    grouped_sort_split,
    pooled_level_durations,
)
from .masscount import MassCount, joint_ratio_label, mass_count
from .noise import autocorrelation, mean_filter, noise_series, noise_stats
from .report import format_number, render_kv, render_table
from .spectral import daily_profile_amplitude, folded_daily_profile
from .segments import (
    DEFAULT_USAGE_LEVELS,
    QUEUE_STATE_LEVELS,
    Segments,
    constant_segments,
    discretize,
    level_durations,
    usage_level_labels,
)
from .summary import fraction_below
from .table import Table, concat_tables
from .timing import StageStats, Timings, render_timings
from .usage import memory_usage_mb

__all__ = [
    "BoundedPareto",
    "MassCountAccumulator",
    "grouped_sort_split",
    "pooled_level_durations",
    "CANDIDATE_FAMILIES",
    "CacheStats",
    "CloudGridComparison",
    "Deterministic",
    "DiskCache",
    "Distribution",
    "Exponential",
    "FittedModel",
    "LogNormal",
    "MISS",
    "Mixture",
    "StageStats",
    "Table",
    "Timings",
    "Uniform",
    "cache_key",
    "fingerprint",
    "concat_tables",
    "job_interarrival_times",
    "daily_profile_amplitude",
    "fit_best",
    "folded_daily_profile",
    "fit_bounded_pareto",
    "fit_exponential",
    "fit_lognormal",
    "fit_weibull",
    "ks_statistic",
    "DEFAULT_USAGE_LEVELS",
    "ECDF",
    "MassCount",
    "QUEUE_STATE_LEVELS",
    "Segments",
    "SubmissionRateStats",
    "SystemWorkload",
    "autocorrelation",
    "compare_systems",
    "constant_segments",
    "discretize",
    "ecdf",
    "fraction_below",
    "format_number",
    "histogram_counts",
    "hourly_counts",
    "jain_fairness",
    "joint_ratio_label",
    "level_durations",
    "mass_count",
    "mean_filter",
    "memory_usage_mb",
    "noise_series",
    "noise_stats",
    "render_kv",
    "render_table",
    "render_timings",
    "submission_rate_stats",
    "usage_level_labels",
]
