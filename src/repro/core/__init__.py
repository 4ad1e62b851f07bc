"""Statistical characterization toolkit — the paper's methodology."""

from .compare import (
    CloudGridComparison,
    SystemWorkload,
    compare_systems,
    job_interarrival_times,
)
from .diskcache import MISS, CacheStats, DiskCache, cache_key, fingerprint
from .distance import cdf_area_distance, ks_two_sample, stochastically_smaller
from .distributions import (
    BoundedPareto,
    Deterministic,
    Distribution,
    Exponential,
    HyperExponential,
    LogNormal,
    Mixture,
    Uniform,
)
from .ecdf import ECDF, binned_pdf, ecdf, evaluate_cdf, histogram_counts, quantile
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
from .spectral import (
    acf,
    daily_profile_amplitude,
    diurnal_strength,
    dominant_period,
    folded_daily_profile,
    periodogram,
)
from .segments import (
    DEFAULT_USAGE_LEVELS,
    QUEUE_STATE_LEVELS,
    Segments,
    constant_segments,
    discretize,
    level_durations,
    usage_level_labels,
)
from .summary import SampleSummary, fraction_below, fraction_between, summarize
from .table import Table, concat_tables
from .timing import StageStats, Timings, render_timings
from .usage import cpu_usage_eq4, memory_usage_mb

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
    "HyperExponential",
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
    "acf",
    "cdf_area_distance",
    "daily_profile_amplitude",
    "diurnal_strength",
    "dominant_period",
    "fit_best",
    "folded_daily_profile",
    "fit_bounded_pareto",
    "fit_exponential",
    "fit_lognormal",
    "fit_weibull",
    "ks_statistic",
    "ks_two_sample",
    "periodogram",
    "stochastically_smaller",
    "DEFAULT_USAGE_LEVELS",
    "ECDF",
    "MassCount",
    "QUEUE_STATE_LEVELS",
    "SampleSummary",
    "Segments",
    "SubmissionRateStats",
    "SystemWorkload",
    "autocorrelation",
    "binned_pdf",
    "compare_systems",
    "constant_segments",
    "cpu_usage_eq4",
    "discretize",
    "ecdf",
    "evaluate_cdf",
    "fraction_below",
    "fraction_between",
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
    "quantile",
    "render_kv",
    "render_table",
    "render_timings",
    "submission_rate_stats",
    "summarize",
    "usage_level_labels",
]
