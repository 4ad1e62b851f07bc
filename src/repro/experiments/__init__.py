"""Experiment harness: one module per table/figure of the paper."""

from .base import ExperimentResult, ResultTable
from .datasets import (
    SCALES,
    ScaleSpec,
    WorkloadDataset,
    simulation_dataset,
    workload_dataset,
)
from . import (
    ext1_diurnal,
    ext2_prediction,
    ext3_consolidation,
    ext4_fitting,
    ext5_modes,
    fig2_priority,
    fig3_job_length,
    fig4_masscount_length,
    fig5_interarrival,
    fig6_job_resources,
    fig7_max_load,
    fig8_queue_state,
    fig9_queue_durations,
    fig10_usage_snapshot,
    fig11_cpu_usage_mc,
    fig12_mem_usage_mc,
    fig13_hostload_compare,
    scorecard,
    tab1_submission_rate,
    tab23_level_durations,
    txt1_completion_mix,
    txt2_task_length_stats,
)
from .registry import EXPERIMENTS, run_all, run_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ResultTable",
    "SCALES",
    "ScaleSpec",
    "WorkloadDataset",
    "run_all",
    "run_experiment",
    "simulation_dataset",
    "workload_dataset",
]
