"""Trace data model: schemas, tables, archive formats and I/O."""

from .convert import grid_jobs_to_job_table, job_interarrival_times
from .google import GoogleTrace, completion_mix, job_lengths, task_lengths
from .gwa import gwa_table, read_gwa, write_gwa
from .io import (
    TraceParseError,
    TraceParseWarning,
    load_trace,
    read_csv,
    save_trace,
    write_csv,
)
from .schema import (
    ABNORMAL_EVENTS,
    GWA_JOB_SCHEMA,
    HIGH_PRIORITIES,
    JOB_TABLE_SCHEMA,
    LOW_PRIORITIES,
    MACHINE_TABLE_SCHEMA,
    MIDDLE_PRIORITIES,
    NUM_PRIORITIES,
    SWF_JOB_SCHEMA,
    TASK_EVENT_SCHEMA,
    TASK_USAGE_SCHEMA,
    TERMINAL_EVENTS,
    PriorityBand,
    TaskEvent,
    TaskState,
    priority_band,
    priority_band_array,
)
from .swf import read_swf, swf_table, write_swf
from ..core.table import Table, concat_tables
from .validate import ValidationError, validate_job_table, validate_trace

__all__ = [
    "ABNORMAL_EVENTS",
    "GWA_JOB_SCHEMA",
    "GoogleTrace",
    "HIGH_PRIORITIES",
    "JOB_TABLE_SCHEMA",
    "LOW_PRIORITIES",
    "MACHINE_TABLE_SCHEMA",
    "MIDDLE_PRIORITIES",
    "NUM_PRIORITIES",
    "PriorityBand",
    "SWF_JOB_SCHEMA",
    "TASK_EVENT_SCHEMA",
    "TASK_USAGE_SCHEMA",
    "TERMINAL_EVENTS",
    "Table",
    "TaskEvent",
    "TaskState",
    "TraceParseError",
    "TraceParseWarning",
    "ValidationError",
    "completion_mix",
    "concat_tables",
    "grid_jobs_to_job_table",
    "gwa_table",
    "job_interarrival_times",
    "job_lengths",
    "load_trace",
    "priority_band",
    "priority_band_array",
    "read_csv",
    "read_gwa",
    "read_swf",
    "save_trace",
    "swf_table",
    "task_lengths",
    "validate_job_table",
    "validate_trace",
    "write_csv",
    "write_gwa",
    "write_swf",
]
