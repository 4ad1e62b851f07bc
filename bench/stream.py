"""The streamed pipeline: generate task requests, spill shards, fold them.

No command of the program runs this pipeline alone, so the benchmark
drives the library the way a user streaming a trace larger than memory
would: :func:`repro.synth.sharded.shard_task_requests` writes 30 days of
task submissions as 1M-row shards of ``submit_time`` and ``duration``,
then :func:`repro.core.mapreduce.map_reduce` (one process) folds the
hourly submission counts and the longest duration. Prints one JSON line
with the row totals and a digest of the hourly counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np

from repro.core import mapreduce
from repro.core.fairness import HourlyCountsAccumulator
from repro.synth import sharded
from repro.synth.google_model import GoogleConfig
from repro.synth.presets import DAY

HORIZON = 30 * DAY
SHARD_ROWS = 1_000_000
COLUMNS = ("submit_time", "duration")


def _fold_kernel(shard, horizon: float) -> dict:
    hours = HourlyCountsAccumulator(horizon)
    hours.add(np.asarray(shard["submit_time"]))
    duration = np.asarray(shard["duration"])
    return {"hours": hours, "max_duration": float(duration.max()), "rows": int(duration.size)}


def _merge(left: dict, right: dict) -> dict:
    left["hours"].merge(right["hours"])
    left["max_duration"] = max(left["max_duration"], right["max_duration"])
    left["rows"] += right["rows"]
    return left


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="stream")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tasks", type=float, required=True, help="tasks per 30 days")
    parser.add_argument("--out", required=True, help="directory for the shards")
    args = parser.parse_args(argv)

    table = sharded.shard_task_requests(
        args.out,
        HORIZON,
        seed=args.seed,
        config=GoogleConfig(busy_window=None),
        tasks_per_hour=args.tasks / (HORIZON / 3600.0),
        shard_rows=SHARD_ROWS,
        columns=COLUMNS,
    )
    summary = mapreduce.map_reduce(
        table, _fold_kernel, args=(HORIZON,), merge=_merge, jobs=1
    )
    counts = summary["hours"].counts()
    print(
        json.dumps(
            {
                "rows": summary["rows"],
                "num_rows": table.num_rows,
                "hourly_total": int(counts.sum()),
                "shards": table.num_shards,
                "hourly_sha256": hashlib.sha256(counts.tobytes()).hexdigest(),
                "max_duration": summary["max_duration"],
            },
            sort_keys=True,
        )
    )
    return 0 if summary["rows"] == table.num_rows == int(counts.sum()) else 1
