#!/usr/bin/env python3
"""Compare benchmark result sets of a parent commit and a change.

Usage, from the root of the repository::

    python3 bench/compare.py --parent bench/results/A1 bench/results/A2 ... \\
                             --change bench/results/B1 bench/results/B2 ...

Each argument is one result directory written by ``bench/run.py``; the
i-th parent and the i-th change directory form one pair, so run the two
commits alternately (parent first in one pair, change first in the
next). For every (workload, end-to-end metric) the table shows each
side's median and quartiles over its result sets, the change's pair
wins, and a verdict (see :func:`stats.verdict`) under the metric's
bound from ``BENCHMARK.json``. Result sets whose host records differ
(CPU count and model, library versions, C kernel, filesystem) are not
comparable: the script refuses them and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Host fields two comparable result sets must share.
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "cffi", "ckernel", "work_fs")


def load(result_dir: Path) -> tuple[dict, dict]:
    host = json.loads((result_dir / "host.json").read_text())
    summary = json.loads((result_dir / "summary.json").read_text())
    return host, summary


def host_mismatch(hosts: list[dict]) -> list[str]:
    """The host fields on which the result sets disagree."""
    return [key for key in HOST_KEYS if len({json.dumps(h.get(key)) for h in hosts}) > 1]


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) both sides measured."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for summaries in (parent, change):
                sides.append([
                    s["workloads"][workload]["end_to_end"][name]["median"]
                    for s in summaries
                    if name in s["workloads"].get(workload, {}).get("end_to_end", {})
                ])
            before, after = sides
            if not before or not after:
                continue
            wins = stats.pair_wins(before, after, metric["better"])
            rows.append({
                "workload": workload,
                "metric": name,
                "parent": (stats.median(before), *stats.quartiles(before)),
                "change": (stats.median(after), *stats.quartiles(after)),
                "delta": stats.worse_by(stats.median(before), stats.median(after), metric["better"]),
                "wins": f"{wins}/{min(len(before), len(after))}",
                "verdict": stats.verdict(before, after, metric["bound"], metric["better"]),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py", description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True, metavar="DIR")
    parser.add_argument("--change", nargs="+", type=Path, required=True, metavar="DIR")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    parent = [load(d) for d in args.parent]
    change = [load(d) for d in args.change]
    mismatch = host_mismatch([h for h, _ in parent + change])
    if mismatch:
        print(f"compare: host records differ in {', '.join(mismatch)}; refusing", file=sys.stderr)
        return 2
    print(f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'worse by':>9} {'wins':>6}  verdict")
    for row in compare([s for _, s in parent], [s for _, s in change], spec):
        p, c = row["parent"], row["change"]
        print(
            f"{row['workload']:<15} {row['metric']:<12} "
            f"{f'{p[0]:.4f} [{p[1]:.4f}, {p[2]:.4f}]':<30} "
            f"{f'{c[0]:.4f} [{c[1]:.4f}, {c[2]:.4f}]':<30} "
            f"{row['delta']:>+9.1%} {row['wins']:>6}  {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
