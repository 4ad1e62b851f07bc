"""Command-line harness: regenerate the paper's tables and figures.

Usage::

    repro-experiments --list
    repro-experiments                     # run everything at paper scale
    repro-experiments fig4 tab1 --scale small --seed 1
    repro-experiments --jobs 4 --profile  # parallel, with a timing footer
    repro-experiments --json timing.json  # machine-readable run report

    repro-run --jobs 4 --retries 2 --timeout 600   # supervised run
    repro-run --resume <run-id>                    # finish an interrupted run

Rendered results go to stdout in id order and depend only on
``(scale, seed)``, so ``--jobs N`` output is byte-identical to a
serial run — and so is a faulted-but-recovered or resumed run. Timing
footers, the JSON report, the run id and error reports go to stderr /
the ``--json`` target, keeping stdout reproducible.

Fault tolerance: ``--retries`` re-attempts worker crashes, timeouts and
cache corruption with seeded exponential backoff; ``--timeout`` kills
hung workers; ``--deadline`` bounds the whole run. With a cache dir,
finished experiments checkpoint to a journal so ``--resume <run-id>``
re-executes only unfinished work. ``--fault-plan`` (or the
``REPRO_FAULT_PLAN`` environment variable) injects deterministic
faults — see :mod:`repro.experiments.faults`.

Datasets are cached on disk under ``--cache-dir`` (default:
``$REPRO_CACHE_DIR`` or ``~/.cache/repro/datasets``); a second run at
the same scale/seed is a warm-cache operation with zero trace
generation or simulation. ``--no-cache`` disables the disk cache.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from collections.abc import Sequence
from pathlib import Path

from ..core.supervise import Policy
from ..core.timing import Timings, render_timings
from .datasets import (
    SCALES,
    BackendSpec,
    configure_backend,
    configure_cache,
    default_cache_dir,
    reset_dataset_stats,
)
from .faults import PLAN_ENV, FaultPlan, plan_from_env
from .registry import EXPERIMENTS
from .supervisor import (
    journal_path,
    load_journal,
    needs_workers,
    run_id,
    run_supervised,
    write_journal_header,
)

__all__ = ["main"]

_DEFAULT_SCALE = "paper"
_DEFAULT_SEED = 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Characterization and "
            "Comparison of Cloud versus Grid Workloads' (CLUSTER 2012)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help=f"dataset scale (default: {_DEFAULT_SCALE})",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="random seed (default: 0)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments over N worker processes (default: 1)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-experiment wall-clock budget; a worker past it is "
            "killed and the attempt classified 'timeout'"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "extra attempts per experiment for transient failures "
            "(crash/timeout/cache corruption), with seeded exponential "
            "backoff (default: 0)"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "overall run budget; past it, live workers are terminated "
            "and remaining experiments report 'cancelled'"
        ),
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        default=None,
        help=(
            "resume an interrupted run from its checkpoint journal, "
            "re-executing only unfinished experiments (requires the "
            "same cache dir)"
        ),
    )
    stop_policy = parser.add_mutually_exclusive_group()
    stop_policy.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        help="cancel the rest of the run on the first permanent failure",
    )
    stop_policy.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="run every experiment even after failures (default)",
    )
    parser.set_defaults(fail_fast=False)
    parser.add_argument(
        "--fault-plan",
        metavar="PATH_OR_JSON",
        default=None,
        help=(
            "inject deterministic faults from a JSON plan (file path or "
            "inline JSON; also read from $REPRO_FAULT_PLAN)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help=(
            "dataset disk-cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro/datasets)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk dataset cache (and run journaling)",
    )
    parser.add_argument(
        "--backend",
        choices=("memory", "sharded"),
        default="memory",
        help=(
            "dataset backend: in-memory arrays, or out-of-core sharded "
            "tables streamed by map-reduce kernels (byte-identical "
            "output, bounded peak memory)"
        ),
    )
    parser.add_argument(
        "--shard-rows",
        type=int,
        default=1_000_000,
        metavar="N",
        help="rows per shard for --backend sharded (default: 1000000)",
    )
    parser.add_argument(
        "--block-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "kill a sharded map-reduce block worker stuck longer than "
            "this and retry it (default: no block timeout)"
        ),
    )
    parser.add_argument(
        "--block-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "extra attempts per crashed/timed-out map-reduce block "
            "before it runs inline (default: 2)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable timing/cache report ('-' = stderr)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing footer to stderr",
    )
    return parser


def _json_report(
    args: argparse.Namespace,
    outcomes,
    timings: Timings,
    cache_dir: Path | None,
    *,
    scale: str,
    seed: int,
    run: str | None,
) -> dict[str, object]:
    per_experiment = []
    for outcome in outcomes:
        stages = outcome.timings.stages
        run_stage = stages.get(f"run:{outcome.experiment_id}")
        entry: dict[str, object] = {
            "id": outcome.experiment_id,
            "ok": outcome.ok,
            "attempts": outcome.attempts,
            "resumed": outcome.resumed,
            "wall_s": round(run_stage.wall_s, 6) if run_stage else None,
            "cpu_s": round(run_stage.cpu_s, 6) if run_stage else None,
        }
        if not outcome.ok:
            entry["error"] = outcome.error
            entry["error_kind"] = outcome.error_kind
        per_experiment.append(entry)
    # ru_maxrss is KiB on Linux; take the worst of this process and its
    # reaped workers so a bounded-memory claim covers the whole tree.
    peak_rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "scale": scale,
        "seed": seed,
        "jobs": args.jobs,
        "run_id": run,
        "backend": {
            "name": args.backend,
            "shard_rows": args.shard_rows,
            "block_timeout": args.block_timeout,
            "block_retries": args.block_retries,
        },
        "peak_rss_kb": int(peak_rss_kb),
        "cache": {
            "enabled": cache_dir is not None,
            "dir": str(cache_dir) if cache_dir is not None else None,
        },
        "experiments": per_experiment,
        **timings.as_dict(),
    }


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        if args.experiments:
            print(
                "--list cannot be combined with experiment ids: "
                f"{args.experiments}",
                file=sys.stderr,
            )
            return 2
        for exp_id, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            first = doc[0] if doc else ""
            print(f"{exp_id:8s} {first}")
        return 0
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.shard_rows < 1:
        print(
            f"--shard-rows must be >= 1, got {args.shard_rows}",
            file=sys.stderr,
        )
        return 2
    if args.retries < 0:
        print(f"--retries must be >= 0, got {args.retries}", file=sys.stderr)
        return 2
    if args.block_retries < 0:
        print(
            f"--block-retries must be >= 0, got {args.block_retries}",
            file=sys.stderr,
        )
        return 2
    if args.block_timeout is not None and args.block_timeout <= 0:
        print(
            f"--block-timeout must be > 0, got {args.block_timeout}",
            file=sys.stderr,
        )
        return 2
    for name in ("timeout", "deadline"):
        value = getattr(args, name)
        if value is not None and value <= 0:
            print(f"--{name} must be > 0, got {value}", file=sys.stderr)
            return 2

    try:
        if args.fault_plan is not None:
            plan = FaultPlan.load(args.fault_plan)
        else:
            plan = plan_from_env()
    except (OSError, ValueError, TypeError) as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return 2

    cache_dir: Path | None
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
    else:
        cache_dir = default_cache_dir()

    scale = args.scale if args.scale is not None else _DEFAULT_SCALE
    seed = args.seed if args.seed is not None else _DEFAULT_SEED
    ids = args.experiments or list(EXPERIMENTS)
    completed = None
    if args.resume is not None:
        if cache_dir is None:
            print(
                "--resume needs the checkpoint journal; it cannot be "
                "combined with --no-cache",
                file=sys.stderr,
            )
            return 2
        if args.experiments:
            print(
                "--resume restores the original experiment list; drop the "
                f"explicit ids {args.experiments}",
                file=sys.stderr,
            )
            return 2
        journal = journal_path(cache_dir, args.resume)
        if not journal.exists():
            print(
                f"no journal for run {args.resume} under {cache_dir}",
                file=sys.stderr,
            )
            return 2
        header, completed = load_journal(journal)
        for flag, given, recorded in (
            ("--scale", args.scale, header.get("scale")),
            ("--seed", args.seed, header.get("seed")),
        ):
            if given is not None and given != recorded:
                print(
                    f"{flag} {given} conflicts with resumed run "
                    f"{args.resume} (recorded: {recorded})",
                    file=sys.stderr,
                )
                return 2
        ids = [str(i) for i in header.get("ids", ids)]
        scale = str(header.get("scale", scale))
        seed = int(header.get("seed", seed))  # type: ignore[arg-type]
        done = sum(1 for o in completed.values() if o.ok)
        print(
            f"resuming run {args.resume}: scale={scale} seed={seed}, "
            f"{done}/{len(ids)} experiments already finished",
            file=sys.stderr,
        )

    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2

    configure_cache(cache_dir)
    configure_backend(
        BackendSpec(
            name=args.backend,
            shard_rows=args.shard_rows,
            jobs=args.jobs,
            block_timeout=args.block_timeout,
            block_retries=args.block_retries,
        )
    )
    if args.fault_plan is not None:
        # The shard-fault and spill hooks, built in each experiment
        # worker, read the plan from the environment; export an explicit
        # --fault-plan so the out-of-core fault kinds reach them too.
        os.environ[PLAN_ENV] = args.fault_plan
    reset_dataset_stats()

    config = Policy(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        deadline=args.deadline,
        fail_fast=args.fail_fast,
    )
    journal = None
    run = None
    if needs_workers(config, plan, completed) and cache_dir is not None:
        run = run_id(ids, scale, seed)
        journal = journal_path(cache_dir, run)
        if args.resume is None:
            write_journal_header(journal, ids, scale, seed)
        print(
            f"run id: {run} (resume an interrupted run with --resume {run})",
            file=sys.stderr,
        )

    timings = Timings()
    with timings.stage("total"):
        outcomes = run_supervised(
            ids,
            scale=scale,
            seed=seed,
            config=config,
            timings=timings,
            plan=plan,
            journal=journal,
            completed=completed,
        )

    failures = []
    for outcome in outcomes:
        if outcome.ok:
            print(outcome.rendered)
            print()
        else:
            failures.append(outcome)
            kind = f" [{outcome.error_kind}]" if outcome.error_kind else ""
            print(
                f"experiment {outcome.experiment_id} failed{kind}: "
                f"{outcome.error}",
                file=sys.stderr,
            )
    if failures:
        failed_ids = [o.experiment_id for o in failures]
        print(
            f"{len(failures)}/{len(outcomes)} experiments failed: {failed_ids}",
            file=sys.stderr,
        )

    if args.profile:
        print(render_timings(timings), file=sys.stderr)
    if args.json is not None:
        report = _json_report(
            args, outcomes, timings, cache_dir, scale=scale, seed=seed, run=run
        )
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(text, file=sys.stderr)
        else:
            Path(args.json).write_text(text + "\n")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
