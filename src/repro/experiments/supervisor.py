"""Supervised experiment execution: timeouts, retries, checkpoint-resume.

The registry's experiments are pure functions of ``(scale, seed)``, so
a harness failure — a worker OOM-killed mid-simulation, a hang, a
corrupted cache entry — never changes *what* the run would produce,
only *whether* it finishes. Experiments are one task kind of the shared
executor (:mod:`repro.core.supervise`), which owns the worker
mechanics; this module adds what only experiments have:

* Attempts run in **forked** workers, so every worker inherits the
  dataset memo warmed once before the fan-out.
* Failures are classified — ``crash`` (worker died), ``timeout``
  (exceeded the per-experiment wall-clock budget and was killed),
  ``cache-corruption`` (a typed corruption error surfaced), or
  ``exception`` (the experiment itself raised). The first three are
  transient and retried with the executor's seeded backoff; exceptions
  are deterministic under the purity contract, so retrying them would
  waste exactly one identical failure per retry and they fail fast
  instead.
* Completed outcomes are appended to a fsync'd JSONL journal under the
  cache directory. ``repro-run --resume <run-id>`` replays finished
  experiments from the journal and executes only the rest; because the
  journal stores the rendered text verbatim, a resumed run's stdout is
  byte-identical to an uninterrupted one.
* An overall run deadline (and ``--fail-fast``) cancels gracefully:
  live workers are terminated, unstarted work is marked ``cancelled``,
  and everything already finished is kept (and journaled).

A run with one job and nothing to supervise — no timeout, retries,
deadline, fail-fast, fault plan, journal or resume — runs in-process
with no warm-up and no fork.

Scheduling order never affects output: results are returned in the
caller's id order, and each rendered result depends only on
``(scale, seed)``. Faults, retries and resume change timing and
counters — observability channels — never stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__
from ..core.diskcache import CacheCorruptionError
from ..core.fsutil import publish_atomically
from ..core.supervise import Executor, Policy
from ..core.timing import Timings
from . import datasets
from .faults import FaultPlan
from .registry import run_experiment

__all__ = [
    "ExperimentOutcome",
    "TRANSIENT_KINDS",
    "journal_path",
    "load_journal",
    "needs_workers",
    "run_id",
    "run_one",
    "run_supervised",
    "warm_datasets",
]

#: Failure classes the supervisor retries (capped by ``retries``).
#: ``exception`` is deterministic under the purity contract and is not.
TRANSIENT_KINDS = frozenset({"crash", "timeout", "cache-corruption"})

#: First-retry backoff, doubling per attempt up to the cap (seconds).
BACKOFF_BASE = 0.25
BACKOFF_CAP = 30.0


@dataclass
class ExperimentOutcome:
    """One experiment's rendered result (or failure) plus its cost."""

    experiment_id: str
    ok: bool
    rendered: str = ""
    error: str = ""
    #: "" on success; one of crash | timeout | exception |
    #: cache-corruption | cancelled on failure.
    error_kind: str = ""
    #: 1-based number of the attempt that produced this outcome.
    attempts: int = 1
    #: True when served from a resume journal instead of executed.
    resumed: bool = False
    timings: Timings = field(default_factory=Timings)

    def as_journal_dict(self) -> dict[str, object]:
        return {
            "id": self.experiment_id,
            "ok": self.ok,
            "rendered": self.rendered,
            "error": self.error,
            "error_kind": self.error_kind,
            "attempts": self.attempts,
        }

    @classmethod
    def from_journal_dict(cls, entry: Mapping[str, object]) -> "ExperimentOutcome":
        return cls(
            experiment_id=str(entry["id"]),
            ok=bool(entry["ok"]),
            rendered=str(entry.get("rendered", "")),
            error=str(entry.get("error", "")),
            error_kind=str(entry.get("error_kind", "")),
            attempts=int(entry.get("attempts", 1)),  # type: ignore[arg-type]
            resumed=True,
        )


def classify_exception(exc: BaseException) -> str:
    """Map an in-worker exception to a failure class."""
    if isinstance(exc, CacheCorruptionError):
        return "cache-corruption"
    return "exception"


def warm_datasets(scale: str, seed: int) -> None:
    """Build or disk-load the shared datasets once, ahead of a fan-out."""
    datasets.workload_dataset(scale, seed)
    datasets.simulation_dataset(scale, seed)


def run_one(
    experiment_id: str,
    scale: str,
    seed: int,
    *,
    attempt: int = 1,
    plan: FaultPlan | None = None,
) -> ExperimentOutcome:
    """Run and render one experiment, capturing failures and timing.

    The fault plan (if any) triggers before the experiment so injected
    misbehaviour lands on a precise ``(experiment, attempt)``.
    """
    outcome = ExperimentOutcome(
        experiment_id=experiment_id, ok=True, attempts=attempt
    )
    stats_before = dict(datasets.dataset_stats())
    try:
        if plan is not None:
            plan.trigger(experiment_id, attempt, timings=outcome.timings)
        with outcome.timings.stage(f"run:{experiment_id}"):
            result = run_experiment(experiment_id, scale=scale, seed=seed)
        with outcome.timings.stage(f"render:{experiment_id}"):
            outcome.rendered = result.render()
    except Exception as exc:
        outcome.ok = False
        outcome.error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        outcome.error_kind = classify_exception(exc)
    stats_after = datasets.dataset_stats()
    outcome.timings.merge_counts(
        {
            name: stats_after.get(name, 0) - stats_before.get(name, 0)
            for name in stats_after
        }
    )
    return outcome


# -- run identity and journal -------------------------------------------------


def run_id(ids: Sequence[str], scale: str, seed: int) -> str:
    """Deterministic id of one run configuration.

    A pure function of the experiment list, scale, seed and code
    version, so an interrupted invocation and its resume agree on the
    journal location without any session state.
    """
    payload = json.dumps(
        {
            "ids": list(ids),
            "scale": scale,
            "seed": seed,
            "version": __version__,
            "cache": datasets.DATASET_CACHE_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def journal_path(cache_dir: str | Path, run: str) -> Path:
    """Where the run's checkpoint journal lives under the cache dir."""
    return Path(cache_dir) / "runs" / run / "journal.jsonl"


def write_journal_header(
    path: Path, ids: Sequence[str], scale: str, seed: int
) -> None:
    """Start a fresh journal, replacing any previous run's in one step.

    The header is written to a temp sibling and renamed into place, so
    a kill at any point leaves either the old journal or the new header,
    never an empty file that would make ``--resume`` lose the recorded
    experiment list.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "run": run_id(ids, scale, seed),
        "ids": list(ids),
        "scale": scale,
        "seed": seed,
        "version": __version__,
    }
    tmp = path.with_suffix(".jsonl.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    publish_atomically(tmp, path, payload_synced=True)


def append_journal(path: Path, outcome: ExperimentOutcome) -> None:
    """Checkpoint one finished outcome (flushed and fsync'd).

    A SIGKILL mid-append leaves at most one truncated trailing line,
    which :func:`load_journal` tolerates; everything before it is
    durable, so a resume re-executes at most the in-flight experiments.
    """
    line = json.dumps(outcome.as_journal_dict(), sort_keys=True)
    # An append-only log of whole lines: a torn last line is skipped on
    # load, so appending in place is the durable protocol here.
    with open(path, "a", encoding="utf-8") as fh:  # reprolint: disable=REP801
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_journal(
    path: Path,
) -> tuple[dict[str, object], dict[str, ExperimentOutcome]]:
    """Read a journal: (header, completed outcomes by experiment id).

    Truncated or garbled trailing lines — the expected residue of a
    kill mid-write — are skipped rather than fatal.
    """
    header: dict[str, object] = {}
    completed: dict[str, ExperimentOutcome] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(entry, dict):
                continue
            if index == 0 and "run" in entry:
                header = entry
                continue
            if "id" not in entry:
                continue
            outcome = ExperimentOutcome.from_journal_dict(entry)
            completed[outcome.experiment_id] = outcome
    return header, completed


# -- experiments as a task kind of the shared executor ------------------------


def _child_main(
    conn,
    experiment_id: str,
    scale: str,
    seed: int,
    attempt: int,
    plan: FaultPlan | None,
) -> None:
    """Worker entry point: run one attempt, ship the outcome, exit.

    Forked, so the dataset memo and cache configuration are inherited.
    """
    try:
        conn.send(run_one(experiment_id, scale, seed, attempt=attempt, plan=plan))
    finally:
        conn.close()


class _ExperimentRun(Executor):
    """One supervised run: journal, resume, deadline and fail-fast."""

    def __init__(
        self,
        scale: str,
        seed: int,
        config: Policy,
        timings: Timings,
        plan: FaultPlan | None,
        journal: Path | None,
    ) -> None:
        super().__init__(
            _child_main,
            method="fork",
            jobs=config.jobs,
            timeout=config.timeout,
            retries=config.retries,
            deadline=config.deadline,
            seed=seed,
            backoff=(BACKOFF_BASE, BACKOFF_CAP),
        )
        self.scale = scale
        self.fail_fast = config.fail_fast
        self.timings = timings
        self.plan = plan
        self.journal = journal
        self.results: dict[str, ExperimentOutcome] = {}
        self.cancel_reason: str | None = None

    def args(self, experiment_id, attempt):
        return (experiment_id, self.scale, self.seed, attempt, self.plan)

    def on_message(self, worker, outcome: ExperimentOutcome) -> None:
        if (
            not outcome.ok
            and outcome.error_kind in TRANSIENT_KINDS
            and self.retry(worker)
        ):
            self.timings.count("retries")
            self.timings.count("requeued")
            return
        self.finish(outcome)
        if not outcome.ok and self.fail_fast:
            self.cancel_reason = (
                f"fail-fast after {outcome.experiment_id} failed "
                f"({outcome.error_kind})"
            )

    def on_failure(self, worker, kind: str) -> None:
        if kind == "crash":
            self.timings.count("worker_crashes")
            error = (
                f"worker for {worker.key} died with exit code "
                f"{worker.process.exitcode} (attempt {worker.attempt})"
            )
        else:
            self.timings.count("experiment_timeouts")
            error = (
                f"experiment {worker.key} exceeded its {self.timeout:.1f}s "
                f"timeout (attempt {worker.attempt}); worker killed"
                if self.timeout is not None
                else f"experiment {worker.key} killed at the run deadline "
                f"(attempt {worker.attempt})"
            )
        self.on_message(
            worker,
            ExperimentOutcome(
                experiment_id=worker.key,
                ok=False,
                error=error,
                error_kind=kind,
                attempts=worker.attempt,
            ),
        )

    def finish(self, outcome: ExperimentOutcome) -> None:
        self.results[outcome.experiment_id] = outcome
        self.timings.merge(outcome.timings)
        if self.journal is not None and outcome.error_kind != "cancelled":
            append_journal(self.journal, outcome)

    def stop(self) -> bool:
        """Cancel everything left at the run deadline or on fail-fast."""
        if self.past_deadline():
            reason = "run deadline exceeded"
        elif self.cancel_reason is not None:
            reason = self.cancel_reason
        else:
            return False
        left = [(w.key, w.attempt) for w in self.running] + [
            (item.key, max(1, item.attempt - 1)) for item in self.pending
        ]
        self.reap()
        self.pending.clear()
        for experiment_id, attempts in left:
            self.finish(
                ExperimentOutcome(
                    experiment_id=experiment_id,
                    ok=False,
                    error=f"cancelled: {reason}",
                    error_kind="cancelled",
                    attempts=attempts,
                )
            )
            self.timings.count("cancelled")
        return True


def needs_workers(
    config: Policy,
    plan: FaultPlan | None,
    completed: Mapping[str, ExperimentOutcome] | None,
) -> bool:
    """Whether a run is supervised: more than one job, a fault-tolerance
    setting, a fault plan, or a resume."""
    return (
        config.jobs > 1
        or config.timeout is not None
        or config.retries > 0
        or config.deadline is not None
        or config.fail_fast
        or plan is not None
        or completed is not None
    )


def run_supervised(
    ids: Sequence[str],
    *,
    scale: str = "paper",
    seed: int = 0,
    config: Policy | None = None,
    timings: Timings | None = None,
    plan: FaultPlan | None = None,
    journal: Path | None = None,
    completed: Mapping[str, ExperimentOutcome] | None = None,
) -> list[ExperimentOutcome]:
    """Run experiments; returns outcomes in id order.

    ``completed`` holds journal-loaded outcomes from an interrupted
    run: successful ones are served as-is (marked ``resumed``), failed
    ones are re-executed. When ``journal`` is given, every finished
    outcome is checkpointed there as it completes. The warm-up stage,
    every experiment's stages and the dataset counters are folded into
    ``timings``.
    """
    config = config if config is not None else Policy()
    timings = timings if timings is not None else Timings()
    parent_before = dict(datasets.dataset_stats())

    if not needs_workers(config, plan, completed) and journal is None:
        outcomes = [run_one(experiment_id, scale, seed) for experiment_id in ids]
        # Per-experiment counter deltas already accumulate in this
        # process's dataset stats (merged below); only stages here.
        for outcome in outcomes:
            timings.merge(outcome.timings, counters=False)
    else:
        resumed: dict[str, ExperimentOutcome] = {}
        for experiment_id in ids:
            previous = (completed or {}).get(experiment_id)
            if previous is not None and previous.ok:
                resumed[experiment_id] = previous
                timings.count("resumed")
        todo = [i for i in ids if i not in resumed]
        if todo:
            with timings.stage("warm-datasets"):
                warm_datasets(scale, seed)
        # Built after the warm-up, so the run deadline starts here.
        run = _ExperimentRun(scale, seed, config, timings, plan, journal)
        run.results.update(resumed)
        for experiment_id in todo:
            run.submit(experiment_id)
        run.run()
        outcomes = [run.results[experiment_id] for experiment_id in ids]

    # Run-level counters: the parent's own traffic (the warm-up, or
    # every in-process experiment) plus each worker's deltas (carried
    # in the outcomes' timings).
    parent_after = datasets.dataset_stats()
    timings.merge_counts(
        {
            name: parent_after.get(name, 0) - parent_before.get(name, 0)
            for name in parent_after
        }
    )
    return outcomes
