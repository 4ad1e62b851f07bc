"""The benchmark's workloads: what each run executes, its set-up, its check.

Each workload is one command run repeatedly in fresh processes, with a
closed loop of one client: a run starts only after the previous one has
exited. The registry workloads use ``medium`` scale (``small`` under
``--smoke``), so that a run takes a few seconds and enough runs fit in
one measurement window; paper scale multiplies every run by 2-3x.
"""

from __future__ import annotations

import json
import shutil
import tarfile
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Outcome", "SetupError", "Workload", "all_workloads", "registry_failures"]

SCALE, SMOKE_SCALE = "medium", "small"
#: The experiments that run on the sharded backend.
SHARDED_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig13", "tab1")
#: Small enough that every sharded table has two or more shards at its scale.
SHARD_ROWS, SMOKE_SHARD_ROWS = 32768, 8192
STREAM_TASKS, SMOKE_STREAM_TASKS = 10_000_000, 500_000
#: ``git archive 49dd040 src benchmarks/results``: a frozen lint input, so
#: later changes to ``src/`` do not change the work ``lint_cold`` measures.
LINT_INPUT = Path(__file__).with_name("lint_input.tar.gz")


class SetupError(RuntimeError):
    """A workload's untimed set-up failed; the benchmark cannot run it."""


@dataclass
class Outcome:
    """What one finished run left behind, as its workload's check sees it."""

    exit_code: int
    stdout: bytes
    digest: str  # sha256 of stdout
    report: dict | None = None  # the registry's --json report


class Workload:
    """One command of the program, run in fresh processes."""

    name: str
    why: str
    entry: str  # key of drive.ENTRIES
    ops = 1  # operations one run attempts

    def setup(self, bench) -> None:
        """Untimed preparation in ``bench.work`` (caches, references)."""

    def args(self, bench) -> list[str]:
        """Arguments of one run; relative paths land in the run's own dir."""
        raise NotImplementedError

    def failures(self, outcome: Outcome) -> int:
        """How many of the run's ``ops`` operations failed."""
        raise NotImplementedError

    def recoveries(self, outcome: Outcome) -> int:
        """Map-reduce recoveries the program itself reported."""
        return 0


def registry_failures(outcome: Outcome, reference_digest: str, ops: int) -> int:
    """Failed experiments of one registry run.

    An experiment fails when the ``--json`` report says ``ok: false`` or
    does not list it; every experiment fails when the run's stdout is not
    byte-identical to the reference run's.
    """
    if outcome.report is None or outcome.digest != reference_digest:
        return ops
    listed = outcome.report.get("experiments", [])
    failed = sum(1 for entry in listed if not entry.get("ok"))
    return min(ops, failed + max(0, ops - len(listed)))


class Registry(Workload):
    """``repro-run`` over experiment ids, in one cache state and backend.

    ``mode`` is ``cold`` (an empty cache dir per run), ``warm`` (a cache
    filled in set-up), ``off`` (``--no-cache``) or ``sharded``
    (``--backend sharded --jobs 2`` on shards spilled in set-up). The
    reference is the serial in-memory run of the same ids and seed: the
    cache fill for ``warm``, a ``--no-cache`` run otherwise.
    """

    entry = "run"

    def __init__(self, name: str, why: str, mode: str, ids: tuple[str, ...] = ()):
        self.name, self.why, self.mode, self.ids = name, why, mode, ids
        self.reference: Outcome | None = None

    def _base(self, bench) -> list[str]:
        scale = SMOKE_SCALE if bench.smoke else SCALE
        return [*self.ids, "--scale", scale, "--seed", str(bench.seed), "--json", "report.json"]

    def _sharded(self, bench, jobs: int) -> list[str]:
        rows = SMOKE_SHARD_ROWS if bench.smoke else SHARD_ROWS
        return ["--backend", "sharded", "--jobs", str(jobs), "--shard-rows", str(rows)]

    def setup(self, bench) -> None:
        self.cache = bench.work / f"{self.name}-cache"
        base = self._base(bench)
        if self.mode == "warm":
            self.reference = bench.setup_run(self, "fill", [*base, "--cache-dir", str(self.cache)])
        else:
            self.reference = bench.setup_run(self, "reference", [*base, "--no-cache"])
        if self.mode == "sharded":
            # Spilled serially: a cold --jobs 2 spill races on the shared
            # spill directory (see README, "Findings for follow-up issues").
            fill = bench.setup_run(
                self, "fill", [*base, *self._sharded(bench, 1), "--cache-dir", str(self.cache)]
            )
            if fill.digest != self.reference.digest:
                raise SetupError(f"{self.name}: sharded spill run differs from the in-memory run")
        self.ops = len(self.reference.report["experiments"])

    def args(self, bench) -> list[str]:
        base = self._base(bench)
        if self.mode == "cold":
            return [*base, "--cache-dir", "cache"]
        if self.mode == "off":
            return [*base, "--no-cache"]
        if self.mode == "sharded":
            return [*base, *self._sharded(bench, 2), "--cache-dir", str(self.cache)]
        return [*base, "--cache-dir", str(self.cache)]

    def failures(self, outcome: Outcome) -> int:
        return registry_failures(outcome, self.reference.digest, self.ops)

    def recoveries(self, outcome: Outcome) -> int:
        counters = (outcome.report or {}).get("counters", {})
        return sum(v for k, v in counters.items() if k.startswith("mapreduce_"))


class _SelfConsistent(Workload):
    """A workload whose stdout must be identical in every run."""

    reference: str | None = None

    def valid(self, outcome: Outcome) -> bool:
        raise NotImplementedError

    def failures(self, outcome: Outcome) -> int:
        if not self.valid(outcome):
            return 1
        if self.reference is None:
            self.reference = outcome.digest
        return int(outcome.digest != self.reference)


class Stream(_SelfConsistent):
    """Generate, spill and fold a streamed task trace (``bench/stream.py``).

    Fails unless the fold's row total equals the table's row count and the
    hourly-count digest (stdout) is the same in every run.
    """

    name = "stream_10m"
    why = "10M streamed tasks generated, spilled to 1M-row shards and folded: no sim, no disk cache, no experiment code"
    entry = "stream"

    def args(self, bench) -> list[str]:
        tasks = SMOKE_STREAM_TASKS if bench.smoke else STREAM_TASKS
        return ["--seed", str(bench.seed), "--tasks", str(tasks), "--out", "shards"]

    def valid(self, outcome: Outcome) -> bool:
        if outcome.exit_code != 0:
            return False
        try:
            summary = json.loads(outcome.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return False
        return summary["rows"] == summary["num_rows"] == summary["hourly_total"] > 0


class Lint(_SelfConsistent):
    """``repro-lint`` with an empty cache on the frozen source tree.

    The lint configuration is the checkout's own ``pyproject.toml``. The
    seed does not enter: the input is fixed. Fails on a usage error (exit
    code 2) or when the JSON report differs from the first run's.
    """

    name = "lint_cold"
    why = "repro-lint with an empty --cache-dir on a frozen source tree: only the repro.analysis package does work"
    entry = "lint"

    def setup(self, bench) -> None:
        self.root = bench.work / "lint-root"
        with tarfile.open(LINT_INPUT) as archive:
            archive.extractall(self.root, filter="data")
        shutil.copy(bench.root / "pyproject.toml", self.root / "pyproject.toml")

    def args(self, bench) -> list[str]:
        return ["--root", str(self.root), "--cache-dir", "lint-cache", "--format", "json", str(self.root / "src")]

    def valid(self, outcome: Outcome) -> bool:
        if outcome.exit_code not in (0, 1):
            return False
        try:
            json.loads(outcome.stdout)
        except ValueError:
            return False
        return True


def all_workloads() -> list[Workload]:
    """Fresh instances of every workload, in the benchmark's order."""
    return [
        Registry(
            "medium_cold",
            "a user's first run: every dataset is built once and written by DiskCache.put, the dominant layer",
            "cold",
        ),
        Registry(
            "medium_warm",
            "every later run: DiskCache.get decode and experiment analysis do the work, synth and sim do none",
            "warm",
        ),
        Registry(
            "medium_nocache",
            "library and --no-cache users: bypasses the disk cache, so synth, sim.run and series have their largest share",
            "off",
        ),
        Registry(
            "sharded_warm",
            "--backend sharded --jobs 2 on spilled shards: supervised spawn map-reduce, shard open/verify, forked supervisor",
            "sharded",
            SHARDED_IDS,
        ),
        Stream(),
        Lint(),
    ]
