"""Deterministic fault injection for both supervised task kinds.

Every recovery path of the shared executor (:mod:`repro.core.supervise`)
and of its two task kinds — experiments
(:mod:`repro.experiments.supervisor`) and map-reduce blocks
(:mod:`repro.core.mapreduce`) — worker crash, hang past the timeout,
in-experiment exception, corrupted cache entry or shard, torn spill —
is exercised by *injecting* the failure rather than trusting that the
code would handle it. A :class:`FaultPlan` names exactly which
``(experiment, attempt)`` pairs misbehave and how, so a faulted run is
as reproducible as a clean one: the same plan against the same registry
produces the same retries, the same counters and (because experiments
are pure functions of ``(scale, seed)``) byte-identical rendered
output.

Plans are plain JSON — either a list of fault specs or an object with a
``"faults"`` list::

    [
      {"experiment_id": "fig4", "attempt": 1, "kind": "kill"},
      {"experiment_id": "fig7", "attempt": 1, "kind": "hang", "seconds": 600},
      {"experiment_id": "tab1", "attempt": 1, "kind": "corrupt-cache"}
    ]

They activate through the CLI (``repro-run --fault-plan <path-or-json>``)
or the ``REPRO_FAULT_PLAN`` environment variable, which accepts a file
path or inline JSON. Attempts are 1-based: a ``kill`` at attempt 1
means the first try dies and the retry succeeds.

Fault kinds
-----------
``raise``
    Raise :class:`FaultInjected` inside the worker. Experiments are
    deterministic, so the supervisor classifies this as a *permanent*
    ``exception`` failure and does not retry it.
``raise-corruption``
    Raise :class:`~repro.core.diskcache.CacheCorruptionError`; the
    supervisor classifies it ``cache-corruption`` and retries.
``kill``
    ``SIGKILL`` the worker process (an OOM-kill stand-in); classified
    ``crash`` and retried.
``exit``
    Worker exits with a nonzero status; classified ``crash``.
``hang``
    Sleep ``seconds`` (default one hour) before doing any work, so the
    per-experiment timeout fires; classified ``timeout`` and retried.
``corrupt-cache``
    Truncate the payload of one on-disk dataset cache entry and drop
    the in-process memo, forcing the experiment through the cache's
    quarantine-and-rebuild path. The experiment still succeeds; the
    ``cache_quarantined`` counter records the recovery.

Out-of-core fault kinds
-----------------------
The sharded backend adds faults keyed by ``(table, block/shard,
attempt)`` instead of ``(experiment, attempt)``: ``experiment_id``
names the sharded *table kind* (for example ``workload-tasks-shards``,
or ``"*"`` for any table). ``kill-worker``, ``hang-block`` and
``corrupt-shard`` fire inside a map-reduce block worker (via
:class:`ShardFaultInjector`) before the block runs; ``torn-spill``
``SIGKILL``\\ s the spilling process after the first column of shard
``shard`` hits disk but before the shard is journaled — the torn shard
must be dropped and the spill resumed (via :func:`spill_fault_hook`,
which only fires on fresh spills so the resumed attempt survives).

``kill-worker``
    ``SIGKILL`` the block worker; the executor classifies a ``crash``,
    backs off and retries (``mapreduce_crashes`` /
    ``mapreduce_retries``).
``hang-block``
    Sleep ``seconds`` in the worker so the per-block timeout fires
    (``mapreduce_block_timeouts``); with no timeout, a speculative
    duplicate finishes the block (``mapreduce_stragglers``).
``corrupt-shard``
    Flip the last byte of one column file of shard ``shard`` in the
    table being mapped. Structural checks still pass but the digest
    does not, so the reading worker raises
    :class:`~repro.core.shard.ShardIntegrityError` and the table is
    quarantined and re-derived (``shards_quarantined`` /
    ``shards_rederived``).
``torn-spill``
    Kill the spill mid-shard; the next attempt resumes from the
    journaled prefix (``spills_resumed`` / ``spill_shards_reused``).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.diskcache import CacheCorruptionError
from ..core.timing import Timings
from . import datasets

__all__ = [
    "FAULT_KINDS",
    "SHARD_FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "ShardFaultInjector",
    "corrupt_shard_column",
    "plan_from_env",
    "spill_fault_hook",
]

#: Environment variable holding a plan path or inline JSON.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Kinds that fire inside a map-reduce block worker, keyed by
#: ``(table, block, attempt)``.
BLOCK_FAULT_KINDS = ("kill-worker", "hang-block", "corrupt-shard")

#: All out-of-core kinds (block faults plus the spill fault).
SHARD_FAULT_KINDS = BLOCK_FAULT_KINDS + ("torn-spill",)

FAULT_KINDS = (
    "raise",
    "raise-corruption",
    "kill",
    "exit",
    "hang",
    "corrupt-cache",
) + SHARD_FAULT_KINDS


class FaultInjected(RuntimeError):
    """The generic injected failure (``kind: raise``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected misbehaviour.

    Experiment-level kinds are keyed by ``(experiment_id, attempt)``;
    out-of-core kinds key ``experiment_id`` as a sharded *table kind*
    (``"*"`` matches any table) plus ``block`` (map-reduce block index,
    for block faults) or ``shard`` (shard index, for ``corrupt-shard``
    and ``torn-spill``).
    """

    experiment_id: str
    kind: str = "raise"
    attempt: int = 1
    seconds: float = 3600.0  # hang duration
    exit_code: int = 3  # for kind "exit"
    block: int | None = None  # map-reduce block index (block faults)
    shard: int | None = None  # shard index (corrupt-shard / torn-spill)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; available: {FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise ValueError(f"attempt is 1-based, got {self.attempt}")
        if self.kind in BLOCK_FAULT_KINDS and self.block is None:
            raise ValueError(f"fault kind {self.kind!r} requires a block index")
        if self.kind in ("corrupt-shard", "torn-spill") and self.shard is None:
            raise ValueError(f"fault kind {self.kind!r} requires a shard index")
        if self.block is not None and self.block < 0:
            raise ValueError(f"block index must be >= 0, got {self.block}")
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"shard index must be >= 0, got {self.shard}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec`, queried per attempt."""

    faults: tuple[FaultSpec, ...] = ()

    @classmethod
    def from_obj(cls, obj: object) -> "FaultPlan":
        """Build a plan from decoded JSON (a list, or ``{"faults": []}``)."""
        if isinstance(obj, dict):
            obj = obj.get("faults", [])
        if not isinstance(obj, list):
            raise ValueError(
                f"fault plan must be a list of specs, got {type(obj).__name__}"
            )
        return cls(faults=tuple(FaultSpec(**spec) for spec in obj))

    @classmethod
    def load(cls, source: str | Path) -> "FaultPlan":
        """Parse a plan from inline JSON or a JSON file path."""
        text = str(source)
        if not text.lstrip().startswith(("[", "{")):
            text = Path(text).read_text(encoding="utf-8")
        return cls.from_obj(json.loads(text))

    def lookup(self, experiment_id: str, attempt: int) -> FaultSpec | None:
        """The spec scheduled for this ``(experiment, attempt)``, if any."""
        for spec in self.faults:
            if spec.kind in SHARD_FAULT_KINDS:
                continue
            if spec.experiment_id == experiment_id and spec.attempt == attempt:
                return spec
        return None

    def lookup_block(
        self, table: str, block: int, attempt: int
    ) -> FaultSpec | None:
        """The block fault scheduled for ``(table, block, attempt)``."""
        for spec in self.faults:
            if (
                spec.kind in BLOCK_FAULT_KINDS
                and spec.experiment_id in (table, "*")
                and spec.block == block
                and spec.attempt == attempt
            ):
                return spec
        return None

    def lookup_spill(self, table: str, shard: int) -> FaultSpec | None:
        """The torn-spill fault scheduled for ``(table, shard)``."""
        for spec in self.faults:
            if (
                spec.kind == "torn-spill"
                and spec.experiment_id in (table, "*")
                and spec.shard == shard
            ):
                return spec
        return None

    def has_shard_faults(self, table: str) -> bool:
        """Whether any out-of-core fault targets this table kind."""
        return any(
            spec.kind in SHARD_FAULT_KINDS
            and spec.experiment_id in (table, "*")
            for spec in self.faults
        )

    def trigger(
        self,
        experiment_id: str,
        attempt: int,
        timings: Timings | None = None,
    ) -> None:
        """Misbehave as planned for this attempt (no-op when unplanned).

        Called inside the worker before the experiment runs. ``kill``
        and ``exit`` do not return; ``raise*`` kinds raise; ``hang``
        returns only after sleeping; ``corrupt-cache`` damages the disk
        cache and returns so the experiment exercises recovery.
        """
        spec = self.lookup(experiment_id, attempt)
        if spec is None:
            return
        if timings is not None:
            timings.count("faults_injected")
        if spec.kind == "raise":
            raise FaultInjected(
                f"injected failure: {experiment_id} attempt {attempt}"
            )
        if spec.kind == "raise-corruption":
            raise CacheCorruptionError(
                f"injected cache corruption: {experiment_id} attempt {attempt}"
            )
        if spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind == "exit":
            os._exit(spec.exit_code)
        if spec.kind == "hang":
            # Not a wall-clock *read*: the sleep only delays the worker
            # so the supervisor's timeout path fires; outputs stay a
            # pure function of (scale, seed).
            time.sleep(spec.seconds)
            return
        if spec.kind == "corrupt-cache":
            corrupt_one_cache_entry()


@dataclass(frozen=True)
class ShardFaultInjector:
    """Picklable ``inject(root, block, attempt)`` hook for block workers.

    Crosses the pickle boundary into map-reduce workers (forked from a
    forkserver, not from the caller), so it carries only the (frozen)
    plan and the table kind it guards. A block fault fires at most once
    per ``(block, attempt)``; retried attempts look up a different key
    and proceed clean — exactly the discipline experiment-level faults
    follow.
    """

    plan: FaultPlan
    table: str

    def __call__(self, root: str, block: int, attempt: int) -> None:
        spec = self.plan.lookup_block(self.table, block, attempt)
        if spec is None:
            return
        if spec.kind == "kill-worker":
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.kind == "hang-block":
            # Delays the worker so the per-block timeout fires; the
            # block's *content* is untouched (see ``hang`` above).
            time.sleep(spec.seconds)
        elif spec.kind == "corrupt-shard":
            corrupt_shard_column(root, spec.shard)


def corrupt_shard_column(root: str | Path, shard: int) -> str | None:
    """Flip the last byte of one column file of a shard; return its path.

    The flipped byte lives past the npy header, so the table still
    passes structural open-time validation (shard dirs present, row
    counts consistent) but fails its sha256 digest check — the exact
    signature of silent media corruption the integrity layer exists to
    catch. Returns ``None`` when the shard directory has no columns.
    """
    shard_dir = Path(root) / f"shard-{shard:05d}"
    columns = sorted(shard_dir.glob("*.npy"))
    if not columns:
        return None
    target = columns[0]
    try:
        payload = bytearray(target.read_bytes())
        if not payload:
            return None
        payload[-1] ^= 0xFF
        target.write_bytes(bytes(payload))
    except OSError:
        return None
    return str(target)


def spill_fault_hook(plan: FaultPlan, table: str):
    """``on_event`` hook for :class:`~repro.core.shard.ShardWriter`.

    ``SIGKILL``\\ s the spilling process after the first column of a
    targeted shard is written but before the shard is journaled —
    leaving exactly the torn, unjournaled trailing shard the resume
    path must detect and drop. Fires only on fresh spills
    (``resumed_shards == 0``): the resumed attempt replays the same
    shard index but survives, so the spill completes. Returns ``None``
    when the plan has no torn-spill fault for this table.
    """
    if not any(
        spec.kind == "torn-spill" and spec.experiment_id in (table, "*")
        for spec in plan.faults
    ):
        return None

    def hook(event: str, shard: int, resumed_shards: int) -> None:
        if event != "column-written" or resumed_shards:
            return
        if plan.lookup_spill(table, shard) is not None:
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


def corrupt_one_cache_entry() -> str | None:
    """Truncate one dataset cache entry and drop the in-process memo.

    Picks the lexicographically first key so repeated runs corrupt the
    same entry. Returns the corrupted key, or ``None`` when no cache is
    configured or populated. Clearing the memo forces the next dataset
    access back through the disk cache, where the truncated entry is
    quarantined and rebuilt.
    """
    cache = datasets.dataset_cache()
    if cache is None:
        return None
    keys = sorted(cache.entries())
    if not keys:
        return None
    skeleton = cache._entry_dir(keys[0]) / "skeleton.pkl"
    try:
        payload = skeleton.read_bytes()
        skeleton.write_bytes(payload[: len(payload) // 2])
    except OSError:
        return None
    datasets.workload_dataset.cache_clear()
    datasets.simulation_dataset.cache_clear()
    datasets.fleet_series.cache_clear()
    return keys[0]


def plan_from_env(environ: dict[str, str] | None = None) -> FaultPlan | None:
    """The plan named by ``$REPRO_FAULT_PLAN``, or ``None``."""
    env = os.environ if environ is None else environ
    source = env.get(PLAN_ENV)
    if not source:
        return None
    return FaultPlan.load(source)
