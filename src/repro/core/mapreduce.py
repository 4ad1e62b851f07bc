"""Supervised, deterministic map-reduce over sharded tables.

Executes a pure kernel over every shard of a
:class:`~repro.core.shard.ShardedTable` and folds the results with a
mergeable-accumulator ``merge``. Output order is the contract:

* shards are processed in shard order, and
* the reduction is the left fold ``merge(merge(r0, r1), r2) ...`` in
  shard order, regardless of ``jobs`` — and regardless of crashes,
  retries, stragglers, or degradation to inline execution.

With ``jobs > 1`` the shard index range is split into ``jobs``
contiguous blocks; each worker folds its own block locally (so at most
one shard per worker is materialized at a time) and the parent folds
the block results in block order. For any merge that is *exact* under
regrouping of an ordered sequence — integer count sums, ordered chunk
concatenation, max unions, boundary stitching — the parallel result is
byte-identical to the serial fold; every accumulator shipped in
``core.kernels``/``core.segments``/``core.fairness`` satisfies this.

Blocks are one task kind of the shared executor
(:mod:`repro.core.supervise`), which owns the worker mechanics: a
one-shot process per attempt, waits on result pipes and sentinels
together, a kill at the per-block timeout, seeded-backoff retries.
Block workers fork from a **forkserver**: the run's, when the pass runs
inside a :func:`~repro.core.supervise.forkserver` scope (an experiment
run opens one around its fan-out), or else one the pass starts with
this module and the kernel's module preloaded. An attempt costs a fork,
not an interpreter start, and a worker exits as soon as the process
that launched it is gone. They never fork from the caller, so
nothing is smuggled through copy-on-write: the kernel and every
argument cross a real pickle boundary into fresh module state
(repro-lint REP303) and workers touch no module-level state (REP103).
Failures are classified:

``crash`` / ``timeout``
    Transient. The block is retried up to ``retries`` extra attempts,
    then falls back to inline execution in the parent. Repeated
    transient failures across the pool trip a circuit breaker
    (:data:`DEGRADE_AFTER`) that finishes every remaining block inline,
    in order — graceful degradation to ``jobs=1``.
``integrity``
    A :class:`~repro.core.shard.ShardIntegrityError` — the table
    itself is damaged, so retrying the same bytes cannot help. The
    optional ``heal`` callback quarantines and re-derives the table
    (see ``experiments/datasets.py``), in-flight blocks are requeued
    against the healed root, and finished block results stay valid
    because re-derivation is byte-identical.
``error``
    Any other exception is deterministic under the kernel-purity
    contract; it fails fast as :class:`MapReduceError`.

Stragglers: in a pass with no per-block timeout, once at least half
the blocks have finished, a block running far past the median block
time (:data:`STRAGGLER_FACTOR`) gets a speculative duplicate; the first
result wins and the loser is killed. A configured timeout owns hung
attempts instead, so which mechanism ends one never depends on how fast
workers start.

Recovery counters (``mapreduce_retries``, ``mapreduce_crashes``,
``mapreduce_block_timeouts``, ``mapreduce_respawns``,
``mapreduce_stragglers``, ``mapreduce_inline``) accumulate into the
optional ``timings`` so they surface in the run's recovery footer and
``--json`` report.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from collections.abc import Callable, Sequence
from multiprocessing.connection import wait

from .shard import ShardIntegrityError, ShardedTable
from .supervise import Executor, Policy
from .timing import Timings

__all__ = [
    "MapReduceError",
    "map_reduce",
    "map_shards",
    "merge_accumulators",
]

Kernel = Callable[..., object]
Merge = Callable[[object, object], object]
#: ``inject(root, block_index, attempt)`` — fault-injection hook run in
#: the worker before the block; ``heal(root, message) -> new_root|None``
#: — parent-side recovery from shard corruption.
Inject = Callable[[str, int, int], None]
Heal = Callable[[str, str], str | None]

#: First-retry backoff, doubling per attempt up to the cap (seconds).
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: Seed for the deterministic backoff jitter.
SEED = 0
#: Transient failures across one pass that trip the circuit breaker:
#: every remaining block then runs inline, in order.
DEGRADE_AFTER = 4
#: Most ``heal`` round-trips per pass before the integrity error is
#: raised to the caller (guards against re-corrupting storage).
MAX_HEALS = 2
#: A running block slower than ``STRAGGLER_FACTOR`` x the median
#: finished-block time (and ``STRAGGLER_FLOOR`` seconds) gets a
#: speculative duplicate.
STRAGGLER_FACTOR = 4.0
STRAGGLER_FLOOR = 1.0


class MapReduceError(RuntimeError):
    """A worker raised a permanent (non-transient) exception."""


def merge_accumulators(left: object, right: object) -> object:
    """Default merge: delegate to the accumulator's ``merge`` method."""
    merged = left.merge(right)  # type: ignore[attr-defined]
    return left if merged is None else merged


def _split_blocks(n_shards: int, jobs: int) -> list[range]:
    """Contiguous near-equal index blocks, deterministic in (n, jobs)."""
    jobs = max(1, min(jobs, n_shards))
    base, extra = divmod(n_shards, jobs)
    blocks: list[range] = []
    start = 0
    for i in range(jobs):
        size = base + (1 if i < extra else 0)
        blocks.append(range(start, start + size))
        start += size
    return blocks


def _evaluate_block(
    table: ShardedTable,
    indices: Sequence[int],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
) -> object:
    """Left-fold (or collect) the kernel over one contiguous block."""
    if fold:
        acc: object = None
        for index in indices:
            result = kernel(table.shard(index), *args)
            acc = result if acc is None else merge(acc, result)
        return acc
    return [kernel(table.shard(index), *args) for index in indices]


def _block_main(
    conn,
    root: str,
    block_index: int,
    indices: list[int],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
    inject: Inject | None,
    attempt: int,
) -> None:
    """Worker entry: evaluate one block, send one classified message."""
    _exit_with_launcher()
    try:
        try:
            if inject is not None:
                inject(root, block_index, attempt)
            table = ShardedTable.open(root)
            payload = _evaluate_block(table, indices, kernel, args, fold, merge)
            conn.send(("ok", payload))
        except ShardIntegrityError as exc:
            conn.send(("integrity", _format_error(exc)))
        except Exception as exc:
            conn.send(("error", _format_error(exc)))
    finally:
        conn.close()


def _exit_with_launcher() -> None:
    """End this worker as soon as the process that launched it is gone.

    A launcher killed mid-pass (an experiment worker past its timeout or
    the run deadline) never reaps its blocks. The forkserver hands each
    worker the read end of its launcher's data pipe as the parent
    sentinel, which reads EOF once the launcher has exited; a daemon
    thread waits for that and exits the worker, so no block outlives
    its launcher and the run's server can stop.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-launcher", daemon=True).start()


def _format_error(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


class _HealState:
    """Current table root plus the heal budget, shared across blocks."""

    __slots__ = ("root", "heals")

    def __init__(self, root: str) -> None:
        self.root = root
        self.heals = 0

    def heal(self, heal: Heal | None, message: str) -> None:
        """Re-derive the table or re-raise; updates ``self.root``."""
        self.heals += 1
        if heal is None or self.heals > MAX_HEALS:
            raise ShardIntegrityError(message, root=self.root)
        new_root = heal(self.root, message)
        if not new_root:
            raise ShardIntegrityError(message, root=self.root)
        self.root = str(new_root)


def _count(timings: Timings | None, name: str) -> None:
    if timings is not None:
        timings.count(name)


def _run_block_inline(
    state: _HealState,
    indices: Sequence[int],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
    heal: Heal | None,
    table: ShardedTable | None = None,
) -> object:
    """Evaluate one block in-process, healing shard corruption."""
    while True:
        try:
            if table is None:
                table = ShardedTable.open(state.root)
            return _evaluate_block(table, indices, kernel, args, fold, merge)
        except ShardIntegrityError as exc:
            table = None
            state.heal(heal, _format_error(exc))


class _BlockRun(Executor):
    """One supervised pass: inline fallback, circuit breaker, heal
    barrier and straggler speculation."""

    def __init__(
        self,
        state: _HealState,
        blocks: list[list[int]],
        kernel: Kernel,
        args: tuple,
        fold: bool,
        merge: Merge,
        jobs: int,
        config: Policy,
        inject: Inject | None,
        heal: Heal | None,
        timings: Timings | None,
    ) -> None:
        super().__init__(
            _block_main,
            method="forkserver",
            preload=(__name__, getattr(kernel, "__module__", None) or __name__),
            jobs=jobs,
            timeout=config.timeout,
            retries=config.retries,
            seed=SEED,
            backoff=(BACKOFF_BASE, BACKOFF_CAP),
        )
        self.state = state
        self.blocks = blocks
        self.work = (kernel, args, fold, merge)
        self.inject = inject
        self.heal = heal
        self.timings = timings
        self.completed: dict[int, object] = {}
        self.durations: list[float] = []
        self.transient = 0
        for block in range(len(blocks)):
            self.submit(block)

    def args(self, block, attempt):
        kernel, args, fold, merge = self.work
        return (
            self.state.root,
            block,
            list(self.blocks[block]),
            kernel,
            args,
            fold,
            merge,
            self.inject,
            attempt,
        )

    def launch(self, block, attempt) -> None:
        super().launch(block, attempt)
        if attempt > 1:
            _count(self.timings, "mapreduce_respawns")

    def on_message(self, worker, message) -> None:
        status, payload = message
        if status == "ok":
            if worker.key not in self.completed:
                self.completed[worker.key] = payload
                self.durations.append(self.elapsed(worker))
            for sibling in [w for w in self.running if w.key == worker.key]:
                self.kill(sibling)
        elif status == "integrity":
            self._heal_barrier(worker, payload)
        else:
            raise MapReduceError(payload)

    def on_failure(self, worker, kind: str) -> None:
        self.transient += 1
        _count(
            self.timings,
            "mapreduce_block_timeouts" if kind == "timeout" else "mapreduce_crashes",
        )
        if worker.key in self.completed or self._has_sibling(worker):
            return  # a speculative sibling already covers this block
        if self.retry(worker):
            _count(self.timings, "mapreduce_retries")
        else:
            self._run_inline(worker.key)

    def stop(self) -> bool:
        """Circuit breaker: the pool machinery itself keeps failing, so
        finish everything inline, in order."""
        if self.transient < DEGRADE_AFTER:
            return False
        self.reap()
        self.pending.clear()
        for block in range(len(self.blocks)):
            if block not in self.completed:
                self._run_inline(block)
        return True

    def speculate(self) -> None:
        if (
            self.timeout is not None  # the timeout owns hung attempts
            or self.pending
            or len(self.durations) < max(1, len(self.blocks) // 2)
        ):
            return
        median = sorted(self.durations)[len(self.durations) // 2]
        threshold = max(STRAGGLER_FLOOR, STRAGGLER_FACTOR * median)
        for worker in list(self.running):
            if len(self.running) >= self.jobs:
                break
            if not self._has_sibling(worker) and self.elapsed(worker) > threshold:
                _count(self.timings, "mapreduce_stragglers")
                self.launch(worker.key, worker.attempt + 1)

    def _has_sibling(self, worker) -> bool:
        return any(w.key == worker.key and w is not worker for w in self.running)

    def _run_inline(self, block: int) -> None:
        kernel, args, fold, merge = self.work
        self.completed[block] = _run_block_inline(
            self.state, self.blocks[block], kernel, args, fold, merge,
            self.heal,
        )
        _count(self.timings, "mapreduce_inline")

    def _heal_barrier(self, worker, message: str) -> None:
        # The table bytes are damaged: heal (quarantine + re-derive),
        # then restart every in-flight block against the new root.
        # Finished block payloads stay valid — re-derivation is
        # byte-identical — so only unfinished work is requeued.
        self.state.heal(self.heal, message)
        restart = [worker] + self.running
        self.reap()
        for other in restart:
            queued = any(item.key == other.key for item in self.pending)
            if other.key not in self.completed and not queued:
                self.submit(other.key, other.attempt + 1)


def _run_blocks(
    table: ShardedTable,
    blocks: list[list[int]],
    kernel: Kernel,
    args: tuple,
    fold: bool,
    merge: Merge,
    jobs: int,
    config: Policy | None,
    inject: Inject | None,
    heal: Heal | None,
    timings: Timings | None,
) -> list[object]:
    config = config if config is not None else Policy(retries=2)
    state = _HealState(str(table.root))
    if jobs <= 1 or len(blocks) <= 1:
        results = []
        reuse: ShardedTable | None = table
        for block in blocks:
            results.append(
                _run_block_inline(
                    state, block, kernel, args, fold, merge, heal,
                    table=reuse,
                )
            )
            reuse = None if state.heals else table
        return results
    run = _BlockRun(
        state, blocks, kernel, args, fold, merge, jobs, config, inject, heal,
        timings,
    )
    run.run()
    return [run.completed[block] for block in range(len(blocks))]


def map_shards(
    table: ShardedTable,
    kernel: Kernel,
    *,
    args: tuple = (),
    jobs: int = 1,
    config: Policy | None = None,
    inject: Inject | None = None,
    heal: Heal | None = None,
    timings: Timings | None = None,
) -> list[object]:
    """Kernel result per shard, in shard order.

    ``jobs`` splits the table into that many blocks; ``config`` supplies
    the per-block timeout and retries (default 2).
    """
    n = table.num_shards
    if n == 0:
        return []
    blocks = [list(block) for block in _split_blocks(n, jobs)]
    results = _run_blocks(
        table, blocks, kernel, args, False, merge_accumulators, jobs, config,
        inject, heal, timings,
    )
    return [item for block_result in results for item in block_result]


def map_reduce(
    table: ShardedTable,
    kernel: Kernel,
    *,
    args: tuple = (),
    jobs: int = 1,
    merge: Merge = merge_accumulators,
    config: Policy | None = None,
    inject: Inject | None = None,
    heal: Heal | None = None,
    timings: Timings | None = None,
) -> object:
    """Left fold of per-shard kernel results in shard order.

    Returns ``None`` for a table with zero shards. ``jobs`` and
    ``config`` work as in :func:`map_shards`.
    """
    n = table.num_shards
    if n == 0:
        return None
    blocks = [list(block) for block in _split_blocks(n, jobs)]
    results = _run_blocks(
        table, blocks, kernel, args, True, merge, jobs, config, inject, heal,
        timings,
    )
    acc = results[0]
    for result in results[1:]:
        acc = merge(acc, result)
    return acc
