"""Spill streamed task requests into an out-of-core sharded table.

Bridges the columnar generator (:func:`iter_task_requests`, bounded
memory per column block) to :class:`repro.core.shard.ShardedTable`
(bounded memory per analysis pass): each column block is handed to a
:class:`~repro.core.shard.ShardWriter` as soon as it is sampled, so a
10–100x-paper-scale trace reaches disk without ever materializing more
than one shard of the spilled columns.
Shard boundaries are fixed multiples of ``shard_rows``, so the spilled
table is a pure function of ``(horizon, seed, config, tasks_per_hour,
shard_rows, columns)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import closing
from pathlib import Path

from ..core.shard import ShardedTable, ShardWriter
from .google_model import (
    _COLUMN_BLOCK,
    TASK_REQUEST_COLUMNS,
    GoogleConfig,
    iter_task_requests,
)

__all__ = ["TASK_REQUEST_COLUMNS", "shard_task_requests"]


def shard_task_requests(
    dest: str | Path,
    horizon: float,
    seed: int = 0,
    config: GoogleConfig | None = None,
    *,
    tasks_per_hour: float,
    shard_rows: int,
    columns: Sequence[str] = TASK_REQUEST_COLUMNS,
    resume: bool = False,
) -> ShardedTable:
    """Generate and spill a task-request stream as one sharded table.

    ``columns`` restricts the spill to the named request columns (e.g.
    only what a characterization pass reads), in the order given. The
    projection reaches the generator, so the columns left out are
    neither drawn nor held: it cuts generation time and memory as well
    as the disk footprint. The kept columns are bit-identical to a full
    spill, and a bad selection raises :class:`ValueError` before
    anything is generated or written.
    The stream is read one column block at a time, in order, while the
    generator's threads sample the next blocks; the writer cuts the
    blocks into shards on this thread. If writing fails, the stream is
    closed here, which joins its threads before the error propagates.
    With ``resume``, a spill interrupted at the same ``dest`` continues
    from its journaled shard prefix instead of regenerating everything —
    safe because the stream is a pure function of its arguments, so the
    replayed rows match the rows already on disk.
    """
    stream = iter_task_requests(
        horizon,
        seed,
        config,
        tasks_per_hour=tasks_per_hour,
        chunk_tasks=_COLUMN_BLOCK,
        columns=columns,
    )
    with closing(stream):
        first = next(stream)
        schema = {name: first[name].dtype for name in first.column_names}
        with ShardWriter(dest, schema, shard_rows, resume=resume) as writer:
            writer.append(first)
            for chunk in stream:
                writer.append(chunk)
    return ShardedTable.open(dest)
