"""Crash-safe spill resume: a killed spill continues, byte-identical.

The load-bearing property: SIGKILL a real spawned process mid-shard,
re-create the writer with ``resume=True``, replay the same rows, and
the finished table's on-disk bytes equal an uninterrupted spill's.
"""

import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core.shard import ShardedTable, ShardWriter, write_table
from repro.core.table import Table

N_ROWS = 60
SHARD_ROWS = 7


def _table(n=N_ROWS, seed=42):
    rng = np.random.default_rng(seed)
    return Table(
        {
            "x": rng.standard_normal(n),
            "k": rng.integers(0, 5, n, dtype=np.int64),
        }
    )


def _schema(table):
    return {n: table[n].dtype for n in table.column_names}


def _tree_bytes(root):
    """Every file under root, relative path -> bytes."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _spill(dest, *, resume, on_event=None):
    table = _table()
    writer = ShardWriter(
        dest, _schema(table), SHARD_ROWS, resume=resume, on_event=on_event
    )
    writer.append(table)
    return writer


def _kill_at(shard_index):
    """Hook that SIGKILLs this process on a fresh run's Nth shard."""

    def hook(event, index, resumed_shards):
        if (
            event == "column-written"
            and index == shard_index
            and resumed_shards == 0
        ):
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


def _doomed_spill(dest, kill_shard):
    """Spawn-process entry: spill with a SIGKILL planted mid-shard."""
    _spill(dest, resume=True, on_event=_kill_at(kill_shard))


class TestTornSpillResume:
    def test_sigkill_mid_shard_then_resume_byte_identical(self, tmp_path):
        # Reference: an uninterrupted spill of the same rows.
        clean = _spill(tmp_path / "clean", resume=False).close()
        want = _tree_bytes(clean.root)

        # A real spawned process dies by SIGKILL while writing shard 4:
        # shards 0-3 are journaled durable, shard 4 is torn (first
        # column written, never committed).
        dest = tmp_path / "t"
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_doomed_spill, args=(dest, 4))
        proc.start()
        proc.join(60)
        assert proc.exitcode == -signal.SIGKILL
        assert not dest.exists()
        partial = dest.with_name(".t.partial")
        assert partial.is_dir(), "killed spill must leave its partial dir"

        # Resume: the journaled prefix is adopted, the torn shard and
        # the unfinished suffix are rewritten from the replayed rows.
        writer = _spill(dest, resume=True)
        assert writer.resumed_shards == 4
        resumed = writer.close()
        assert not partial.exists()
        assert _tree_bytes(resumed.root) == want

    def test_resume_after_abort_adopts_journaled_prefix(self, tmp_path):
        # In-process variant: abort (keeping the partial) after three
        # committed shards, then resume.
        class _Stop(Exception):
            pass

        def stop_after(event, index, resumed_shards):
            if event == "shard-committed" and index == 2 and not resumed_shards:
                raise _Stop

        dest = tmp_path / "t"
        table = _table()
        writer = ShardWriter(
            dest, _schema(table), SHARD_ROWS, resume=True, on_event=stop_after
        )
        with pytest.raises(_Stop):
            writer.append(table)
        writer.abort()
        assert dest.with_name(".t.partial").is_dir()

        writer = _spill(dest, resume=True)
        assert writer.resumed_shards == 3
        resumed = writer.close()
        clean = _spill(tmp_path / "clean", resume=False).close()
        assert _tree_bytes(resumed.root) == _tree_bytes(clean.root)

    def test_corrupted_journaled_shard_dropped_on_resume(self, tmp_path):
        # A shard that was journaled but later damaged on disk must not
        # be adopted: the journal prefix is truncated at the first shard
        # whose digests no longer verify.
        class _Stop(Exception):
            pass

        def stop_after(event, index, resumed_shards):
            if event == "shard-committed" and index == 3 and not resumed_shards:
                raise _Stop

        dest = tmp_path / "t"
        table = _table()
        writer = ShardWriter(
            dest, _schema(table), SHARD_ROWS, resume=True, on_event=stop_after
        )
        with pytest.raises(_Stop):
            writer.append(table)
        writer.abort()
        partial = dest.with_name(".t.partial")
        damaged = partial / "shard-00002" / "x.npy"
        data = bytearray(damaged.read_bytes())
        data[-1] ^= 0xFF
        damaged.write_bytes(bytes(data))

        writer = _spill(dest, resume=True)
        assert writer.resumed_shards == 2  # shards 0-1 only
        resumed = writer.close()
        clean = _spill(tmp_path / "clean", resume=False).close()
        assert _tree_bytes(resumed.root) == _tree_bytes(clean.root)

    def test_short_replay_rejected(self, tmp_path):
        # Resuming with fewer rows than the journaled prefix holds is a
        # caller bug (non-deterministic source) and must fail loudly.
        class _Stop(Exception):
            pass

        def stop_after(event, index, resumed_shards):
            if event == "shard-committed" and index == 4 and not resumed_shards:
                raise _Stop

        dest = tmp_path / "t"
        table = _table()
        writer = ShardWriter(
            dest, _schema(table), SHARD_ROWS, resume=True, on_event=stop_after
        )
        with pytest.raises(_Stop):
            writer.append(table)
        writer.abort()

        short = {n: np.asarray(table[n])[:10] for n in table.column_names}
        writer = ShardWriter(dest, _schema(table), SHARD_ROWS, resume=True)
        writer.append(short)
        from repro.core.shard import ShardIntegrityError

        with pytest.raises(ShardIntegrityError, match="rows short"):
            writer.close()
        writer.abort()

    def test_live_lock_falls_back_to_private_build(self, tmp_path):
        # A second writer while the partial is owned by a live process
        # (this one) must not clobber it: it degrades to a non-resumable
        # private build and still produces a correct table.
        dest = tmp_path / "t"
        table = _table()
        first = ShardWriter(dest, _schema(table), SHARD_ROWS, resume=True)
        second = ShardWriter(dest, _schema(table), SHARD_ROWS, resume=True)
        second.append(table)
        result = second.close()
        assert result.num_rows == N_ROWS
        first.abort()

    def test_journal_is_not_published(self, tmp_path):
        dest = tmp_path / "t"
        result = _spill(dest, resume=True).close()
        names = set(_tree_bytes(result.root))
        assert "manifest.json" in names
        assert not any("journal" in n or ".lock" in n for n in names)

    def test_resumed_table_passes_full_verification(self, tmp_path):
        dest = tmp_path / "t"
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_doomed_spill, args=(dest, 2))
        proc.start()
        proc.join(60)
        assert proc.exitcode == -signal.SIGKILL
        _spill(dest, resume=True).close()
        reopened = ShardedTable.open(dest)
        reopened.verify_all()
        np.testing.assert_array_equal(
            reopened.to_table()["x"], np.asarray(_table()["x"])
        )

    def test_journal_format_is_versioned(self, tmp_path):
        # The journal header pins the format so a future layout change
        # cannot silently adopt an incompatible partial.
        class _Stop(Exception):
            pass

        def stop(event, index, resumed_shards):
            if event == "shard-committed" and not resumed_shards:
                raise _Stop

        dest = tmp_path / "t"
        table = _table()
        writer = ShardWriter(
            dest, _schema(table), SHARD_ROWS, resume=True, on_event=stop
        )
        with pytest.raises(_Stop):
            writer.append(table)
        writer.abort()
        journal = dest.with_name(".t.partial") / "journal.jsonl"
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["format"] == 2
