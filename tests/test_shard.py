"""Unit tests for the out-of-core sharded table store."""

import json

import numpy as np
import pytest

from repro.core.shard import (
    ShardedTable,
    ShardIntegrityError,
    ShardWriter,
    write_table,
)
from repro.core.table import Table


def _table(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return Table(
        {
            "x": rng.standard_normal(n),
            "k": rng.integers(0, 10, n, dtype=np.int64),
        }
    )


def _split(table, sizes):
    """Cut a table into chunk dicts of the given sizes."""
    chunks = []
    start = 0
    for size in sizes:
        chunks.append(
            {name: table[name][start : start + size] for name in table.column_names}
        )
        start += size
    assert start == len(table)
    return chunks


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        table = _table(100)
        sharded = write_table(table, tmp_path / "t", shard_rows=7)
        back = sharded.to_table()
        for name in table.column_names:
            np.testing.assert_array_equal(back[name], table[name])
            assert back[name].dtype == table[name].dtype

    def test_shard_sizes(self, tmp_path):
        sharded = write_table(_table(10), tmp_path / "t", shard_rows=3)
        assert sharded.num_shards == 4
        assert sharded.shard_counts == (3, 3, 3, 1)
        assert sharded.num_rows == 10

    def test_single_row_shards(self, tmp_path):
        table = _table(5)
        sharded = write_table(table, tmp_path / "t", shard_rows=1)
        assert sharded.num_shards == 5
        np.testing.assert_array_equal(sharded.to_table()["x"], table["x"])

    def test_empty_table(self, tmp_path):
        table = _table(0)
        sharded = write_table(table, tmp_path / "t", shard_rows=4)
        assert sharded.num_shards == 0
        assert sharded.num_rows == 0
        back = sharded.to_table()
        assert len(back) == 0
        assert back["x"].dtype == np.float64
        assert back["k"].dtype == np.int64

    def test_column_subset(self, tmp_path):
        table = _table(20)
        sharded = write_table(table, tmp_path / "t", shard_rows=8)
        shard = sharded.shard(0, columns=("x",))
        assert shard.column_names == ("x",)
        with pytest.raises(KeyError):
            sharded.shard(0, columns=("nope",))


class TestChunkInvariance:
    def test_construction_invariant_to_chunking(self, tmp_path):
        table = _table(50)
        splits = [(50,), (1,) * 50, (3, 17, 30), (49, 1), (10, 0, 40)]
        references = None
        for i, sizes in enumerate(splits):
            schema = {n: table[n].dtype for n in table.column_names}
            with ShardWriter(tmp_path / f"t{i}", schema, shard_rows=7) as w:
                for chunk in _split(table, sizes):
                    w.append(chunk)
            sharded = ShardedTable.open(tmp_path / f"t{i}")
            per_shard = [
                {n: np.array(s[n]) for n in s.column_names}
                for s in sharded.iter_shards()
            ]
            if references is None:
                references = per_shard
            else:
                assert len(per_shard) == len(references)
                for got, want in zip(per_shard, references):
                    for name in want:
                        np.testing.assert_array_equal(got[name], want[name])


class TestGroupAligned:
    def test_groups_never_split(self, tmp_path):
        ids = np.repeat(np.arange(6, dtype=np.int64), [4, 2, 5, 1, 3, 5])
        table = Table({"machine_id": ids, "v": np.arange(ids.size) * 0.5})
        sharded = write_table(
            table, tmp_path / "t", shard_rows=6, group_by="machine_id"
        )
        seen = {}
        for i, shard in enumerate(sharded.iter_shards()):
            for mid in np.unique(np.asarray(shard["machine_id"])):
                assert int(mid) not in seen, "group split across shards"
                seen[int(mid)] = i
        back = sharded.to_table()
        np.testing.assert_array_equal(back["machine_id"], ids)
        np.testing.assert_array_equal(back["v"], table["v"])

    def test_oversized_group_gets_own_shard(self, tmp_path):
        ids = np.repeat([0, 1, 2], [2, 9, 2]).astype(np.int64)
        table = Table({"machine_id": ids, "v": np.ones(ids.size)})
        sharded = write_table(
            table, tmp_path / "t", shard_rows=4, group_by="machine_id"
        )
        counts = [
            np.unique(np.asarray(s["machine_id"])).size
            for s in sharded.iter_shards()
        ]
        assert all(c >= 1 for c in counts)
        np.testing.assert_array_equal(sharded.to_table()["machine_id"], ids)


class TestValidation:
    def test_schema_mismatch_rejected(self, tmp_path):
        schema = {"x": np.dtype(np.float64)}
        with ShardWriter(tmp_path / "t", schema, shard_rows=4) as w:
            with pytest.raises(ValueError):
                w.append({"y": np.ones(3)})
            w.append({"x": np.ones(3)})

    def test_abort_leaves_no_destination(self, tmp_path):
        schema = {"x": np.dtype(np.float64)}
        try:
            with ShardWriter(tmp_path / "t", schema, shard_rows=4) as w:
                w.append({"x": np.ones(10)})
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not (tmp_path / "t").exists()

    def test_open_rejects_bad_version(self, tmp_path):
        # Version 1 predates the per-column digests and is refused too.
        for version in (1, 99):
            sharded = write_table(
                _table(4), tmp_path / f"t{version}", shard_rows=2
            )
            manifest = sharded.root / "manifest.json"
            manifest.write_text(
                manifest.read_text().replace(
                    '"version": 2', f'"version": {version}'
                )
            )
            with pytest.raises(ValueError, match="version"):
                ShardedTable.open(sharded.root)

    def test_map_columns_streams_lazily(self, tmp_path):
        table = _table(30)
        sharded = write_table(table, tmp_path / "t", shard_rows=10)
        gen = sharded.map_columns(lambda s: float(np.sum(s["x"])))
        sums = list(gen)
        assert sums == pytest.approx(
            [float(np.sum(c["x"])) for c in _split(table, (10, 10, 10))]
        )


def _flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


class TestIntegrity:
    """Manifest digests: lazy per-column checks and ``verify_all``."""

    def test_manifest_records_per_column_digests(self, tmp_path):
        sharded = write_table(_table(10), tmp_path / "t", shard_rows=3)
        manifest = json.loads((sharded.root / "manifest.json").read_text())
        assert manifest["version"] == 2
        assert len(manifest["digests"]) == sharded.num_shards
        for entry in manifest["digests"]:
            assert set(entry) == {"x", "k"}
            assert all(len(d) == 64 for d in entry.values())

    def test_corrupt_shard_detected_lazily(self, tmp_path):
        # A last-byte flip keeps the .npy header intact, so it slips past
        # the structural open-time check and must be caught by digests.
        sharded = write_table(_table(12), tmp_path / "t", shard_rows=4)
        _flip_last_byte(sharded.root / "shard-00001" / "x.npy")
        reopened = ShardedTable.open(sharded.root)
        reopened.shard(0)  # clean shard reads fine
        with pytest.raises(ShardIntegrityError, match="digest mismatch") as e:
            reopened.shard(1)
        assert e.value.shard == 1
        assert e.value.column == "x"
        assert e.value.root == str(sharded.root)

    def test_full_verify_fails_at_open(self, tmp_path):
        sharded = write_table(_table(12), tmp_path / "t", shard_rows=4)
        _flip_last_byte(sharded.root / "shard-00002" / "k.npy")
        with pytest.raises(ShardIntegrityError, match="digest mismatch"):
            ShardedTable.open(sharded.root).verify_all()

    def test_verified_shard_checked_once(self, tmp_path):
        sharded = write_table(_table(8), tmp_path / "t", shard_rows=4)
        reopened = ShardedTable.open(sharded.root)
        reopened.shard(0)
        # Corruption after the first verified read goes unnoticed by the
        # same instance (digests memoized) but is caught by a fresh open.
        _flip_last_byte(sharded.root / "shard-00000" / "x.npy")
        reopened.shard(0)
        with pytest.raises(ShardIntegrityError):
            ShardedTable.open(sharded.root).verify_all()

    def test_digest_shard_count_mismatch_rejected(self, tmp_path):
        sharded = write_table(_table(10), tmp_path / "t", shard_rows=3)
        manifest_path = sharded.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["digests"] = manifest["digests"][:-1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ShardIntegrityError, match="digest entries"):
            ShardedTable.open(sharded.root)


class TestStructuralValidation:
    """Open must not trust manifest.json blindly (regression tests)."""

    def test_hand_truncated_table_rejected(self, tmp_path):
        # Deleting the tail shard leaves a manifest promising more rows
        # than the tree holds; open must refuse rather than serve a
        # silently shorter table.
        import shutil

        sharded = write_table(_table(12), tmp_path / "t", shard_rows=4)
        shutil.rmtree(sharded.root / "shard-00002")
        with pytest.raises(ShardIntegrityError, match="directory missing"):
            ShardedTable.open(sharded.root)

    def test_missing_column_file_rejected(self, tmp_path):
        sharded = write_table(_table(12), tmp_path / "t", shard_rows=4)
        (sharded.root / "shard-00001" / "k.npy").unlink()
        with pytest.raises(ShardIntegrityError, match="column file missing"):
            ShardedTable.open(sharded.root)

    def test_row_count_mismatch_rejected(self, tmp_path):
        sharded = write_table(_table(12), tmp_path / "t", shard_rows=4)
        path = sharded.root / "shard-00001" / "x.npy"
        np.save(path.with_suffix(""), np.zeros(2))  # np.save appends .npy
        with pytest.raises(ShardIntegrityError, match="row-count mismatch"):
            ShardedTable.open(sharded.root)

    def test_torn_header_rejected(self, tmp_path):
        sharded = write_table(_table(12), tmp_path / "t", shard_rows=4)
        path = sharded.root / "shard-00000" / "x.npy"
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ShardIntegrityError, match="unreadable column"):
            ShardedTable.open(sharded.root)
