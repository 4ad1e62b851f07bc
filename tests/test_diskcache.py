"""Unit tests for the content-addressed dataset disk cache."""

import collections
import dataclasses
import pickle
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import repro
from repro.core.diskcache import (
    MISS,
    DiskCache,
    cache_key,
    fingerprint,
)
from repro.core.table import Table


@dataclasses.dataclass(frozen=True)
class Payload:
    """Stand-in for SimResult-style containers: arrays + table + meta."""

    name: str
    arr: np.ndarray
    table: Table
    nested: dict


class Sample(NamedTuple):
    label: str
    values: np.ndarray


class Pair(tuple):
    """A user type built on tuple."""


def _assert_same(got, want, where="obj"):
    """Equal value by value and type by type; arrays bit-identical."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, where
        assert np.array_equal(
            got, want, equal_nan=want.dtype.kind in "fc"
        ), where
    elif isinstance(want, Table):
        assert got.column_names == want.column_names, where
        for name in want.column_names:
            _assert_same(got[name], want[name], f"{where}[{name!r}]")
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            _assert_same(
                getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}"
            )
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def _payload(seed: int = 0) -> Payload:
    rng = np.random.default_rng(seed)
    return Payload(
        name=f"p{seed}",
        arr=rng.normal(size=100),
        table=Table(
            {
                "a": rng.integers(0, 10, size=50),
                "b": rng.normal(size=50),
            }
        ),
        nested={"k": (1, 2.5, rng.normal(size=7)), "n": None},
    )


class TestFingerprint:
    def test_stable_for_equal_inputs(self):
        assert fingerprint({"b": 2, "a": 1.5}) == fingerprint({"a": 1.5, "b": 2})

    def test_sensitive_to_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_dataclass_field_changes_fingerprint(self):
        a = _payload(0)
        b = dataclasses.replace(a, name="other")
        assert fingerprint(a) != fingerprint(b)

    def test_plain_object_hashed_by_state_not_address(self):
        class Dist:
            def __init__(self, mu):
                self.mu = mu

        assert fingerprint(Dist(1.0)) == fingerprint(Dist(1.0))
        assert fingerprint(Dist(1.0)) != fingerprint(Dist(2.0))

    def test_array_contents_matter(self):
        assert fingerprint(np.arange(4)) != fingerprint(np.arange(1, 5))


class TestCacheKey:
    def test_component_sensitivity(self):
        base = cache_key(kind="workload", scale="small", seed=0, version=1)
        assert base == cache_key(kind="workload", scale="small", seed=0, version=1)
        assert base != cache_key(kind="workload", scale="small", seed=1, version=1)
        assert base != cache_key(kind="workload", scale="paper", seed=0, version=1)
        assert base != cache_key(kind="workload", scale="small", seed=0, version=2)
        assert base != cache_key(kind="simulation", scale="small", seed=0, version=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cache_key()


class TestRoundTrip:
    def test_arrays_bit_identical(self, tmp_path):
        cache = DiskCache(tmp_path)
        obj = _payload(3)
        cache.put("k" * 64, obj)
        loaded = cache.get("k" * 64)
        assert loaded is not MISS
        assert loaded.name == obj.name
        np.testing.assert_array_equal(loaded.arr, obj.arr)
        assert loaded.arr.dtype == obj.arr.dtype
        assert loaded.table == obj.table
        for name in obj.table.column_names:
            assert loaded.table[name].dtype == obj.table[name].dtype
        np.testing.assert_array_equal(
            loaded.nested["k"][2], obj.nested["k"][2]
        )
        assert loaded.nested["k"][:2] == (1, 2.5)
        assert loaded.nested["n"] is None

    def test_tuple_and_int_keyed_dicts_survive(self, tmp_path):
        cache = DiskCache(tmp_path)
        obj = {1: np.arange(3), 2: ("x", [np.float64(1.5)])}
        cache.put("a" * 64, obj)
        loaded = cache.get("a" * 64)
        assert set(loaded) == {1, 2}
        np.testing.assert_array_equal(loaded[1], np.arange(3))
        assert loaded[2][0] == "x"

    def test_container_types_survive(self, tmp_path):
        cache = DiskCache(tmp_path)
        obj = {
            "sample": Sample("s", np.arange(5, dtype=np.int16)),
            "ordered": collections.OrderedDict([("z", 1), ("a", 2)]),
            "grouped": collections.defaultdict(list, {"k": [np.float32(1.5)]}),
            "pair": Pair((np.linspace(0, 1, 4), "x")),
        }
        cache.put("9" * 64, obj)
        loaded = cache.get("9" * 64)
        _assert_same(loaded, obj)
        # The defaultdict keeps its factory, not just its type.
        assert loaded["grouped"]["new"] == []

    def test_arrays_holding_objects_stay_in_the_pickle(self, tmp_path):
        cache = DiskCache(tmp_path)
        obj = {
            "plain": np.array([1, "x", None], dtype=object),
            "record": np.array([(1, "x")], dtype=[("a", "<i4"), ("b", "O")]),
            "numbers": np.arange(3),
        }
        cache.put("7" * 64, obj)
        loaded = cache.get("7" * 64)
        assert cache.stats.errors == 0
        assert list(loaded["plain"]) == [1, "x", None]
        assert loaded["record"].tolist() == [(1, "x")]
        np.testing.assert_array_equal(loaded["numbers"], np.arange(3))
        arrays = sorted(p.name for p in cache._entry_dir("7" * 64).glob("*.npy"))
        assert arrays == ["a0.npy"]

    def test_unpicklable_object_leaves_nothing(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.put("6" * 64, {"f": lambda: None})
        assert not (tmp_path / "cache").exists()

    def test_miss_on_absent_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("b" * 64) is MISS
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_contains_and_entries(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "c" * 64
        assert key not in cache
        cache.put(key, {"x": 1})
        assert key in cache
        assert cache.entries() == [key]
        cache.clear()
        assert cache.entries() == []

    def test_hit_and_put_counters(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("d" * 64, [1, 2, 3])
        assert cache.stats.puts == 1
        assert cache.get("d" * 64) == [1, 2, 3]
        assert cache.stats.hits == 1


class TestRealTraffic:
    """What the lint cache and the dataset cache actually store."""

    def test_module_summary_round_trips(self, tmp_path):
        from repro.analysis.graph import summarize_module

        path = Path(repro.__file__).parent / "experiments" / "datasets.py"
        summary = summarize_module(
            path.read_text(),
            "repro.experiments.datasets",
            "src/repro/experiments/datasets.py",
            "repro",
        )
        assert summary.functions
        cache = DiskCache(tmp_path)
        cache.put("8" * 64, summary)
        _assert_same(cache.get("8" * 64), summary)

    def test_sim_result_round_trips(self, tmp_path, tiny_sim_result):
        _, result = tiny_sim_result
        cache = DiskCache(tmp_path)
        cache.put("7" * 64, result)
        _assert_same(cache.get("7" * 64), result)


def _truncate(data: bytes) -> bytes:
    return data[:20]


def _flip_last_byte(data: bytes) -> bytes:
    # Same length, intact .npy header: only the digest can tell.
    return data[:-1] + bytes([data[-1] ^ 0xFF])


class TestCorruption:
    def test_truncated_payload_recovers_as_miss(self, tmp_path):
        for damage in (_truncate, _flip_last_byte):
            cache = DiskCache(tmp_path / damage.__name__)
            key = "e" * 64
            cache.put(key, _payload(1))
            array = cache._entry_dir(key) / "a0.npy"
            array.write_bytes(damage(array.read_bytes()))
            assert cache.get(key) is MISS, damage.__name__
            assert cache.stats.errors == 1
            assert cache.stats.quarantined == 1
            # The broken entry is gone; a re-put works again.
            assert key not in cache
            cache.put(key, _payload(1))
            assert cache.get(key) is not MISS

    def test_garbage_skeleton_recovers_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "f" * 64
        cache.put(key, {"v": np.arange(5)})
        (tmp_path / key[:2] / key / "skeleton.pkl").write_bytes(b"not a pickle")
        assert cache.get(key) is MISS
        assert key not in cache


class TestQuarantine:
    def test_corrupt_entry_parked_for_inspection(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "a" * 64
        cache.put(key, _payload(2))
        (tmp_path / key[:2] / key / "skeleton.pkl").write_bytes(b"garbage")
        assert cache.get(key) is MISS
        assert cache.stats.quarantined == 1
        assert cache.stats.errors == 1
        assert cache.quarantined_entries() == [key]
        # The quarantined copy keeps the corrupt bytes for post-mortems.
        parked = cache.quarantine_dir() / key / "skeleton.pkl"
        assert parked.read_bytes() == b"garbage"
        # The live cache self-heals: re-put and read back normally.
        cache.put(key, _payload(2))
        assert cache.get(key) is not MISS

    def test_quarantine_is_pruned(self, tmp_path):
        import os

        cache = DiskCache(tmp_path)
        keys = [format(i, "x").rjust(64, "0") for i in range(12)]
        for i, key in enumerate(keys):
            cache.put(key, {"x": 1})
            (tmp_path / key[:2] / key / "skeleton.pkl").write_bytes(b"junk")
            assert cache.get(key) is MISS
            os.utime(cache.quarantine_dir() / key, (1000 + i, 1000 + i))
        parked = cache.quarantined_entries()
        assert len(parked) <= 8
        assert keys[-1] in parked  # newest kept
        assert keys[0] not in parked  # oldest pruned
        assert cache.stats.quarantined == 12

    def test_concurrently_evicted_entry_is_plain_miss(self, tmp_path):
        # Another process may evict an entry between our existence check
        # and the read; that must read as a miss, not as corruption. An
        # rmtree caught mid-way leaves meta.json without the skeleton.
        cache = DiskCache(tmp_path)
        key = "b" * 64
        cache.put(key, {"x": 1})
        (cache._entry_dir(key) / "skeleton.pkl").unlink()
        assert cache.get(key) is MISS
        assert cache.stats.misses == 1
        assert cache.stats.errors == 0
        assert cache.stats.quarantined == 0


def _race_worker(root, worker: int) -> None:
    """Hammer one shared cache with puts and gets under tight eviction."""
    cache = DiskCache(root, max_entries=2, max_bytes=None)
    keys = [c * 64 for c in "abcd"]
    for round_ in range(30):
        key = keys[(worker + round_) % len(keys)]
        cache.put(key, {"x": np.arange(200)})
        for probe in keys:
            value = cache.get(probe)
            assert value is MISS or value["x"][0] == 0


class TestEvictionRace:
    def test_two_processes_put_get_evict_without_errors(self, tmp_path):
        # Regression test for FileNotFoundError escaping get() when a
        # concurrent process's LRU eviction removes the entry mid-read.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_race_worker, args=(tmp_path, i))
            for i in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0]


class TestEviction:
    def test_puts_within_budget_scan_once(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path, max_entries=100, max_bytes=None)
        scans = []

        def scan():
            scans.append(None)
            return DiskCache._scan(cache)

        monkeypatch.setattr(cache, "_scan", scan)
        for i in range(50):
            cache.put(format(i, "x").rjust(64, "0"), {"i": np.arange(10)})
        assert len(scans) == 1
        assert len(cache.entries()) == 50

    def test_budget_holds_across_instances(self, tmp_path):
        # Each instance tallies only its own puts; the other's entries
        # are counted at its next scan, so the shared root still holds
        # no more than the budget.
        first = DiskCache(tmp_path, max_entries=3, max_bytes=None)
        second = DiskCache(tmp_path, max_entries=3, max_bytes=None)
        for c in "abc":
            first.put(c * 64, {"x": np.arange(10)})
        for c in "de":
            second.put(c * 64, {"x": np.arange(10)})
        assert len(first.entries()) == 3

    def test_entry_count_budget(self, tmp_path):
        import os

        cache = DiskCache(tmp_path, max_entries=2, max_bytes=None)
        keys = [c * 64 for c in "abc"]
        for i, key in enumerate(keys):
            cache.put(key, {"i": np.arange(10)})
            # Distinct mtimes so LRU order is unambiguous on coarse
            # filesystem timestamp resolutions.
            os.utime(tmp_path / key[:2] / key, (1000 + i, 1000 + i))
        cache._evict()
        assert cache.stats.evictions >= 1
        assert len(cache.entries()) == 2
        assert keys[0] not in cache  # oldest evicted
        assert keys[2] in cache  # newest kept

    def test_byte_budget(self, tmp_path):
        import os

        cache = DiskCache(tmp_path, max_entries=None, max_bytes=1)
        for i, c in enumerate("ab"):
            key = c * 64
            cache.put(key, {"i": np.arange(100)})
            os.utime(tmp_path / key[:2] / key, (1000 + i, 1000 + i))
        cache._evict()
        # Every entry exceeds one byte; only the newest survives a put.
        assert len(cache.entries()) <= 1

    def test_no_budget_keeps_everything(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=None, max_bytes=None)
        for c in "abcdef":
            cache.put(c * 64, {"x": 1})
        assert len(cache.entries()) == 6
        assert cache.stats.evictions == 0


class TestDirectoryEntries:
    """put_path/get_path and recursive byte accounting."""

    def _tree(self, tmp_path, name="src", nbytes=1000):
        src = tmp_path / name
        (src / "nested").mkdir(parents=True)
        (src / "a.npy").write_bytes(b"x" * nbytes)
        (src / "nested" / "b.npy").write_bytes(b"y" * nbytes)
        return src

    def test_round_trip_keeps_nested_files(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=None, max_entries=None)
        src = self._tree(tmp_path)
        key = "d" * 64
        cache.put_path(key, src)
        payload = cache.get_path(key)
        assert payload is not MISS
        assert (payload / "a.npy").read_bytes() == b"x" * 1000
        assert (payload / "nested" / "b.npy").read_bytes() == b"y" * 1000

    def test_move_consumes_source(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=None, max_entries=None)
        src = self._tree(tmp_path)
        cache.put_path("e" * 64, src)
        assert not src.exists()
        assert cache.get_path("e" * 64) is not MISS

    def test_miss_on_absent_key(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        assert cache.get_path("f" * 64) is MISS
        assert cache.stats.misses == 1

    def test_accounting_counts_every_nested_file(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=None, max_entries=None)
        src = self._tree(tmp_path, nbytes=5000)
        cache.put_path("a" * 64, src)
        # Both payload files plus skeleton/meta must be visible to the
        # byte budget; the old iterdir-level accounting saw none of the
        # nested payload bytes.
        assert cache.total_bytes() >= 10_000

    def test_byte_budget_evicts_directory_entries(self, tmp_path):
        import os

        cache = DiskCache(tmp_path / "cache", max_bytes=1, max_entries=None)
        for i, c in enumerate("ab"):
            key = c * 64
            cache.put_path(key, self._tree(tmp_path, name=f"src{i}"))
            os.utime(tmp_path / "cache" / key[:2] / key, (1000 + i, 1000 + i))
        cache._evict()
        assert len(cache.entries()) <= 1

    def test_object_get_on_dir_entry_is_quarantined_miss(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=None, max_entries=None)
        cache.put_path("b" * 64, self._tree(tmp_path))
        # get_path on an entry whose payload dir was destroyed recovers
        # as a miss instead of handing out a broken path.
        payload = cache.get_path("b" * 64)
        import shutil as _shutil

        _shutil.rmtree(payload)
        assert cache.get_path("b" * 64) is MISS
        assert cache.stats.errors == 1
