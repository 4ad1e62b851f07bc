"""Golden equivalence tests: vectorized kernels vs scalar references.

Every kernel in :mod:`repro.core.kernels` (and its call-site wrappers)
promises **bit-identical** output to the scalar path it replaced, kept
in ``tests/oracles.py``. These tests run both implementations on seeded
inputs — including the real monitor output of the tiny simulation —
and compare exactly, not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import (
    MassCountAccumulator,
    grouped_sort_split,
    pooled_level_durations,
)
from repro.core.masscount import mass_count
from repro.core.segments import (
    DEFAULT_USAGE_LEVELS,
    QUEUE_STATE_LEVELS,
    discretize,
    level_durations,
)
from repro.core.table import Table
from repro.hostload.levels import pooled_level_durations as pooled_series_durations
from repro.hostload.series import all_machine_series
from tests.oracles import (
    all_machine_series_scalar,
    pooled_level_durations_scalar,
)


@pytest.fixture(scope="module")
def sim(tiny_sim_result):
    _, result = tiny_sim_result
    return result


class TestDiscretizeFastPath:
    """The few-edges comparison-sum path must equal searchsorted."""

    @pytest.mark.parametrize(
        "edges", [DEFAULT_USAGE_LEVELS, QUEUE_STATE_LEVELS]
    )
    def test_matches_searchsorted(self, rng, edges):
        values = rng.uniform(edges[0], min(edges[-1], 1e3), 10_000)
        got = discretize(values, edges)
        expect = np.minimum(
            np.searchsorted(edges, values, side="right") - 1, len(edges) - 2
        )
        np.testing.assert_array_equal(got, expect)
        assert got.dtype == np.int64

    def test_edge_values_exact(self):
        edges = DEFAULT_USAGE_LEVELS
        values = np.concatenate((edges, [0.1999999, 0.2000001] * 4))
        got = discretize(values, edges)
        expect = np.minimum(
            np.searchsorted(edges, values, side="right") - 1, len(edges) - 2
        )
        np.testing.assert_array_equal(got, expect)


class TestPooledLevelDurations:
    def _random_pool(self, rng, n_series, max_len):
        lengths = rng.integers(1, max_len, n_series)
        times, values = [], []
        for n in lengths:
            times.append(np.cumsum(rng.uniform(1.0, 10.0, n)))
            values.append(rng.uniform(0.0, 1.0, n))
        return times, values, lengths

    def test_matches_per_series_loop(self, rng):
        times, values, lengths = self._random_pool(rng, 25, 40)
        pooled = pooled_level_durations(
            np.concatenate(times), np.concatenate(values), lengths
        )
        n_levels = len(DEFAULT_USAGE_LEVELS) - 1
        expect: dict[int, list[np.ndarray]] = {
            lvl: [] for lvl in range(n_levels)
        }
        for t, v in zip(times, values):
            for lvl, durs in level_durations(t, v).items():
                if durs.size:
                    expect[lvl].append(durs)
        for lvl in range(n_levels):
            ref = (
                np.concatenate(expect[lvl]) if expect[lvl] else np.empty(0)
            )
            np.testing.assert_array_equal(pooled[lvl], ref)

    def test_single_sample_series_tail(self):
        # A one-sample series gets duration 1.0 (constant_segments' rule).
        pooled = pooled_level_durations(
            np.array([100.0]), np.array([0.5]), np.array([1])
        )
        np.testing.assert_array_equal(pooled[2], [1.0])

    def test_zero_length_series_skipped(self):
        pooled = pooled_level_durations(
            np.array([0.0, 300.0]), np.array([0.1, 0.1]), np.array([0, 2, 0])
        )
        np.testing.assert_array_equal(pooled[0], [600.0])

    def test_empty_pool(self):
        pooled = pooled_level_durations(np.empty(0), np.empty(0), np.empty(0))
        assert all(v.size == 0 for v in pooled.values())

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            pooled_level_durations(
                np.array([0.0, 1.0]), np.array([0.1, 0.1]), np.array([3])
            )

    def test_nonmonotonic_times_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            pooled_level_durations(
                np.array([1.0, 1.0]), np.array([0.1, 0.1]), np.array([2])
            )

    def test_series_wrapper_matches_scalar(self, sim):
        series = all_machine_series(sim.machine_usage, sim.machines)
        for attribute in ("cpu", "mem", "page_cache", "cpu_mid_high"):
            fast = pooled_series_durations(series, attribute)
            golden = pooled_level_durations_scalar(series, attribute)
            assert fast.keys() == golden.keys()
            for lvl in fast:
                np.testing.assert_array_equal(fast[lvl], golden[lvl])

    def test_series_wrapper_empty(self):
        pooled = pooled_series_durations({})
        assert all(v.size == 0 for v in pooled.values())


class TestGroupedSortSplit:
    def test_matches_filter_and_sort(self, rng):
        n = 400
        table = Table(
            {
                "machine_id": rng.integers(0, 12, n),
                "time": rng.uniform(0, 1e4, n),
                "cpu_usage": rng.uniform(0, 1, n),
            }
        )
        unique, cols = grouped_sort_split(table, "machine_id", within="time")
        np.testing.assert_array_equal(
            unique, np.unique(table["machine_id"])
        )
        for i, mid in enumerate(unique):
            sub = table.select(table["machine_id"] == mid).sort_by("time")
            for name in table.column_names:
                np.testing.assert_array_equal(cols[name][i], sub[name])

    def test_empty_table(self):
        table = Table({"machine_id": np.empty(0, dtype=np.int64)})
        unique, cols = grouped_sort_split(table, "machine_id")
        assert unique.size == 0
        assert cols["machine_id"] == []

    def test_machine_series_matches_scalar(self, sim):
        fast = all_machine_series(sim.machine_usage, sim.machines)
        golden = all_machine_series_scalar(sim.machine_usage, sim.machines)
        assert list(fast) == list(golden)
        for mid, s in fast.items():
            g = golden[mid]
            assert s.cpu_capacity == g.cpu_capacity
            for attr in ("times", "cpu", "mem", "mem_assigned", "page_cache",
                         "cpu_mid_high", "cpu_high", "mem_mid_high",
                         "mem_high", "n_running"):
                np.testing.assert_array_equal(
                    getattr(s, attr), getattr(g, attr)
                )


class TestMassCountAccumulator:
    def test_chunked_equals_pooled(self, rng):
        values = rng.exponential(1.0, 5_000)
        acc = MassCountAccumulator()
        for chunk in np.array_split(values, 7):
            acc.add(chunk)
        assert acc.n_values == values.size
        np.testing.assert_array_equal(acc.merged(), values)
        fast, ref = acc.finalize(), mass_count(values)
        assert fast.joint_ratio == ref.joint_ratio
        assert fast.mm_distance == ref.mm_distance

    def test_positive_only_filter(self, rng):
        values = np.concatenate((rng.uniform(0, 1, 100), np.zeros(50)))
        rng.shuffle(values)
        acc = MassCountAccumulator(positive_only=True)
        acc.add(values)
        np.testing.assert_array_equal(acc.merged(), values[values > 0])

    def test_rejects_2d_chunk(self):
        with pytest.raises(ValueError, match="1-D"):
            MassCountAccumulator().add(np.zeros((2, 3)))
