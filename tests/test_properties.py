"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.ecdf import ecdf
from repro.core.fairness import hourly_counts, jain_fairness
from repro.core.masscount import mass_count
from repro.core.noise import autocorrelation, mean_filter
from repro.core.segments import constant_segments, discretize
from repro.core.table import Table, concat_tables

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestECDFProperties:
    @given(arrays(np.float64, st.integers(1, 200), elements=finite_floats))
    def test_cdf_monotone_and_bounded(self, sample):
        cdf = ecdf(sample)
        assert np.all(np.diff(cdf.probabilities) >= 0)
        assert 0 < cdf.probabilities[0] <= 1
        assert cdf.probabilities[-1] == pytest.approx(1.0)

    @given(arrays(np.float64, st.integers(1, 200), elements=finite_floats))
    def test_cdf_at_max_is_one(self, sample):
        cdf = ecdf(sample)
        assert cdf(float(sample.max())) == pytest.approx(1.0)

    @given(
        arrays(np.float64, st.integers(1, 100), elements=finite_floats),
        st.floats(min_value=0, max_value=1),
    )
    def test_quantile_cdf_galois(self, sample, q):
        """cdf(quantile(q)) >= q for every attainable q."""
        cdf = ecdf(sample)
        value = cdf.quantile(q)
        assert cdf(value) >= q - 1e-12


class TestMassCountProperties:
    @given(arrays(np.float64, st.integers(1, 300), elements=positive_floats))
    def test_joint_ratio_halves(self, sample):
        mc = mass_count(sample)
        x, y = mc.joint_ratio
        assert x + y == pytest.approx(100.0)
        assert 0 <= x <= 100

    @given(arrays(np.float64, st.integers(2, 300), elements=positive_floats))
    def test_mass_lags_count(self, sample):
        mc = mass_count(sample)
        assert np.all(mc.mass_cdf <= mc.count_cdf + 1e-9)

    @given(
        arrays(np.float64, st.integers(1, 200), elements=positive_floats),
        st.floats(min_value=0.1, max_value=100),
    )
    def test_scale_invariance(self, sample, factor):
        """Scaling the sample rescales mm-distance but not joint ratio."""
        a = mass_count(sample)
        b = mass_count(sample * factor)
        assert a.joint_ratio[0] == pytest.approx(b.joint_ratio[0], abs=1e-6)
        assert b.mm_distance == pytest.approx(a.mm_distance * factor, rel=1e-9)


class TestFairnessProperties:
    @given(
        arrays(
            np.float64,
            st.integers(1, 100),
            elements=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        )
    )
    # Its squares underflow to subnormals; the index must stay <= 1.
    @example(np.array([2.8e-160, 2.8e-160]))
    def test_bounds(self, x):
        f = jain_fairness(x)
        assert 0 < f <= 1.0 + 1e-12
        if np.any(x > 0):
            assert f >= 1.0 / x.size - 1e-12

    @given(
        arrays(
            np.float64,
            st.integers(1, 500),
            elements=st.floats(min_value=0, max_value=86400 * 3 - 1e-6,
                               allow_nan=False),
        )
    )
    def test_hourly_counts_conserve_mass(self, times):
        counts = hourly_counts(times, horizon=3 * 86400.0)
        assert counts.sum() == times.size
        assert len(counts) == 72


class TestSegmentProperties:
    @given(
        st.integers(2, 300).flatmap(
            lambda n: st.tuples(
                st.just(n),
                arrays(
                    np.int64, n, elements=st.integers(0, 4)
                ),
            )
        )
    )
    def test_durations_cover_span(self, n_and_levels):
        n, levels = n_and_levels
        times = np.arange(n, dtype=np.float64) * 300.0
        seg = constant_segments(times, levels)
        assert seg.durations.sum() == pytest.approx(
            times[-1] - times[0] + 300.0
        )
        # Adjacent runs always differ in level.
        assert np.all(seg.levels[1:] != seg.levels[:-1])

    @given(
        arrays(
            np.float64,
            st.integers(1, 200),
            elements=st.floats(min_value=0, max_value=1, allow_nan=False),
        )
    )
    def test_discretize_round_trip_bounds(self, values):
        levels = discretize(values)
        edges = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert np.all(levels >= 0)
        assert np.all(levels <= 4)
        lower = edges[levels]
        assert np.all(values >= lower - 1e-12)


class TestNoiseProperties:
    @given(
        arrays(np.float64, st.integers(2, 300), elements=finite_floats),
        st.integers(1, 20),
    )
    def test_mean_filter_preserves_mean_range(self, signal, window):
        smooth = mean_filter(signal, window)
        assert smooth.min() >= signal.min() - 1e-9
        assert smooth.max() <= signal.max() + 1e-9

    @given(arrays(np.float64, st.integers(3, 300), elements=finite_floats))
    def test_autocorrelation_bounded(self, signal):
        r = autocorrelation(signal)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestTableProperties:
    @given(
        arrays(np.float64, st.integers(0, 100), elements=finite_floats),
        st.integers(0, 10),
    )
    def test_select_then_concat_identity(self, column, split):
        t = Table({"x": column})
        k = min(split, len(t))
        left = t.select(np.arange(k))
        right = t.select(np.arange(k, len(t)))
        if len(t) == 0:
            return
        merged = concat_tables([left, right])
        assert merged == t

    @given(arrays(np.float64, st.integers(1, 100), elements=finite_floats))
    def test_sort_is_permutation(self, column):
        t = Table({"x": column})
        s = t.sort_by("x")
        np.testing.assert_allclose(
            np.sort(column), np.asarray(s["x"]), equal_nan=True
        )

    @given(
        arrays(np.int64, st.integers(1, 200), elements=st.integers(0, 5))
    )
    def test_group_indices_partition(self, keys):
        t = Table({"k": keys})
        groups = t.group_indices("k")
        all_idx = np.sort(np.concatenate(list(groups.values())))
        np.testing.assert_array_equal(all_idx, np.arange(len(t)))
        for key, idx in groups.items():
            assert np.all(keys[idx] == key)


class TestSimulatorProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sim_accounting_invariants(self, seed):
        """Random small sims never violate resource accounting."""
        from repro.sim import ClusterSimulator, SimConfig
        from repro.synth import (
            GoogleConfig,
            generate_machines,
            generate_task_requests,
        )

        rng = np.random.default_rng(seed)
        machines = generate_machines(3, rng)
        requests = generate_task_requests(
            4 * 3600.0,
            seed=seed,
            config=GoogleConfig(busy_window=None),
            tasks_per_hour=60.0,
        )
        result = ClusterSimulator(machines, SimConfig(), seed=seed).run(
            requests, 4 * 3600.0
        )
        mu = result.machine_usage
        assert np.all(np.asarray(mu["cpu_usage"]) >= 0)
        assert np.all(np.asarray(mu["n_running"]) >= 0)
        mix = result.completion_mix()
        total = sum(
            mix[k] for k in ("finish", "fail", "kill", "evict", "lost")
        )
        assert total == pytest.approx(1.0) or total == 0.0
