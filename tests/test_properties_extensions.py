"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.consolidation import pack_demands
from repro.core.fit import fit_exponential, fit_lognormal
from repro.hostload.modes import kmeans

positive_floats = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestFitProperties:
    @given(
        arrays(
            np.float64,
            st.integers(10, 200),
            elements=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        )
    )
    def test_exponential_fit_matches_mean(self, sample):
        fit = fit_exponential(sample)
        assert fit.params["mean"] == pytest.approx(float(sample.mean()))
        assert 0 <= fit.ks <= 1

    @given(
        arrays(
            np.float64,
            st.integers(10, 200),
            elements=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        ),
        st.floats(min_value=0.5, max_value=20),
    )
    def test_lognormal_fit_scale_equivariant(self, sample, factor):
        """Scaling the data scales the median, keeps sigma."""
        a = fit_lognormal(sample)
        b = fit_lognormal(sample * factor)
        assert b.params["median"] == pytest.approx(
            a.params["median"] * factor, rel=1e-6
        )
        assert b.params["sigma"] == pytest.approx(a.params["sigma"], abs=1e-9)


class TestKmeansProperties:
    @settings(max_examples=25)
    @given(
        st.integers(2, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                arrays(np.float64, (n, 3), elements=unit_floats),
                st.integers(1, min(n, 5)),
            )
        )
    )
    def test_labels_valid_and_centroids_finite(self, args):
        n, points, k = args
        rng = np.random.default_rng(0)
        labels, centroids = kmeans(points, k, rng)
        assert labels.shape == (n,)
        assert labels.min() >= 0 and labels.max() < k
        assert np.all(np.isfinite(centroids))


class TestPackingProperties:
    @settings(max_examples=50)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                arrays(
                    np.float64,
                    n,
                    elements=st.floats(min_value=0, max_value=0.4,
                                       allow_nan=False),
                ),
                arrays(
                    np.float64,
                    n,
                    elements=st.floats(min_value=0, max_value=0.4,
                                       allow_nan=False),
                ),
            )
        )
    )
    def test_pack_bounded_by_fleet(self, demands):
        cpu, mem = demands
        n = len(cpu)
        caps = np.ones(n)
        used = pack_demands(cpu, mem, caps, caps, headroom=0.0)
        assert 0 <= used <= n
        # Trivial lower bound: total demand / per-machine capacity.
        assert used >= int(np.ceil(max(cpu.sum(), mem.sum()) - 1e-9))

    @settings(max_examples=30)
    @given(
        arrays(
            np.float64,
            8,
            elements=st.floats(min_value=0, max_value=0.3, allow_nan=False),
        )
    )
    def test_more_headroom_never_fewer_machines(self, cpu):
        mem = cpu.copy()
        caps = np.ones(8)
        loose = pack_demands(cpu, mem, caps, caps, headroom=0.0)
        tight = pack_demands(cpu, mem, caps, caps, headroom=0.3)
        assert tight >= loose
