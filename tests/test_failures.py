"""Unit tests for the failure model and the scalar oracle's draws from it."""

import numpy as np
import pytest

from repro.sim.failures import FailureModel
from repro.traces.schema import TaskEvent
from tests.oracles import redraw_fate, resubmits, run_time


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestRunTime:
    def test_finish_runs_full(self, rng):
        model = FailureModel()
        assert run_time(model, int(TaskEvent.FINISH), 100.0, rng) == 100.0

    @pytest.mark.parametrize(
        "fate",
        [TaskEvent.FAIL, TaskEvent.KILL, TaskEvent.LOST, TaskEvent.EVICT],
    )
    def test_abnormal_runs_partial(self, rng, fate):
        model = FailureModel()
        for _ in range(20):
            rt = run_time(model, int(fate), 100.0, rng)
            assert 0 < rt <= 100.0

    def test_unknown_fate_rejected(self, rng):
        model = FailureModel()
        with pytest.raises(ValueError):
            run_time(model, int(TaskEvent.SUBMIT), 100.0, rng)

    def test_fraction_bounds_respected(self, rng):
        model = FailureModel(fail_fraction=(0.5, 0.5))
        assert run_time(model, int(TaskEvent.FAIL), 100.0, rng) == pytest.approx(
            50.0
        )


class TestResubmission:
    def test_fail_resubmits_sometimes(self, rng):
        model = FailureModel(resubmit_prob=1.0)
        assert resubmits(model, int(TaskEvent.FAIL), 0, rng)
        model = FailureModel(resubmit_prob=0.0)
        assert not resubmits(model, int(TaskEvent.FAIL), 0, rng)

    def test_kill_never_resubmits(self, rng):
        model = FailureModel(resubmit_prob=1.0)
        assert not resubmits(model, int(TaskEvent.KILL), 0, rng)
        assert not resubmits(model, int(TaskEvent.LOST), 0, rng)
        assert not resubmits(model, int(TaskEvent.FINISH), 0, rng)

    def test_evict_resubmits(self, rng):
        model = FailureModel(resubmit_prob=1.0)
        assert resubmits(model, int(TaskEvent.EVICT), 0, rng)

    def test_max_resubmits_enforced(self, rng):
        model = FailureModel(resubmit_prob=1.0, max_resubmits=2)
        assert resubmits(model, int(TaskEvent.FAIL), 1, rng)
        assert not resubmits(model, int(TaskEvent.FAIL), 2, rng)


class TestRedrawFate:
    def test_distribution(self):
        rng = np.random.default_rng(1)
        model = FailureModel()
        draws = [redraw_fate(model, rng) for _ in range(5000)]
        finish_frac = draws.count(int(TaskEvent.FINISH)) / len(draws)
        assert finish_frac == pytest.approx(0.408, abs=0.03)

    def test_custom_refate(self):
        rng = np.random.default_rng(2)
        model = FailureModel(refate_probs=(("finish", 1.0),))
        assert redraw_fate(model, rng) == int(TaskEvent.FINISH)


class TestValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            FailureModel(fail_fraction=(0.0, 0.5))
        with pytest.raises(ValueError):
            FailureModel(kill_fraction=(0.9, 0.5))

    def test_bad_resubmit_prob(self):
        with pytest.raises(ValueError):
            FailureModel(resubmit_prob=1.5)

    def test_bad_max_resubmits(self):
        with pytest.raises(ValueError):
            FailureModel(max_resubmits=-1)

    def test_bad_refate_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FailureModel(refate_probs=(("finish", 0.5),))
