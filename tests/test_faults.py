"""Tests for deterministic fault injection (repro.experiments.faults)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.diskcache import MISS, CacheCorruptionError
from repro.core.timing import Timings
from repro.experiments import datasets
from repro.experiments.faults import (
    PLAN_ENV,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    corrupt_cache_entries,
    plan_from_env,
    spill_fault_hook,
)
from repro.experiments.runner import main as runner_main


@pytest.fixture
def plain_cache(tmp_path):
    """A dataset disk cache in a temp dir; restores the disabled default."""
    cache = datasets.configure_cache(tmp_path)
    yield cache
    datasets.configure_cache(None)
    datasets.reset_dataset_stats()


class TestPlanParsing:
    def test_inline_json_list(self):
        plan = FaultPlan.load('[{"experiment_id": "fig4", "kind": "kill"}]')
        assert plan.faults == (FaultSpec(experiment_id="fig4", kind="kill"),)

    def test_object_with_faults_key(self):
        plan = FaultPlan.load('{"faults": [{"experiment_id": "tab1"}]}')
        assert plan.faults[0].experiment_id == "tab1"
        assert plan.faults[0].kind == "raise"

    def test_file_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                [{"experiment_id": "fig7", "kind": "hang", "seconds": 5}]
            )
        )
        plan = FaultPlan.load(path)
        assert plan.faults[0].kind == "hang"
        assert plan.faults[0].seconds == 5

    def test_unknown_kind_rejected(self):
        # The block kinds are unknown too: no block worker runs them.
        for kind in ("explode", "kill-worker", "hang-block", "corrupt-shard"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultPlan.from_obj([{"experiment_id": "fig4", "kind": kind}])

    def test_attempt_must_be_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(experiment_id="fig4", attempt=0)

    def test_non_list_rejected(self):
        with pytest.raises(ValueError, match="list"):
            FaultPlan.from_obj("nope")


class TestLookupAndTrigger:
    def test_lookup_matches_exact_experiment_and_attempt(self):
        plan = FaultPlan.from_obj([{"experiment_id": "fig4", "attempt": 2}])
        assert plan.lookup("fig4", 2) is not None
        assert plan.lookup("fig4", 1) is None
        assert plan.lookup("fig2", 2) is None

    def test_trigger_raise_counts_injection(self):
        plan = FaultPlan.from_obj([{"experiment_id": "fig4", "kind": "raise"}])
        timings = Timings()
        with pytest.raises(FaultInjected, match="fig4 attempt 1"):
            plan.trigger("fig4", 1, timings=timings)
        assert timings.counters["faults_injected"] == 1

    def test_trigger_corruption_is_typed(self):
        plan = FaultPlan.from_obj(
            [{"experiment_id": "fig4", "kind": "raise-corruption"}]
        )
        with pytest.raises(CacheCorruptionError):
            plan.trigger("fig4", 1)

    def test_unplanned_attempt_is_noop(self):
        plan = FaultPlan.from_obj([{"experiment_id": "fig4"}])
        timings = Timings()
        plan.trigger("tab1", 1, timings=timings)  # must not raise
        plan.trigger("fig4", 2, timings=timings)
        assert "faults_injected" not in timings.counters


class TestCorruptOneCacheEntry:
    def test_truncates_first_entry_and_cache_self_heals(self, plain_cache):
        key = "a" * 64
        plain_cache.put(key, {"x": np.arange(50)})
        assert corrupt_cache_entries() == [key]
        # The damaged entry is quarantined on the next read, not served.
        assert plain_cache.get(key) is MISS
        assert plain_cache.stats.quarantined == 1
        assert plain_cache.stats.errors == 1

    def test_none_without_cache(self):
        datasets.configure_cache(None)
        assert corrupt_cache_entries() == []

    def test_none_with_empty_cache(self, plain_cache):
        assert corrupt_cache_entries() == []


class TestPlanFromEnv:
    def test_absent_env_is_none(self):
        assert plan_from_env({}) is None
        assert plan_from_env({PLAN_ENV: ""}) is None

    def test_inline_json_env(self):
        plan = plan_from_env({PLAN_ENV: '[{"experiment_id": "fig4"}]'})
        assert plan is not None
        assert plan.faults[0].experiment_id == "fig4"

    def test_env_plan_activates_supervision_in_runner(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv(
            PLAN_ENV, '[{"experiment_id": "fig4", "kind": "raise"}]'
        )
        rc = runner_main(["fig4", "--scale", "small", "--no-cache"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "fig4 failed [exception]" in err
        assert "injected failure" in err

    def test_invalid_plan_rejected_by_runner(self, monkeypatch, capsys):
        for kind in ("x", "kill-worker", "hang-block", "corrupt-shard"):
            plan = json.dumps([{"experiment_id": "*", "kind": kind}])
            monkeypatch.setenv(PLAN_ENV, plan)
            rc = runner_main(["fig4", "--scale", "small", "--no-cache"])
            assert rc == 2, kind
            assert "invalid fault plan" in capsys.readouterr().err


class TestShardFaultSpecs:
    """Validation of the out-of-core fault kinds."""

    def test_torn_spill_requires_shard(self):
        with pytest.raises(ValueError, match="shard"):
            FaultSpec(experiment_id="*", kind="torn-spill")

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(experiment_id="*", kind="torn-spill", shard=-2)

    def test_shard_kinds_skipped_by_experiment_lookup(self):
        # Experiment-level supervision must not fire on out-of-core
        # faults: they have their own injection points.
        plan = FaultPlan.from_obj(
            [{"experiment_id": "*", "kind": "torn-spill", "shard": 0}]
        )
        assert plan.lookup("fig7", 1) is None
        assert plan.lookup("*", 1) is None

    def test_lookup_spill(self):
        plan = FaultPlan.from_obj(
            [{"experiment_id": "t", "kind": "torn-spill", "shard": 3}]
        )
        assert plan.lookup_spill("t", 3) is not None
        assert plan.lookup_spill("t", 2) is None
        assert plan.lookup_spill("u", 3) is None
        wildcard = FaultPlan.from_obj(
            [{"experiment_id": "*", "kind": "torn-spill", "shard": 3}]
        )
        assert wildcard.lookup_spill("anything", 3) is not None
        assert spill_fault_hook(wildcard, "anything") is not None


class TestSpillFaultHook:
    def test_none_without_matching_fault(self):
        plan = FaultPlan.from_obj(
            [{"experiment_id": "other", "kind": "torn-spill", "shard": 0}]
        )
        assert spill_fault_hook(plan, "t") is None

    def test_hook_ignores_resumed_spills(self):
        plan = FaultPlan.from_obj(
            [{"experiment_id": "t", "kind": "torn-spill", "shard": 0}]
        )
        hook = spill_fault_hook(plan, "t")
        assert hook is not None
        # Resumed attempt (resumed_shards > 0) must survive; wrong
        # event or shard must survive. Reaching here proves no SIGKILL.
        hook("column-written", 0, 3)
        hook("shard-committed", 0, 0)
        hook("column-written", 1, 0)
