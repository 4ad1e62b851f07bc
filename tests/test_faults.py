"""Tests for deterministic fault injection (repro.experiments.faults)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.diskcache import MISS, CacheCorruptionError
from repro.core.timing import Timings
from repro.experiments import datasets
from repro.experiments.faults import (
    BLOCK_FAULT_KINDS,
    PLAN_ENV,
    SHARD_FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    ShardFaultInjector,
    corrupt_cache_entries,
    corrupt_shard_column,
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
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_obj([{"experiment_id": "fig4", "kind": "explode"}])

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
        monkeypatch.setenv(PLAN_ENV, '[{"experiment_id": "fig4", "kind": "x"}]')
        rc = runner_main(["fig4", "--scale", "small", "--no-cache"])
        assert rc == 2
        assert "invalid fault plan" in capsys.readouterr().err


class TestShardFaultSpecs:
    """Validation of the out-of-core fault kinds."""

    def test_block_kinds_require_block(self):
        for kind in BLOCK_FAULT_KINDS:
            with pytest.raises(ValueError, match="block"):
                FaultSpec(experiment_id="*", kind=kind)

    def test_corrupt_shard_requires_shard(self):
        with pytest.raises(ValueError, match="shard"):
            FaultSpec(experiment_id="*", kind="corrupt-shard", block=0)

    def test_torn_spill_requires_shard(self):
        with pytest.raises(ValueError, match="shard"):
            FaultSpec(experiment_id="*", kind="torn-spill")

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(experiment_id="*", kind="kill-worker", block=-1)
        with pytest.raises(ValueError):
            FaultSpec(
                experiment_id="*", kind="torn-spill", shard=-2
            )

    def test_shard_kinds_skipped_by_experiment_lookup(self):
        # Experiment-level supervision must not fire on out-of-core
        # faults: they have their own injection points.
        plan = FaultPlan.from_obj(
            [{"experiment_id": "*", "kind": "kill-worker", "block": 0}]
        )
        assert plan.lookup("fig7", 1) is None
        assert plan.lookup("*", 1) is None

    def test_lookup_block_matches_table_block_attempt(self):
        plan = FaultPlan.from_obj(
            [
                {
                    "experiment_id": "machine_usage",
                    "kind": "kill-worker",
                    "block": 2,
                    "attempt": 1,
                }
            ]
        )
        assert plan.lookup_block("machine_usage", 2, 1) is not None
        assert plan.lookup_block("machine_usage", 2, 2) is None
        assert plan.lookup_block("machine_usage", 1, 1) is None
        assert plan.lookup_block("google_jobs", 2, 1) is None

    def test_wildcard_table_matches_all(self):
        plan = FaultPlan.from_obj(
            [{"experiment_id": "*", "kind": "hang-block", "block": 0}]
        )
        assert plan.lookup_block("anything", 0, 1) is not None
        assert plan.has_shard_faults("anything")

    def test_lookup_spill(self):
        plan = FaultPlan.from_obj(
            [{"experiment_id": "t", "kind": "torn-spill", "shard": 3}]
        )
        assert plan.lookup_spill("t", 3) is not None
        assert plan.lookup_spill("t", 2) is None
        assert plan.lookup_spill("u", 3) is None


class TestShardFaultInjector:
    def test_picklable_across_spawn_boundary(self):
        import pickle

        plan = FaultPlan.from_obj(
            [{"experiment_id": "*", "kind": "kill-worker", "block": 1}]
        )
        injector = ShardFaultInjector(plan=plan, table="t")
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.plan.lookup_block("t", 1, 1) is not None

    def test_unmatched_call_is_noop(self, tmp_path):
        plan = FaultPlan.from_obj(
            [{"experiment_id": "t", "kind": "kill-worker", "block": 5}]
        )
        injector = ShardFaultInjector(plan=plan, table="t")
        injector(str(tmp_path), block=0, attempt=1)  # must not kill

    def test_corrupt_shard_fires_through_injector(self, tmp_path):
        from repro.core.shard import ShardedTable, write_table
        from repro.core.table import Table

        sharded = write_table(
            Table({"x": np.arange(12.0)}), tmp_path / "t", 4
        )
        plan = FaultPlan.from_obj(
            [
                {
                    "experiment_id": "t",
                    "kind": "corrupt-shard",
                    "block": 0,
                    "shard": 1,
                }
            ]
        )
        ShardFaultInjector(plan=plan, table="t")(
            str(sharded.root), block=0, attempt=1
        )
        # Structural validation still passes; the digest check catches it.
        reopened = ShardedTable.open(sharded.root)
        from repro.core.shard import ShardIntegrityError

        with pytest.raises(ShardIntegrityError):
            reopened.shard(1)

    def test_corrupt_shard_column_returns_path(self, tmp_path):
        from repro.core.shard import write_table
        from repro.core.table import Table

        sharded = write_table(
            Table({"x": np.arange(8.0)}), tmp_path / "t", 4
        )
        hit = corrupt_shard_column(sharded.root, 0)
        assert hit is not None and hit.endswith("x.npy")
        assert corrupt_shard_column(sharded.root, 7) is None


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
