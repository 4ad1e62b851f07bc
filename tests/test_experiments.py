"""Integration tests: every experiment runs and matches the paper's shape.

These are the reproduction's acceptance tests — each experiment's
headline comparative claim (who wins, which direction) must hold at the
small test scale. Magnitudes are checked loosely where the small scale
supports it; exact magnitudes are the benchmarks' job at paper scale.
"""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, run_all, run_experiment
from repro.experiments.runner import main as runner_main


@pytest.fixture(scope="module")
def results():
    return run_all(scale="small", seed=0)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENTS) == 23
        assert "scorecard" in EXPERIMENTS
        for fig in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13):
            assert f"fig{fig}" in EXPERIMENTS
        for other in ("tab1", "tab2", "tab3", "txt1", "txt2"):
            assert other in EXPERIMENTS
        for ext in ("ext1", "ext2", "ext3", "ext4", "ext5"):
            assert ext in EXPERIMENTS

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment("fig999")

    def test_render_has_tables(self, results):
        for result in results.values():
            text = result.render()
            assert result.experiment_id in text
            assert len(result.tables) >= 1


class TestWorkloadClaims:
    def test_fig2_low_priorities_dominate(self, results):
        m = results["fig2"].metrics
        assert m["job_frac_low(1-4)"] > 0.6
        assert m["total_tasks"] > m["total_jobs"]

    def test_fig3_google_shorter(self, results):
        m = results["fig3"].metrics
        assert m["google_frac_under_1000s"] > 0.7
        assert m["grids_mostly_over_2000s"]

    def test_fig4_pareto_ordering(self, results):
        m = results["fig4"].metrics
        assert m["google_more_pareto"]
        assert m["google_joint_small_side"] == pytest.approx(6, abs=3)
        assert m["auvergrid_joint_small_side"] == pytest.approx(24, abs=5)
        assert m["google_mmdist_days"] > m["auvergrid_mmdist_days"]

    def test_fig5_google_fastest_submission(self, results):
        assert results["fig5"].metrics["google_shortest_intervals"]

    def test_tab1_rates_and_fairness(self, results):
        m = results["tab1"].metrics
        assert m["google_rate_highest"]
        assert m["google_fairness_highest"]
        assert m["google_avg_per_hour"] == pytest.approx(552, rel=0.1)
        assert m["google_fairness"] == pytest.approx(0.94, abs=0.05)

    def test_fig6_google_lower_demand(self, results):
        m = results["fig6"].metrics
        assert m["google_lower_cpu"]
        assert m["google_frac_under_1_cpu"] > 0.8
        assert m["google_mem_median_mb_32gb"] < m["min_grid_mem_median_mb"]

    def test_txt2_task_length_stats(self, results):
        m = results["txt2"].metrics
        assert m["google_frac_under_10min"] == pytest.approx(0.55, abs=0.07)
        assert m["google_frac_under_1h"] == pytest.approx(0.90, abs=0.06)
        assert m["cloud_tasks_mostly_shorter"]
        assert m["cloud_max_longer"]


class TestHostLoadClaims:
    def test_fig7_memory_ordering(self, results):
        m = results["fig7"].metrics
        assert m["assigned_exceeds_consumed"]

    def test_fig8_queue_shape(self, results):
        m = results["fig8"].metrics
        assert m["steady_running_mean"] > 5
        assert m["finished_grows_linearly"]
        assert m["final_abnormal_fraction"] == pytest.approx(0.6, abs=0.1)

    def test_fig9_skewed_durations(self, results):
        m = results["fig9"].metrics
        assert m["intervals_with_data"] >= 2
        assert m["skewed_everywhere"]

    def test_fig10_cpu_idle_mem_busy(self, results):
        m = results["fig10"].metrics
        assert m["high_priority_cpu_mostly_idle"]
        assert m["cpu_share_low_band"] > 0.4

    def test_tab23_cpu_faster_than_mem(self):
        from repro.experiments.datasets import fleet_series
        from repro.experiments.tab23_level_durations import (
            matched_level_comparison,
        )

        assert matched_level_comparison(fleet_series("small", 0))

    def test_fig11_high_band_lighter(self, results):
        m = results["fig11"].metrics
        assert m["high_band_uses_less"]
        assert m["near_uniform"]

    def test_fig12_mem_above_cpu(self, results):
        m = results["fig12"].metrics
        assert m["mem_above_cpu"]
        assert m["mean_mem_usage_pct"] > m["mean_mem_usage_high_pct"]

    def test_fig13_cloud_noisier(self, results):
        m = results["fig13"].metrics
        assert m["google_mem_above_cpu"]
        assert m["grid_cpu_above_mem"]
        assert m["google_noisier"]
        assert m["noise_ratio_google_over_auvergrid"] > 3

    def test_txt1_abnormal_mix(self, results):
        m = results["txt1"].metrics
        assert m["abnormal_fraction"] == pytest.approx(0.592, abs=0.08)
        assert m["fail_dominates_abnormal"]
        assert m["fail_share_of_abnormal"] == pytest.approx(0.5, abs=0.1)
        assert m["kill_share_of_abnormal"] == pytest.approx(0.307, abs=0.08)


class TestExtensionClaims:
    def test_ext1_grids_more_diurnal(self, results):
        assert results["ext1"].metrics["grids_all_more_diurnal"]

    def test_ext2_cloud_harder_to_predict(self, results):
        m = results["ext2"].metrics
        assert m["cloud_harder_to_predict"]
        assert m["best_cloud_rmse"] > m["best_grid_rmse"]

    def test_ext3_consolidation_worthwhile(self, results):
        m = results["ext3"].metrics
        assert m["consolidation_worthwhile"]
        assert 0 < m["mean_shutoff_fraction"] < 1

    def test_ext4_fitting_contrast(self, results):
        m = results["ext4"].metrics
        assert m["auvergrid_single_family_adequate"]
        assert m["google_needs_mixture"]

    def test_ext5_modes_distinct(self, results):
        m = results["ext5"].metrics
        assert m["num_modes"] >= 2
        assert m["distinct_modes_found"]


class TestScorecard:
    def test_all_claims_pass_at_small_scale(self):
        from repro.experiments.scorecard import run as run_scorecard

        result = run_scorecard(scale="small", seed=0)
        failing = [
            row for row in result.tables[0].rows if row[3] == "FAIL"
        ]
        assert result.metrics["all_pass"], f"failing claims: {failing}"
        assert result.metrics["claims_total"] >= 12

    def test_claims_read_exactly_sources(self, results):
        from repro.experiments import scorecard

        asked = set()

        class Recording(dict):
            def __getitem__(self, exp_id):
                asked.add(exp_id)
                return super().__getitem__(exp_id)

        scorecard._claims(Recording({k: r.metrics for k, r in results.items()}))
        assert asked == set(scorecard.SOURCES)
        assert len(scorecard.SOURCES) == len(asked)


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out

    def test_run_one(self, capsys):
        # --no-cache keeps the test hermetic (no writes to ~/.cache).
        assert runner_main(["fig4", "--scale", "small", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "joint" in out.lower()

    def test_unknown_id(self, capsys):
        assert runner_main(["nope"]) == 2
        assert "unknown" in capsys.readouterr().err


class TestDatasets:
    def test_unknown_scale_rejected(self):
        from repro.experiments.datasets import simulation_dataset, workload_dataset

        with pytest.raises(KeyError, match="available"):
            workload_dataset("huge")
        with pytest.raises(KeyError, match="available"):
            simulation_dataset("huge")

    def test_grid_system_names_cover_presets(self):
        from repro.experiments.datasets import grid_system_names
        from repro.synth.presets import GRID_PRESETS

        names = grid_system_names()
        assert set(names) == set(GRID_PRESETS)

    def test_memoization_returns_same_object(self):
        from repro.experiments.datasets import workload_dataset

        assert workload_dataset("small", 0) is workload_dataset("small", 0)

    def test_google_jobs_in_submit_order(self):
        # Both backends fold the jobs table as generated, and its spill
        # is keyed as submit-ordered: no sort copy is made.
        from repro.experiments.datasets import workload_dataset

        jobs = workload_dataset("small", 0).google_jobs
        assert jobs.sort_by("submit_time") == jobs

    def test_machine_usage_machine_major(self):
        # The builder stores usage rows machine-major once; group-aligned
        # usage shards then hold whole machine series.
        from repro.experiments.datasets import simulation_dataset

        usage = simulation_dataset("small", 0).machine_usage
        assert usage.sort_by("machine_id", "time") == usage


class TestShardedBackend:
    """--backend sharded must render byte-identically to in-memory."""

    SHARDED_IDS = (
        "fig2", "fig3", "fig4", "fig5", "tab1", "fig6", "fig7", "fig9",
        "fig10", "tab2", "tab3", "fig11", "fig12", "fig13", "txt2", "ext1",
        "ext2", "ext3", "ext4", "ext5",
    )

    @pytest.fixture()
    def sharded_backend(self):
        from repro.experiments.datasets import BackendSpec, configure_backend

        yield lambda **kw: configure_backend(
            BackendSpec(name="sharded", **kw)
        )
        configure_backend(None)

    def test_rendered_output_identical(self, results, sharded_backend):
        sharded_backend(shard_rows=4096)
        for exp_id in self.SHARDED_IDS:
            rendered = run_experiment(exp_id, scale="small", seed=0).render()
            assert rendered == results[exp_id].render(), exp_id

    def test_spawn_pool_identical(self, results, sharded_backend):
        sharded_backend(shard_rows=4096, jobs=2)
        rendered = run_experiment("fig7", scale="small", seed=0).render()
        assert rendered == results["fig7"].render()

    def test_shard_size_invariant(self, results, sharded_backend):
        # At small scale 1,000-row usage shards hold one machine each
        # and 30,000-row shards hold all 16.
        for shard_rows in (1000, 30_000):
            sharded_backend(shard_rows=shard_rows)
            for exp_id in ("fig5", "tab2"):
                rendered = run_experiment(exp_id, scale="small", seed=0).render()
                assert rendered == results[exp_id].render(), (exp_id, shard_rows)

    def test_memory_backend_folds_in_process(
        self, results, tmp_path, monkeypatch
    ):
        # The memory backend runs each kernel once, here, on the
        # in-memory table: no spill, no map-reduce pass, no temp dir.
        import tempfile

        from repro.experiments import datasets

        def no_pass(*args, **kwargs):
            raise AssertionError("memory backend started a map-reduce pass")

        monkeypatch.setattr(datasets, "map_reduce", no_pass)
        monkeypatch.setattr(datasets, "map_shards", no_pass)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        datasets.configure_backend(None)
        datasets.configure_cache(None)
        datasets.reset_dataset_stats()
        try:
            for exp_id in self.SHARDED_IDS:
                rendered = run_experiment(exp_id, scale="small", seed=0).render()
                assert rendered == results[exp_id].render(), exp_id
            stats = datasets.dataset_stats()
        finally:
            datasets.reset_dataset_stats()
        assert stats["shard_spills"] == 0
        mapreduce = {k: v for k, v in stats.items() if k.startswith("mapreduce_")}
        assert mapreduce and not any(mapreduce.values()), mapreduce
        assert list(tmp_path.glob("repro-spill-*")) == []

    def test_runner_cli_backend_flag(self, capsys):
        assert (
            runner_main(
                [
                    "fig4",
                    "--scale",
                    "small",
                    "--no-cache",
                    "--backend",
                    "sharded",
                    "--shard-rows",
                    "5000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        from repro.experiments.datasets import configure_backend

        configure_backend(None)

    def test_uncached_workers_share_one_spill(self, tmp_path):
        # Two forked experiment workers both read google_jobs. With no
        # disk cache they spill into the run's one temp dir: the first
        # spills, the second finds its entry, and the CLI process
        # removes the dir at exit.
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        spill_tmp = tmp_path / "tmp"
        spill_tmp.mkdir()
        env["TMPDIR"] = str(spill_tmp)
        report = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments.runner",
                "fig2",
                "fig5",
                "--scale",
                "small",
                "--backend",
                "sharded",
                "--jobs",
                "2",
                "--no-cache",
                "--shard-rows",
                "4096",
                "--json",
                str(report),
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert list(spill_tmp.glob("repro-spill-*")) == []
        counters = json.loads(report.read_text())["counters"]
        assert counters["shard_spills"] == 1


class TestOutOfCoreChaos:
    """Injected worker kill, shard corruption, and block hang must heal.

    The acceptance property of the self-healing layer: under a fault
    plan exercising every block fault kind, the sharded run's rendered
    output is byte-identical to the clean in-memory run and the
    recovery counters record what happened.
    """

    @pytest.mark.parametrize("exp_id", ["fig7", "fig13"])
    def test_chaos_identical_and_counted(self, results, monkeypatch, exp_id):
        # Both read the usage table through fleet_series' one pass.
        import json

        from repro.experiments.datasets import (
            BackendSpec,
            configure_backend,
            dataset_stats,
            reset_dataset_stats,
        )
        from repro.experiments.faults import PLAN_ENV

        plan = [
            # Attempt 1: the worker dies mid-block (respawn + retry).
            {"experiment_id": "*", "kind": "kill-worker", "block": 0},
            # Attempt 2: a shard is corrupted on disk (quarantine + heal).
            # No block timeout: no fault here hangs, and a short one
            # could end slow attempts on a loaded host and shift the
            # attempt numbers the plan keys on (the timeout path is
            # covered in test_mapreduce).
            {
                "experiment_id": "*",
                "kind": "corrupt-shard",
                "block": 0,
                "attempt": 2,
                "shard": 0,
            },
        ]
        monkeypatch.setenv(PLAN_ENV, json.dumps(plan))
        configure_backend(
            BackendSpec(
                name="sharded",
                shard_rows=1024,
                jobs=2,
                block_retries=3,
            )
        )
        reset_dataset_stats()
        try:
            rendered = run_experiment(exp_id, scale="small", seed=0).render()
            stats = dataset_stats()
        finally:
            configure_backend(None)
            reset_dataset_stats()
        assert rendered == results[exp_id].render()
        assert stats["mapreduce_crashes"] >= 1
        assert stats["mapreduce_respawns"] >= 1
        assert stats["mapreduce_retries"] >= 1
        assert stats["shards_quarantined"] >= 1
        assert stats["shards_rederived"] >= 1


def _slow_table():
    import time

    from repro.core.table import Table

    time.sleep(0.5)  # both processes miss the cache before either publishes
    return Table({"x": np.arange(50_000, dtype=np.float64)})


def _spill_into(cache_dir):
    """Forked-process entry: spill one sharded table into a shared cache."""
    from repro.experiments import datasets

    datasets.configure_cache(cache_dir)
    datasets._sharded_build("race-shards", {"rows": 50_000}, _slow_table, 500)


class TestShardedCacheRecovery:
    """Cold sharded cache entries survive concurrent spills and damage."""

    def test_concurrent_cold_spills_publish_one_entry(self, tmp_path):
        import multiprocessing

        from repro.core.diskcache import DiskCache
        from repro.core.shard import ShardedTable

        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_spill_into, args=(tmp_path,)) for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
        assert [w.exitcode for w in workers] == [0, 0]
        cache = DiskCache(tmp_path)
        keys = cache.entries()
        assert len(keys) == 1
        table = ShardedTable.open(cache.get_path(keys[0]))
        table.verify_all()
        np.testing.assert_array_equal(
            table.to_table()["x"], np.arange(50_000, dtype=np.float64)
        )

    @pytest.mark.parametrize("damage", ["delete", "truncate"])
    def test_damaged_manifest_heals(self, results, tmp_path, damage):
        from pathlib import Path

        from repro.experiments import datasets

        datasets.configure_cache(tmp_path)
        datasets.configure_backend(
            datasets.BackendSpec(name="sharded", shard_rows=4096)
        )
        try:
            run_experiment("fig3", scale="small", seed=0)
            manifest = (
                Path(datasets._table_root("google_jobs", "small", 0, 4096))
                / "manifest.json"
            )
            if damage == "delete":
                manifest.unlink()
            else:
                text = manifest.read_text()
                manifest.write_text(text[: len(text) // 2])
            datasets.configure_cache(tmp_path)  # a new run: memos dropped
            datasets.reset_dataset_stats()
            rendered = run_experiment("fig3", scale="small", seed=0).render()
            stats = datasets.dataset_stats()
        finally:
            datasets.configure_backend(None)
            datasets.configure_cache(None)
            datasets.reset_dataset_stats()
        assert rendered == results["fig3"].render()
        assert stats["shards_quarantined"] == 1
        assert stats["shards_rederived"] == 1
