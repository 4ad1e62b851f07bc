"""Integration tests: disk-cached datasets, parallel runner, CLI flags."""

import json

import numpy as np
import pytest

from repro.core.supervise import Policy
from repro.core.timing import Timings
from repro.experiments import datasets
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import main as runner_main
from repro.experiments.supervisor import run_supervised, warm_datasets


@pytest.fixture
def cache_dir(tmp_path):
    """A throwaway cache dir; restores the disabled-cache default."""
    yield tmp_path / "cache"
    datasets.configure_cache(None)
    datasets.reset_dataset_stats()


class TestDatasetDiskCache:
    def test_warm_cache_skips_generation(self, cache_dir):
        datasets.configure_cache(cache_dir)
        datasets.reset_dataset_stats()
        first = datasets.workload_dataset("small", 0)
        stats = datasets.dataset_stats()
        assert stats["workload_builds"] == 1
        assert stats["disk_misses"] == 1
        assert stats["disk_hits"] == 0

        # Fresh memo (as in a new process): the disk entry must serve
        # the dataset with zero trace generation.
        datasets.configure_cache(cache_dir)
        datasets.reset_dataset_stats()
        second = datasets.workload_dataset("small", 0)
        stats = datasets.dataset_stats()
        assert stats["workload_builds"] == 0
        assert stats["disk_hits"] == 1
        assert second.google_jobs == first.google_jobs
        for name, table in first.grid_jobs.items():
            assert second.grid_jobs[name] == table
        np.testing.assert_array_equal(
            second.google_tasks.duration, first.google_tasks.duration
        )

    def test_seed_change_misses(self, cache_dir):
        datasets.configure_cache(cache_dir)
        datasets.reset_dataset_stats()
        datasets.workload_dataset("small", 0)
        datasets.workload_dataset("small", 1)
        stats = datasets.dataset_stats()
        assert stats["workload_builds"] == 2
        assert stats["disk_misses"] == 2

    def test_simulation_round_trip(self, cache_dir):
        datasets.configure_cache(cache_dir)
        datasets.reset_dataset_stats()
        first = datasets.simulation_dataset("small", 0)
        datasets.configure_cache(cache_dir)
        second = datasets.simulation_dataset("small", 0)
        stats = datasets.dataset_stats()
        assert stats["simulation_builds"] == 1
        assert second.result.task_events == first.result.task_events
        assert second.result.machine_usage == first.result.machine_usage
        assert second.result.counts == first.result.counts
        assert set(second.series) == set(first.series)
        mid = next(iter(first.series))
        np.testing.assert_array_equal(
            second.series[mid].cpu, first.series[mid].cpu
        )

    def test_disabled_cache_always_builds(self, cache_dir):
        datasets.configure_cache(None)
        datasets.reset_dataset_stats()
        datasets.workload_dataset("small", 0)
        stats = datasets.dataset_stats()
        assert stats["workload_builds"] == 1
        assert stats["disk_misses"] == 0
        assert "cache_hits" not in stats


class TestSerialParallelEquivalence:
    def test_full_registry_byte_identical(self, cache_dir):
        datasets.configure_cache(cache_dir)
        ids = list(EXPERIMENTS)
        serial = run_supervised(ids, scale="small", seed=0)
        parallel = run_supervised(
            ids, scale="small", seed=0, config=Policy(jobs=2)
        )
        assert [o.experiment_id for o in serial] == ids
        assert [o.experiment_id for o in parallel] == ids
        assert all(o.ok for o in serial)
        assert all(o.ok for o in parallel)
        for s, p in zip(serial, parallel):
            assert s.rendered == p.rendered

    def test_failure_is_captured_not_raised(self, monkeypatch):
        def boom(scale="paper", seed=0):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(EXPERIMENTS, "fig2", boom)
        datasets.configure_cache(None)
        outcomes = run_supervised(["fig2", "fig4"], scale="small", seed=0)
        assert not outcomes[0].ok
        assert "synthetic failure" in outcomes[0].error
        assert outcomes[1].ok

    def test_timings_collected(self, cache_dir):
        datasets.configure_cache(cache_dir)
        timings = Timings()
        run_supervised(["fig4"], scale="small", seed=0, timings=timings)
        assert "run:fig4" in timings.stages
        assert "render:fig4" in timings.stages
        assert timings.counters.get("workload_builds", 0) >= 0

    def test_warm_datasets_populates_memo(self, cache_dir):
        datasets.configure_cache(cache_dir)
        warm_datasets("small", 0)
        datasets.reset_dataset_stats()
        datasets.workload_dataset("small", 0)
        datasets.simulation_dataset("small", 0)
        # Both were memo hits: no builds, no disk traffic.
        stats = datasets.dataset_stats()
        assert stats["workload_builds"] == 0
        assert stats["simulation_builds"] == 0
        assert stats["disk_misses"] == 0


class TestRunnerCli:
    def test_list_with_ids_rejected(self, capsys):
        assert runner_main(["--list", "fig4"]) == 2
        assert "--list" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, capsys):
        assert runner_main(["fig4", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_failing_experiment_reported_and_run_continues(
        self, capsys, monkeypatch
    ):
        def boom(scale="paper", seed=0):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(EXPERIMENTS, "fig2", boom)
        rc = runner_main(["fig2", "fig4", "--scale", "small", "--no-cache"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "fig2 failed" in err
        assert "synthetic failure" in err
        assert "fig4" in out  # later experiment still ran

    def test_json_report_and_profile(self, capsys, tmp_path, cache_dir):
        report_path = tmp_path / "timing.json"
        rc = runner_main(
            [
                "fig4",
                "--scale",
                "small",
                "--cache-dir",
                str(cache_dir),
                "--json",
                str(report_path),
                "--profile",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "timing:" in err
        report = json.loads(report_path.read_text())
        assert report["scale"] == "small"
        assert report["jobs"] == 1
        assert report["cache"]["enabled"]
        assert report["experiments"][0]["id"] == "fig4"
        assert report["experiments"][0]["ok"]
        assert report["experiments"][0]["wall_s"] > 0
        assert report["counters"]["workload_builds"] == 1
        assert "run:fig4" in report["stages"]
        # --jobs 1 with no supervision flag runs in-process: no warm-up
        # pass before a fan-out, and no checkpoint journal.
        assert "warm-datasets" not in report["stages"]
        assert not (cache_dir / "runs").exists()

    def test_second_cli_run_is_warm(self, capsys, tmp_path, cache_dir):
        report_path = tmp_path / "timing2.json"
        args = ["fig4", "--scale", "small", "--cache-dir", str(cache_dir)]
        assert runner_main(args) == 0
        out1 = capsys.readouterr().out
        assert (
            runner_main(args + ["--json", str(report_path)]) == 0
        )
        out2 = capsys.readouterr().out
        assert out2 == out1
        report = json.loads(report_path.read_text())
        assert report["counters"]["workload_builds"] == 0
        assert report["counters"]["disk_hits"] == 1
