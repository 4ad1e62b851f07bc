import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
from workloads import Outcome, registry_failures


def _child(tmp_path, code: str) -> run.Sample:
    return run.run_child(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
        stdout=tmp_path / "out",
        stderr=tmp_path / "err",
        timeout=60,
    )


def test_peak_rss_belongs_to_each_run(tmp_path):
    big = _child(tmp_path, "x = b'1' * (200 << 20)")
    small = _child(tmp_path, "x = b'1' * (10 << 20)")
    assert big.exit_code == small.exit_code == 0
    assert big.peak_rss_mb > 200
    assert small.peak_rss_mb < 100


def test_cpu_time_covers_reaped_grandchildren(tmp_path):
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass"
    code = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {burn!r}])"
    sample = _child(tmp_path, code)
    assert sample.cpu_s >= 0.3


def test_timeout_kills_the_run(tmp_path):
    sample = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        cwd=tmp_path, env={}, stdout=tmp_path / "o", stderr=tmp_path / "e", timeout=0.5,
    )
    assert sample.timed_out and sample.wall_s < 10


def _report(*oks):
    return {"experiments": [{"id": f"e{i}", "ok": ok} for i, ok in enumerate(oks)]}


def test_digest_mismatch_fails_every_operation():
    good = Outcome(0, b"out", "ref", _report(True, True, True))
    assert registry_failures(good, "ref", 3) == 0
    assert registry_failures(Outcome(0, b"x", "other", _report(True, True, True)), "ref", 3) == 3
    assert registry_failures(Outcome(1, b"", "ref", None), "ref", 3) == 3


def test_failed_and_unlisted_experiments_count():
    assert registry_failures(Outcome(1, b"", "ref", _report(True, False, True)), "ref", 3) == 1
    assert registry_failures(Outcome(1, b"", "ref", _report(True)), "ref", 3) == 2


def test_compare_refuses_different_hosts():
    host = {key: 1 for key in compare.HOST_KEYS}
    assert compare.host_mismatch([host, dict(host, git_head="x")]) == []
    assert compare.host_mismatch([host, dict(host, ckernel=False)]) == ["ckernel"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(
        ".work", ".build", "results", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "medium_warm", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def smoke():
    before = run.SPEC_PATH.read_bytes()
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    results = next(line.split(": ", 1)[1] for line in lines if line.startswith("results: "))
    yield json.loads(lines[-1]), before
    shutil.rmtree(results)


def test_smoke_pass_of_every_workload(smoke):
    result, before = smoke
    spec = json.loads(run.SPEC_PATH.read_text())
    assert run.SPEC_PATH.read_bytes() == before  # smoke writes no numbers back
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in spec["workloads"]:
        for name in names:
            metric = result["metrics"][f"{workload['name']}.{name}"]
            assert isinstance(metric["value"], (int, float))
        assert result["metrics"][f"{workload['name']}.trace.missing_targets"]["value"] == 0


def test_smoke_trace_covers_the_work(smoke):
    result, _ = smoke
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for workload in ("medium_cold", "medium_warm", "medium_nocache", "stream_10m", "lint_cold"):
        work = metrics[f"{workload}.trace.work_s"]
        assert 0 < metrics[f"{workload}.trace.unattributed_s"] <= 0.1 * work
