#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction pipeline, with per-layer traces.

Usage, from the root of the repository::

    python3 bench/run.py                        # all workloads, 5 rounds
    python3 bench/run.py --workload medium_warm --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --smoke                # small inputs, one round

Every run is a fresh child process (``bench/drive.py``) that calls the
entry module a command-line tool uses, so a run pays the imports, the
cache state and the worker start-ups a user pays. The parent reaps each
run with ``os.wait4``, so CPU time and peak RSS belong to that run's
process tree and not to the benchmark's lifetime. Untimed set-up comes
first: bytecode is compiled, each entry module is imported once, the C
simulator kernel is loaded (built on first use), and every workload
fills its caches and computes its reference output. Then come timed,
untraced rounds, each running every selected workload once, starting
from a different workload each round, because the noise on a shared
host drifts over minutes. With
``--seconds`` the rounds repeat until that much time has been measured
(at least two rounds); otherwise ``--repeats`` rounds run. Last comes
one traced round (``tracing.py``) that gives the per-layer metrics.

``--trace 0`` prints only the end-to-end metrics, ``--trace 1`` only the
per-layer ones, and no ``--trace`` both. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Raw
samples, spans and the host record go to ``bench/results/<stamp>/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import stats
import tracing
from workloads import Outcome, SetupError, Workload, all_workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = BENCH_DIR / ".work"
#: Where the C kernel is built; kept across invocations like a build dir.
BUILD_DIR = BENCH_DIR / ".build"
RESULTS_ROOT = BENCH_DIR / "results"

DEFAULT_REPEATS = 5
MIN_ROUNDS = 2
#: An invocation ends within this many seconds per selected workload.
TIME_CAP_S = 165.0
RUN_TIMEOUT_S = 150.0
#: The first probe may build the C kernel.
PROBE_TIMEOUT_S = 850.0


# -- one child process --------------------------------------------------------


@dataclass
class Sample:
    """Resource use of one child process tree, as ``wait4`` reports it."""

    pid: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None  # None when the child never got ready
    exit_code: int
    timed_out: bool


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    """Wait until no process of the group is left (orphans are reaped by init)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def run_child(
    argv: list[str],
    *,
    cwd: Path,
    env: dict[str, str],
    stdout: Path,
    stderr: Path,
    timeout: float,
    ready_file: Path | None = None,
) -> Sample:
    """Run ``argv`` to completion in a new process group and measure it.

    ``ru_maxrss`` of ``wait4`` is the largest RSS of the child and every
    descendant it reaped; user + system time covers the same tree.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True
        )
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        _kill_group(proc.pid)

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the run left behind in its group
    _wait_group_gone(proc.pid)
    ready = None
    if ready_file is not None and ready_file.is_file():
        ready = float(ready_file.read_text())
    return Sample(
        pid=proc.pid,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        setup_s=None if ready is None else ready - start,
        exit_code=proc.returncode,
        timed_out=expired.is_set(),
    )


def child_env(work: Path) -> dict[str, str]:
    """The children's environment: the checkout's code, no REPRO_* settings.

    Temporary files and the kernel build stay inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(BUILD_DIR)
    env["TMPDIR"] = str(work / "tmp")
    return env


# -- the host record ----------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _fs_type(path: Path) -> str | None:
    best, fstype = "", None
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    resolved = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = resolved == point or resolved.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, fstype = point, fields[2]
    return fstype


def _git_head() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_record(work: Path, probe: dict) -> dict:
    """What a comparison must hold equal, plus the noise around the run."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "cffi": probe.get("cffi"),
        "ckernel": probe.get("ckernel"),
        "work_fs": _fs_type(work),
        "git_head": _git_head(),
        "loadavg_before": list(os.getloadavg()),
    }


# -- the benchmark --------------------------------------------------------------


class Bench:
    """One invocation: its inputs, work dir, results dir and run records."""

    def __init__(self, seed: int, smoke: bool, work: Path, results: Path) -> None:
        self.root = ROOT
        self.seed, self.smoke = seed, smoke
        self.work, self.results = work, results
        self.env = child_env(work)
        self.deadline = float("inf")
        self.records: list[dict] = []
        self.spans: list[dict] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def _launch(
        self, wl: Workload, run_dir: Path, args: list[str], traced: bool, timeout: float
    ) -> tuple[Sample, Outcome]:
        run_dir.mkdir(parents=True)
        ready = run_dir / "ready"
        trace = run_dir / "trace"
        if traced:
            trace.mkdir()
        argv = [
            sys.executable, str(BENCH_DIR / "drive.py"), str(ready),
            str(trace) if traced else "-", "--", *args,
        ]
        sample = run_child(
            argv,
            cwd=run_dir,
            env={**self.env, "BENCH_ENTRY": wl.entry},
            stdout=run_dir / "stdout",
            stderr=run_dir / "stderr",
            timeout=timeout,
            ready_file=ready,
        )
        out = (run_dir / "stdout").read_bytes()
        report = run_dir / "report.json"
        try:
            parsed = json.loads(report.read_text()) if report.is_file() else None
        except ValueError:
            parsed = None
        return sample, Outcome(sample.exit_code, out, hashlib.sha256(out).hexdigest(), parsed)

    def _keep_stderr(self, run_dir: Path) -> None:
        shutil.copy(run_dir / "stderr", self.results / f"{run_dir.name}.stderr")

    def setup_run(self, wl: Workload, label: str, args: list[str]) -> Outcome:
        """An untimed run of ``wl``'s entry that must succeed."""
        run_dir = self.work / f"{wl.name}-{label}"
        timeout = max(1.0, min(RUN_TIMEOUT_S, self.remaining()))
        sample, outcome = self._launch(wl, run_dir, args, False, timeout)
        if sample.exit_code != 0:
            self._keep_stderr(run_dir)
            raise SetupError(
                f"{wl.name}: set-up run {label!r} exited with {sample.exit_code}; "
                f"see {self.results / (run_dir.name + '.stderr')}"
            )
        shutil.rmtree(run_dir)
        return outcome

    def run(self, wl: Workload, round_no: int, traced: bool) -> dict:
        """One measured run of ``wl``; returns its record."""
        run_dir = self.work / f"{wl.name}-{round_no}{'-trace' if traced else ''}"
        timeout = max(1.0, min(RUN_TIMEOUT_S, self.remaining()))
        sample, outcome = self._launch(wl, run_dir, wl.args(self), traced, timeout)
        if sample.timed_out or sample.setup_s is None:
            failed = wl.ops
        else:
            failed = wl.failures(outcome)
        record = {
            "workload": wl.name,
            "round": round_no,
            "traced": traced,
            "seed": self.seed,
            **asdict(sample),
            "ops": wl.ops,
            "failed": failed,
            "digest": outcome.digest,
            "recoveries": wl.recoveries(outcome),
        }
        if failed:
            self._keep_stderr(run_dir)
        if traced:
            record["missing"] = self._collect_trace(run_dir / "trace", f"{wl.name}/{round_no}")
        self.records.append(record)
        shutil.rmtree(run_dir)
        return record

    def _collect_trace(self, trace_dir: Path, label: str) -> list[str]:
        missing_file = trace_dir / "missing.json"
        missing = json.loads(missing_file.read_text()) if missing_file.is_file() else []
        for path in sorted(trace_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                span = json.loads(line)
                span["run"] = label
                self.spans.append(span)
        return missing


def measure(bench: Bench, workloads: list[Workload], seconds: float, min_rounds: int) -> None:
    """Untraced rounds, each starting from the next workload in turn."""
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        if rounds and bench.remaining() < longest:
            print(f"time cap reached after {rounds} rounds", file=sys.stderr)
            return
        began = time.perf_counter()
        shift = rounds % len(workloads)
        for wl in workloads[shift:] + workloads[:shift]:
            record = bench.run(wl, rounds, traced=False)
            _log(record)
            if record["timed_out"]:
                return
        longest = max(longest, time.perf_counter() - began)
        rounds += 1


def _log(record: dict) -> None:
    setup = record["setup_s"]
    print(
        f"  {record['workload']:<15} round {record['round']}"
        f"{' traced' if record['traced'] else ''}: wall {record['wall_s']:.3f} s, "
        f"cpu {record['cpu_s']:.3f} s, rss {record['peak_rss_mb']:.1f} MiB, "
        f"setup {'-' if setup is None else f'{setup:.3f}'} s, "
        f"failed {record['failed']}/{record['ops']}",
        file=sys.stderr,
    )


# -- metrics --------------------------------------------------------------------


def end_to_end(records: list[dict], spec: list[dict]) -> dict[str, dict]:
    """Median, quartiles, min, max and n of each metric over untraced runs."""
    out = {}
    for metric in spec:
        values = [r[metric["name"]] for r in records if r.get(metric["name"]) is not None]
        if not values:
            continue
        q1, q3 = stats.quartiles(values)
        out[metric["name"]] = {
            "median": stats.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "unit": metric["unit"],
        }
    return out


def per_layer(
    traced: dict, spans: list[dict], untraced: list[dict], spec: list[dict]
) -> tuple[dict[str, dict], dict[str, dict]]:
    """Per-layer values of the traced run: those BENCHMARK.json names, and the rest."""
    values = tracing.layer_metrics(spans, traced["pid"])
    values["core.mapreduce.recoveries"] = traced["recoveries"]
    values["trace.missing_targets"] = len(traced["missing"])
    walls = [r["wall_s"] for r in untraced]
    if walls:
        base = stats.median(walls)
        values["trace.overhead_frac"] = (traced["wall_s"] - base) / base
    out = {}
    for metric in spec:
        out[metric["name"]] = {"value": values.pop(metric["name"], 0), "unit": metric["unit"]}
    return out, {name: {"value": v} for name, v in values.items()}


def _print_table(name: str, e2e: dict, layers: dict) -> None:
    for metric, row in e2e.items():
        print(
            f"{name:<15} {metric:<12} median {row['median']:10.4f} {row['unit']:<5} "
            f"(q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, min {row['min']:.4f}, "
            f"max {row['max']:.4f}, n {row['n']})"
        )
    for metric, row in layers.items():
        print(f"{name:<15} {metric:<32} {row['value']:14.6g} {row['unit']}")


# -- command line ---------------------------------------------------------------


def _parser(names: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description="End-to-end benchmark of the reproduction pipeline."
    )
    parser.add_argument("--workload", nargs="+", choices=names, metavar="NAME",
                        help=f"workloads to run (default: all of {', '.join(names)})")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: 0)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure at least this long, in rounds of every workload")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"least number of untraced rounds (default: {DEFAULT_REPEATS}, "
                        f"or {MIN_ROUNDS} with --seconds, 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only "
                        "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for checking the harness itself")
    return parser


def main(argv: list[str] | None = None) -> int:
    catalog = all_workloads()
    args = _parser([wl.name for wl in catalog]).parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    selected = args.workload or [wl.name for wl in catalog]
    workloads = [wl for wl in catalog if wl.name in selected]
    if args.repeats is not None:
        min_rounds = args.repeats
    elif args.smoke:
        min_rounds = 1
    else:
        min_rounds = MIN_ROUNDS if args.seconds else DEFAULT_REPEATS

    stamp = f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    work = WORK_ROOT / stamp
    results = RESULTS_ROOT / stamp
    (work / "tmp").mkdir(parents=True)
    results.mkdir(parents=True)
    bench = Bench(args.seed, args.smoke, work, results)
    try:
        return _run(bench, args, spec, workloads, min_rounds)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(bench: Bench, args, spec: dict, workloads: list[Workload], min_rounds: int) -> int:
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH_DIR, maxlevels=0, quiet=1)
    probe: dict = {}
    for entry in sorted({wl.entry for wl in workloads}):
        out = bench.work / f"probe-{entry}.json"
        sample = run_child(
            [sys.executable, str(BENCH_DIR / "drive.py"), "--probe", str(out)],
            cwd=bench.work,
            env={**bench.env, "BENCH_ENTRY": entry},
            stdout=bench.work / "probe.out",
            stderr=bench.work / "probe.err",
            timeout=PROBE_TIMEOUT_S,
        )
        if sample.exit_code != 0:
            shutil.copy(bench.work / "probe.err", bench.results / f"probe-{entry}.stderr")
            raise SetupError(f"importing the {entry!r} entry failed; see {bench.results}")
        probe = json.loads(out.read_text())
    bench.deadline = time.perf_counter() + TIME_CAP_S * len(workloads)
    host = host_record(bench.work, probe)

    for wl in workloads:
        began = time.perf_counter()
        wl.setup(bench)
        print(f"set-up {wl.name}: {time.perf_counter() - began:.1f} s", file=sys.stderr)

    measure(bench, workloads, args.seconds, min_rounds)
    if args.trace != 0:
        for wl in workloads:
            _log(bench.run(wl, 0, traced=True))

    single = len(workloads) == 1
    metrics: dict[str, dict] = {}
    summary: dict = {"seed": bench.seed, "smoke": bench.smoke, "workloads": {}}
    for wl in workloads:
        runs = [r for r in bench.records if r["workload"] == wl.name]
        untraced = [r for r in runs if not r["traced"]]
        e2e = end_to_end(untraced, spec["end_to_end"])
        layers, extra, missing = {}, {}, []
        traced = [r for r in runs if r["traced"]]
        if traced:
            own = [s for s in bench.spans if s["run"].startswith(wl.name + "/")]
            layers, extra = per_layer(traced[0], own, untraced, spec["per_layer"])
            missing = traced[0]["missing"]
            if missing:
                print(f"{wl.name}: wrap targets missing: {', '.join(missing)}", file=sys.stderr)
        summary["workloads"][wl.name] = {
            "end_to_end": e2e, "per_layer": layers, "extra_layers": extra, "missing": missing,
            "attempted": sum(r["ops"] for r in runs), "failed": sum(r["failed"] for r in runs),
        }
        _print_table(wl.name, e2e if args.trace != 1 else {}, layers)
        prefix = "" if single else f"{wl.name}."
        if args.trace != 1:
            for name, row in e2e.items():
                metrics[prefix + name] = {"value": row["median"], "unit": row["unit"]}
        for name, row in layers.items():
            metrics[prefix + name] = {"value": row["value"], "unit": row["unit"]}

    attempted = sum(r["ops"] for r in bench.records)
    failed = sum(r["failed"] for r in bench.records)
    host["loadavg_after"] = list(os.getloadavg())
    summary.update(attempted=attempted, failed=failed, correct=failed == 0)
    (bench.results / "host.json").write_text(json.dumps(host, indent=1) + "\n")
    (bench.results / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    with open(bench.results / "runs.jsonl", "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in bench.records)
    with open(bench.results / "trace.jsonl", "w") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in bench.spans)
    print(f"results: {bench.results}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
