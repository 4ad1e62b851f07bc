"""Map-reduce over shards: order contract and merge exactness.

The load-bearing property is byte-identity: for every accumulator the
experiments use, folding per-shard partials must reproduce the batch
computation bit for bit, for any shard size and for the worker pool.
"""

import multiprocessing
import operator
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core.ecdf import ecdf
from repro.core.fairness import HourlyCountsAccumulator, hourly_counts
from repro.core.kernels import ECDFAccumulator, MassCountAccumulator
from repro.core import mapreduce, supervise
from repro.core.mapreduce import MapReduceError, map_reduce, map_shards
from repro.core.masscount import mass_count
from repro.core.shard import ShardedTable, ShardIntegrityError
from repro.core.supervise import Policy
from repro.core.timing import Timings
from repro.core.shard import write_table
from repro.core.table import Table

SHARD_SIZES = (1, 3, 7, 50, 1000)


def _sample(n=200, seed=3):
    rng = np.random.default_rng(seed)
    # Repeated values exercise the ECDF's distinct-value folding.
    return np.round(rng.exponential(50.0, n), 1)


def _sum_kernel(shard):
    return float(np.sum(np.asarray(shard["x"])))


def _ecdf_kernel(shard):
    acc = ECDFAccumulator()
    acc.add(np.asarray(shard["x"]))
    return acc


def _mass_kernel(shard):
    acc = MassCountAccumulator()
    acc.add(np.asarray(shard["x"]))
    return acc


def _hourly_kernel(shard, horizon):
    acc = HourlyCountsAccumulator(horizon)
    acc.add(np.asarray(shard["x"]))
    return acc


class TestMapShards:
    def test_results_in_shard_order(self, tmp_path):
        values = _sample(40)
        sharded = write_table(Table({"x": values}), tmp_path / "t", 7)
        got = map_shards(sharded, _sum_kernel)
        want = [
            float(np.sum(values[i : i + 7])) for i in range(0, 40, 7)
        ]
        assert got == want

    def test_zero_shards(self, tmp_path):
        sharded = write_table(Table({"x": np.empty(0)}), tmp_path / "t", 4)
        assert map_shards(sharded, _sum_kernel) == []
        assert map_reduce(sharded, _sum_kernel, merge=lambda a, b: a) is None


class TestMergeExactness:
    """Per-shard fold == batch, bit for bit, for every shard size."""

    def test_ecdf(self, tmp_path):
        values = _sample()
        want = ecdf(values)
        for rows in SHARD_SIZES:
            sharded = write_table(
                Table({"x": values}), tmp_path / f"e{rows}", rows
            )
            got = map_reduce(sharded, _ecdf_kernel).finalize()
            np.testing.assert_array_equal(got.values, want.values)
            np.testing.assert_array_equal(got.probabilities, want.probabilities)

    def test_mass_count(self, tmp_path):
        values = _sample()
        want = mass_count(values)
        for rows in SHARD_SIZES:
            sharded = write_table(
                Table({"x": values}), tmp_path / f"m{rows}", rows
            )
            acc = map_reduce(sharded, _mass_kernel)
            np.testing.assert_array_equal(acc.merged(), values)
            got = acc.finalize()
            assert got.mm_distance == want.mm_distance
            assert got.joint_ratio == want.joint_ratio

    def test_hourly_counts(self, tmp_path):
        times = np.sort(_sample(300, seed=5)) * 60.0
        horizon = float(times.max()) + 1.0
        want = hourly_counts(times, horizon)
        for rows in SHARD_SIZES:
            sharded = write_table(
                Table({"x": times}), tmp_path / f"h{rows}", rows
            )
            acc = map_reduce(sharded, _hourly_kernel, args=(horizon,))
            np.testing.assert_array_equal(acc.counts(), want)


class TestSpawnPool:
    """jobs > 1 must be byte-identical to the serial fold."""

    def test_map_shards_parallel_order(self, tmp_path):
        values = _sample(60)
        sharded = write_table(Table({"x": values}), tmp_path / "t", 9)
        assert map_shards(sharded, _sum_kernel, jobs=2) == map_shards(
            sharded, _sum_kernel
        )

    def test_map_reduce_parallel_identical(self, tmp_path):
        values = _sample(150, seed=13)
        sharded = write_table(Table({"x": values}), tmp_path / "t", 11)
        serial = map_reduce(sharded, _ecdf_kernel).finalize()
        parallel = map_reduce(sharded, _ecdf_kernel, jobs=2).finalize()
        np.testing.assert_array_equal(serial.values, parallel.values)
        np.testing.assert_array_equal(
            serial.probabilities, parallel.probabilities
        )
        acc_s = map_reduce(sharded, _mass_kernel)
        acc_p = map_reduce(sharded, _mass_kernel, jobs=3)
        np.testing.assert_array_equal(acc_s.merged(), acc_p.merged())


# -- supervision: injectors and kernels cross a pickle boundary ------------


@dataclass(frozen=True)
class _KillOnce:
    """SIGKILL the worker running the given block, first attempt only."""

    block: int

    def __call__(self, root, block, attempt):
        if block == self.block and attempt == 1:
            os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class _HangOnce:
    """Stall the given block's first attempt far past the block timeout."""

    block: int
    seconds: float = 60.0

    def __call__(self, root, block, attempt):
        if block == self.block and attempt == 1:
            import time

            time.sleep(self.seconds)


@dataclass(frozen=True)
class _AlwaysKill:
    """Every worker dies: forces degradation to the inline path."""

    def __call__(self, root, block, attempt):
        os.kill(os.getpid(), signal.SIGKILL)


def _boom_kernel(shard):
    raise ValueError("boom")


class TestSupervision:
    """Crash/timeout/error/corruption handling in the worker pool."""

    @pytest.fixture(autouse=True)
    def _fast_backoff(self, monkeypatch):
        monkeypatch.setattr(mapreduce, "BACKOFF_BASE", 0.001)
        monkeypatch.setattr(mapreduce, "BACKOFF_CAP", 0.01)

    def _sharded(self, tmp_path, n=60, rows=5, name="t"):
        values = _sample(n, seed=17)
        return values, write_table(
            Table({"x": values}), tmp_path / name, rows
        )

    def test_killed_worker_respawned_and_block_retried(self, tmp_path):
        values, sharded = self._sharded(tmp_path)
        timings = Timings()
        got = map_shards(
            sharded,
            _sum_kernel,
            jobs=2,
            config=Policy(retries=2),
            inject=_KillOnce(block=1),
            timings=timings,
        )
        assert got == map_shards(sharded, _sum_kernel)
        assert timings.counters["mapreduce_crashes"] >= 1
        assert timings.counters["mapreduce_retries"] >= 1
        assert timings.counters["mapreduce_respawns"] >= 1

    def test_hung_block_killed_and_retried(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervise, "POLL_INTERVAL", 0.02)
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        timings = Timings()
        got = map_shards(
            sharded,
            _sum_kernel,
            jobs=2,
            config=Policy(timeout=1.0, retries=2),
            inject=_HangOnce(block=0),
            timings=timings,
        )
        assert got == map_shards(sharded, _sum_kernel)
        assert timings.counters["mapreduce_block_timeouts"] >= 1

    def test_kernel_exception_is_permanent(self, tmp_path):
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        with pytest.raises(MapReduceError, match="boom"):
            map_shards(
                sharded,
                _boom_kernel,
                jobs=2,
                config=Policy(retries=2),
            )

    def test_retries_exhausted_falls_back_inline(self, tmp_path, monkeypatch):
        # A block whose worker dies on every attempt must still finish
        # (inline in the parent), not loop or raise.
        monkeypatch.setattr(mapreduce, "DEGRADE_AFTER", 100)
        values, sharded = self._sharded(tmp_path, n=30, rows=5)
        timings = Timings()
        got = map_shards(
            sharded,
            _sum_kernel,
            jobs=2,
            config=Policy(retries=1),
            inject=_AlwaysKill(),
            timings=timings,
        )
        assert got == map_shards(sharded, _sum_kernel)
        assert timings.counters["mapreduce_inline"] >= 1

    def test_circuit_breaker_degrades_pool(self, tmp_path, monkeypatch):
        # Enough transient failures trip the breaker: the remaining
        # blocks run inline in index order and the fold stays exact.
        monkeypatch.setattr(mapreduce, "DEGRADE_AFTER", 1)
        values, sharded = self._sharded(tmp_path, n=60, rows=4)
        timings = Timings()
        serial = map_reduce(sharded, _ecdf_kernel).finalize()
        got = map_reduce(
            sharded,
            _ecdf_kernel,
            jobs=3,
            config=Policy(retries=0),
            inject=_AlwaysKill(),
            timings=timings,
        ).finalize()
        np.testing.assert_array_equal(got.values, serial.values)
        np.testing.assert_array_equal(got.probabilities, serial.probabilities)
        assert timings.counters["mapreduce_inline"] >= 1

    def test_corrupt_shard_heals_and_result_is_clean(self, tmp_path):
        values, sharded = self._sharded(tmp_path, n=40, rows=5)
        # Flip a data byte: structural checks pass, the digest fails in
        # the worker, and the parent's heal callback swaps in a rebuilt
        # byte-identical table.
        victim = sharded.root / "shard-00003" / "x.npy"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))

        healed_roots = []

        def heal(root, message):
            rebuilt = write_table(
                Table({"x": values}), tmp_path / f"heal{len(healed_roots)}", 5
            )
            healed_roots.append(root)
            return str(rebuilt.root)

        clean = write_table(Table({"x": values}), tmp_path / "ref", 5)
        want = map_shards(clean, _sum_kernel)
        for jobs in (1, 2):
            got = map_shards(
                ShardedTable.open(sharded.root),
                _sum_kernel,
                jobs=jobs,
                config=Policy(retries=2),
                heal=heal,
            )
            assert got == want, jobs
        assert len(healed_roots) == 2

    def test_corruption_without_heal_raises_typed_error(self, tmp_path):
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        victim = sharded.root / "shard-00001" / "x.npy"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        table = ShardedTable.open(sharded.root)
        for jobs in (1, 2):
            with pytest.raises(ShardIntegrityError):
                map_shards(
                    table,
                    _sum_kernel,
                    jobs=jobs,
                    config=Policy(retries=2),
                )

    def test_heal_attempts_are_capped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mapreduce, "MAX_HEALS", 2)
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        victim = sharded.root / "shard-00001" / "x.npy"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        calls = []

        def bad_heal(root, message):
            calls.append(root)
            return root  # "healed" to the same corrupt table

        with pytest.raises(ShardIntegrityError):
            map_shards(
                ShardedTable.open(sharded.root),
                _sum_kernel,
                jobs=2,
                config=Policy(retries=2),
                heal=bad_heal,
            )
        assert len(calls) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Policy(timeout=0.0)
        with pytest.raises(ValueError):
            Policy(retries=-1)

    def test_hung_block_finished_by_straggler_duplicate(
        self, tmp_path, monkeypatch
    ):
        # With no block timeout, only the speculative duplicate can
        # finish a hung block: it must win, and the hung sibling die.
        monkeypatch.setattr(mapreduce, "STRAGGLER_FACTOR", 1.0)
        monkeypatch.setattr(mapreduce, "STRAGGLER_FLOOR", 0.2)
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        timings = Timings()
        serial = map_reduce(sharded, _ecdf_kernel).finalize()
        got = map_reduce(
            sharded,
            _ecdf_kernel,
            jobs=2,
            inject=_HangOnce(block=1),
            timings=timings,
        ).finalize()
        np.testing.assert_array_equal(got.values, serial.values)
        np.testing.assert_array_equal(got.probabilities, serial.probabilities)
        assert timings.counters["mapreduce_stragglers"] == 1
        assert timings.counters.get("mapreduce_block_timeouts", 0) == 0

    def test_block_timeout_owns_hung_attempts(self, tmp_path, monkeypatch):
        # With a block timeout set, the timeout ends a hung attempt and
        # no duplicate is launched, however early speculation would fire.
        monkeypatch.setattr(supervise, "POLL_INTERVAL", 0.02)
        monkeypatch.setattr(mapreduce, "STRAGGLER_FACTOR", 0.01)
        monkeypatch.setattr(mapreduce, "STRAGGLER_FLOOR", 0.01)
        values, sharded = self._sharded(tmp_path, n=20, rows=5)
        timings = Timings()
        got = map_shards(
            sharded,
            _sum_kernel,
            jobs=2,
            config=Policy(timeout=1.0, retries=2),
            inject=_HangOnce(block=1),
            timings=timings,
        )
        assert got == map_shards(sharded, _sum_kernel)
        assert timings.counters["mapreduce_block_timeouts"] >= 1
        assert timings.counters.get("mapreduce_stragglers", 0) == 0


# -- reaping: block workers and their forkserver are the caller's to wait for --

BURN_S = 0.25


def _burn(shard, seconds):
    """Spin ``seconds`` of CPU time, then return the shard's first value."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    return int(np.asarray(shard["x"])[0])


def _burn_then_fail_last(shard, seconds):
    value = _burn(shard, seconds)
    if value == 3:
        raise ValueError("boom")
    return value


def _burn_then_die(shard, seconds, parent):
    """Burn and die in a worker; the parent's inline fallback runs clean."""
    if os.getpid() == parent:
        return int(np.asarray(shard["x"])[0])
    _burn(shard, seconds)
    os._exit(1)


def _children():
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while listing
        # The ppid follows the state, after the parenthesised name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.add(int(entry))
    return pids


def _is_resource_tracker(pid):
    try:
        cmdline = Path("/proc", str(pid), "cmdline").read_bytes()
    except OSError:
        return False
    return b"multiprocessing.resource_tracker" in cmdline


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@contextmanager
def _reaped(burned):
    """Check that the block leaves no child behind but the resource
    tracker, and that the caller's child CPU grew by ``burned``."""
    before = _children()
    cpu_before = _children_cpu()
    yield
    left = {pid for pid in _children() - before if not _is_resource_tracker(pid)}
    assert not left, f"unreaped children: {sorted(left)}"
    assert _children_cpu() - cpu_before >= burned


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestReaping:
    """However a pass ends, every block worker and the forkserver they
    fork from are reaped by the caller, so the caller's child CPU
    accounting covers what the kernels burned."""

    @pytest.fixture
    def sharded(self, tmp_path):
        # Four one-row shards valued 0..3: two blocks of two at jobs=2.
        return write_table(Table({"x": np.arange(4)}), tmp_path / "t", 1)

    def test_returns(self, sharded):
        with _reaped(burned=4 * BURN_S):
            got = map_reduce(
                sharded, _burn, args=(BURN_S,), jobs=2, merge=operator.add
            )
        assert got == 0 + 1 + 2 + 3

    def test_raises(self, sharded):
        # The failing block burns both its shards before it reports; the
        # other block may be stopped part way.
        with _reaped(burned=2 * BURN_S), pytest.raises(
            MapReduceError, match="boom"
        ):
            map_reduce(
                sharded,
                _burn_then_fail_last,
                args=(BURN_S,),
                jobs=2,
                merge=operator.add,
            )

    def test_degrades(self, sharded, monkeypatch):
        monkeypatch.setattr(mapreduce, "DEGRADE_AFTER", 2)
        monkeypatch.setattr(mapreduce, "BACKOFF_BASE", 0.001)
        timings = Timings()
        # Each crash that trips the breaker burned one shard first.
        with _reaped(burned=2 * BURN_S):
            got = map_reduce(
                sharded,
                _burn_then_die,
                args=(BURN_S, os.getpid()),
                jobs=2,
                merge=operator.add,
                config=Policy(retries=2),
                timings=timings,
            )
        assert got == 0 + 1 + 2 + 3
        assert timings.counters["mapreduce_inline"] == 2


def _env():
    """A child environment on this checkout's ``src`` with no ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


class TestWorkerStart:
    """What entry processes and block workers import, and what workers
    print on start."""

    @pytest.mark.parametrize(
        "code",
        [
            *(
                pytest.param(
                    f"import sys, {module}; sys.exit('scipy' in sys.modules)",
                    id=module,
                )
                for module in (
                    "repro.experiments.runner",
                    "repro.analysis.cli",
                    "repro.core.mapreduce",
                )
            ),
            # The whole registry runs with SciPy unimportable; its
            # stdout is captured and ignored.
            pytest.param(
                "import sys; sys.modules['scipy'] = None; "
                "from repro.experiments.runner import main; "
                "sys.exit(main(['--scale', 'small', '--no-cache']))",
                id="registry-without-scipy",
            ),
        ],
    )
    def test_entry_modules_leave_scipy_unimported(self, code):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_sharded_cli_workers_start_without_warnings(self, tmp_path):
        # Under ``-m`` every block worker re-runs the main module; had
        # the forkserver preloaded it by name, runpy would warn once per
        # worker. Four one-row shards make two blocks, so workers really
        # start.
        (tmp_path / "fold_main.py").write_text(
            "import numpy as np\n"
            "from repro.core.mapreduce import map_shards\n"
            "from repro.core.shard import write_table\n"
            "from repro.core.table import Table\n"
            "\n"
            "def first(shard):\n"
            "    return int(np.asarray(shard['x'])[0])\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    table = write_table(Table({'x': np.arange(4)}), 'table', 1)\n"
            "    print(map_shards(table, first, jobs=2))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "fold_main"],
            capture_output=True,
            text=True,
            env=_env(),
            cwd=str(tmp_path),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 1, 2, 3]"
        assert "RuntimeWarning" not in proc.stderr, proc.stderr


# -- a run forks no server; a pass's blocks die with their launcher ----------


def _running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@dataclass(frozen=True)
class _RecordAndHang:
    """Name the worker of block 0's first attempt in ``directory``, then
    stall it far past the test."""

    directory: str

    def __call__(self, root, block, attempt):
        if block == 0 and attempt == 1:
            Path(self.directory, str(os.getpid())).touch()
            time.sleep(60)


def _hanging_pass(table, directory):
    # The timeout owns the hung attempt, so no speculative duplicate
    # finishes the pass before the test kills this launcher.
    map_reduce(
        table,
        _sum_kernel,
        jobs=2,
        merge=operator.add,
        config=Policy(timeout=120.0),
        inject=_RecordAndHang(directory),
    )


#: ``python -c`` script: the runner's CLI with every forkserver start
#: recorded as the starting pid, one line each, in the file ``argv[1]``.
#: Forked workers inherit the wrapper.
_RECORD_SERVER_STARTS = """
import os, sys
from repro.core import supervise

def record(preload, start=supervise._start_forkserver):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    start(preload)

supervise._start_forkserver = record
from repro.experiments.runner import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestRunServer:
    """A run starts no forkserver: its experiment workers fold their
    shards inline. A library pass with ``jobs > 1`` starts its own, and
    no block worker outlives its launcher."""

    @pytest.fixture
    def sharded(self, tmp_path):
        return write_table(Table({"x": np.arange(4)}), tmp_path / "t", 1)

    @pytest.mark.parametrize(
        "shard_rows",
        [["--shard-rows", "4096"], []],
        ids=["multi-shard", "one-shard"],
    )
    def test_sharded_run_starts_no_server(self, tmp_path, shard_rows):
        # At 4096 rows both experiments' tables span several shards; at
        # the default every small-scale table is one shard. Either way
        # each experiment worker folds its shards itself.
        starts = tmp_path / "starts"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _RECORD_SERVER_STARTS,
                str(starts),
                "fig2",
                "fig4",
                "--scale",
                "small",
                "--backend",
                "sharded",
                "--jobs",
                "2",
                *shard_rows,
                "--no-cache",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
            cwd=str(tmp_path),
        )
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert "Fig. 2" in out and "Fig. 4" in out
        recorded = starts.read_text().split() if starts.exists() else []
        assert recorded == []

    @pytest.mark.parametrize("server", ["own-server"])
    def test_block_worker_exits_with_its_killed_launcher(
        self, sharded, tmp_path, server
    ):
        # The launcher's pass starts its own server, as every pass does.
        marks = tmp_path / "marks"
        marks.mkdir()
        fork = multiprocessing.get_context("fork")
        launcher = fork.Process(target=_hanging_pass, args=(sharded, str(marks)))
        launcher.start()
        try:
            deadline = time.monotonic() + 60
            while not any(marks.iterdir()) and time.monotonic() < deadline:
                time.sleep(0.02)
            (mark,) = marks.iterdir()
        finally:
            os.kill(launcher.pid, signal.SIGKILL)
            launcher.join(10)
        assert launcher.exitcode == -signal.SIGKILL
        killed = time.monotonic()
        block = int(mark.name)
        while _running(block) and time.monotonic() < killed + 5:
            time.sleep(0.02)
        assert not _running(block), "block worker outlived its launcher"
