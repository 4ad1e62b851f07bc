"""Unit and calibration tests for the Google workload model."""

import hashlib
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.fairness import submission_rate_stats
from repro.core.masscount import mass_count
from repro.core.summary import fraction_below
from repro.core.shard import ShardWriter
from repro.core.table import concat_tables
from repro.synth import google_model
from repro.synth.google_model import (
    FATE_CODES,
    TASK_REQUEST_COLUMNS,
    GoogleConfig,
    generate_google_jobs,
    generate_google_trace,
    generate_task_requests,
    generate_task_requests_chunked,
    iter_task_requests,
)
from repro.synth.sharded import shard_task_requests
from repro.synth.presets import DAY, HOUR
from repro.traces.schema import JOB_TABLE_SCHEMA, TaskEvent
from repro.traces.validate import validate_trace

HORIZON = 2 * DAY


class TestGoogleConfig:
    def test_defaults_valid(self):
        GoogleConfig()

    def test_bad_fate_probs(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GoogleConfig(fate_probs={"finish": 0.5, "fail": 0.1, "kill": 0.1, "evict": 0.1, "lost": 0.1})

    def test_missing_fate_key(self):
        with pytest.raises(ValueError, match="keys"):
            GoogleConfig(fate_probs={"finish": 1.0})

    def test_bad_priority_weights(self):
        with pytest.raises(ValueError, match="12"):
            GoogleConfig(priority_weights=(1.0, 2.0))

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            GoogleConfig(jobs_per_hour=-5)


class TestGenerateGoogleJobs:
    def test_schema(self):
        jobs = generate_google_jobs(HORIZON, seed=0)
        assert set(jobs.column_names) == set(JOB_TABLE_SCHEMA)

    def test_deterministic(self):
        a = generate_google_jobs(HORIZON, seed=3)
        b = generate_google_jobs(HORIZON, seed=3)
        assert a == b

    def test_rate_near_552(self):
        config = GoogleConfig(busy_window=None)
        jobs = generate_google_jobs(10 * DAY, seed=1, config=config)
        stats = submission_rate_stats(
            np.asarray(jobs["submit_time"]), 10 * DAY
        )
        assert stats.avg_per_hour == pytest.approx(552, rel=0.05)

    def test_fairness_near_094(self):
        config = GoogleConfig(busy_window=None)
        jobs = generate_google_jobs(20 * DAY, seed=2, config=config)
        stats = submission_rate_stats(
            np.asarray(jobs["submit_time"]), 20 * DAY
        )
        assert stats.fairness == pytest.approx(0.94, abs=0.04)

    def test_job_lengths_mostly_short(self):
        jobs = generate_google_jobs(HORIZON, seed=3)
        lengths = np.asarray(jobs["end_time"] - jobs["submit_time"])
        assert 0.7 < fraction_below(lengths, 1000.0) < 0.9

    def test_priorities_in_range(self):
        jobs = generate_google_jobs(HORIZON, seed=4)
        assert jobs["priority"].min() >= 1
        assert jobs["priority"].max() <= 12

    def test_low_band_dominates(self):
        jobs = generate_google_jobs(HORIZON, seed=5)
        low = np.count_nonzero(jobs["priority"] <= 4)
        assert low / len(jobs) > 0.7

    def test_horizon_too_short(self):
        with pytest.raises(ValueError):
            generate_google_jobs(0.001, seed=0)


class TestGenerateTaskRequests:
    def test_direct_rate_mode(self):
        req = generate_task_requests(
            HORIZON, seed=0, tasks_per_hour=100.0,
            config=GoogleConfig(busy_window=None),
        )
        assert len(req) == pytest.approx(100 * 48, rel=0.1)
        assert np.all(np.diff(req.submit_time) >= 0)

    def test_fanout_mode_shares_priority_within_job(self):
        req = generate_task_requests(
            6 * HOUR, seed=1, config=GoogleConfig(busy_window=None)
        )
        job_ids = req.job_id
        priorities = req.priority
        for jid in np.unique(job_ids)[:50]:
            assert len(np.unique(priorities[job_ids == jid])) == 1

    def test_task_lengths_calibration(self):
        """Sec. VI: ~55% < 10 min, ~90% < 1 h, heavy service tail."""
        req = generate_task_requests(
            HORIZON, seed=2, tasks_per_hour=4000.0,
            config=GoogleConfig(busy_window=None),
        )
        d = req.duration
        assert fraction_below(d, 600) == pytest.approx(0.55, abs=0.06)
        assert fraction_below(d, 3600) == pytest.approx(0.90, abs=0.05)
        assert d.max() > 5 * DAY

    def test_joint_ratio_near_6_94(self):
        req = generate_task_requests(
            HORIZON, seed=3, tasks_per_hour=4000.0,
            config=GoogleConfig(busy_window=None),
        )
        mc = mass_count(req.duration)
        assert mc.joint_ratio[0] == pytest.approx(6.0, abs=2.5)

    def test_fates_from_config(self):
        req = generate_task_requests(
            HORIZON, seed=4, tasks_per_hour=1000.0,
            config=GoogleConfig(busy_window=None),
        )
        valid = set(FATE_CODES.values())
        assert set(np.unique(req.fate)) <= valid
        finish_frac = np.count_nonzero(
            req.fate == int(TaskEvent.FINISH)
        ) / len(req)
        assert finish_frac == pytest.approx(0.408, abs=0.05)

    def test_requests_positive(self):
        req = generate_task_requests(
            6 * HOUR, seed=5, tasks_per_hour=500.0,
            config=GoogleConfig(busy_window=None),
        )
        assert np.all(req.cpu_request > 0)
        assert np.all(req.mem_request > 0)
        assert np.all(req.duration > 0)

    def test_sorted_by_time_helper(self):
        req = generate_task_requests(
            3 * HOUR, seed=6, tasks_per_hour=200.0,
            config=GoogleConfig(busy_window=None),
        )
        shuffled_order = np.random.default_rng(0).permutation(len(req))
        from repro.synth.google_model import TaskRequests

        shuffled = TaskRequests(
            **{
                name: getattr(req, name)[shuffled_order]
                for name in req.__dataclass_fields__
            }
        )
        resorted = shuffled.sorted_by_time()
        np.testing.assert_allclose(resorted.submit_time, req.submit_time)

    def test_length_mismatch_rejected(self):
        from repro.synth.google_model import TaskRequests

        with pytest.raises(ValueError, match="length"):
            TaskRequests(
                submit_time=np.zeros(2),
                job_id=np.zeros(2, dtype=np.int64),
                task_index=np.zeros(2, dtype=np.int32),
                priority=np.ones(2, dtype=np.int16),
                cpu_request=np.ones(2),
                mem_request=np.ones(2),
                duration=np.ones(2),
                cpu_utilization=np.ones(2),
                mem_utilization=np.ones(2),
                page_cache=np.ones(1),  # wrong length
                fate=np.full(2, 4, dtype=np.int8),
            )


class TestChunkedGeneration:
    """Chunked columnar generation: chunk-size-invariant, bounded memory."""

    KW = dict(tasks_per_hour=300.0, config=GoogleConfig(busy_window=None))
    #: 934,014 rows: three full column blocks and a short fourth, so
    #: chunks cross block boundaries and several blocks are in flight.
    FOUR_BLOCKS = dict(
        horizon=2 * DAY,
        seed=11,
        tasks_per_hour=20_000,
        config=GoogleConfig(busy_window=None),
    )
    #: sha256 of FOUR_BLOCKS' 11 columns, concatenated in
    #: TASK_REQUEST_COLUMNS order, as the serial generator made them.
    FOUR_BLOCKS_SHA256 = (
        "a5d4e181857414a9fb5db7108122332632a6d97affe5104fb1fae829ac5eaa14"
    )

    def _fields(self, req):
        return {
            name: getattr(req, name)
            for name in type(req).__dataclass_fields__
        }

    @pytest.mark.parametrize("chunk_tasks", [37, 500, 10**9])
    def test_chunking_is_bitwise_invariant(self, chunk_tasks):
        # Any chunk size concatenates to the identical trace — the
        # property that lets paper-scale runs stream 25M tasks without
        # materializing more than one chunk of every column.
        whole = generate_task_requests_chunked(12 * HOUR, seed=5, **self.KW)
        chunks = list(
            iter_task_requests(
                12 * HOUR, seed=5, chunk_tasks=chunk_tasks, **self.KW
            )
        )
        assert all(
            len(c) == chunk_tasks for c in chunks[:-1]
        )  # only the tail may be short
        rebuilt = concat_tables(chunks)
        assert rebuilt.column_names == TASK_REQUEST_COLUMNS
        assert len(rebuilt) == len(whole)
        for name, column in self._fields(whole).items():
            np.testing.assert_array_equal(rebuilt[name], column, err_msg=name)
            assert rebuilt[name].dtype == column.dtype

    @pytest.mark.parametrize(
        "chunk_tasks, stream",
        [
            pytest.param(37, dict(horizon=12 * HOUR, seed=5, **KW), id="37"),
            pytest.param(10**9, dict(horizon=12 * HOUR, seed=5, **KW), id="1000000000"),
            pytest.param(100_000, FOUR_BLOCKS, id="four_blocks-100000"),
        ],
    )
    @pytest.mark.parametrize(
        "columns",
        [
            ("submit_time",),
            ("duration",),
            ("submit_time", "duration"),
            ("page_cache", "priority"),
            TASK_REQUEST_COLUMNS,
        ],
        ids="-".join,
    )
    def test_projection_matches_full_stream(self, columns, chunk_tasks, stream):
        # A projection skips the draws after its last column, and each
        # column block draws from its own spawned stream, so every kept
        # column is the full stream's column bit for bit.
        whole = generate_task_requests_chunked(**stream)
        projected = concat_tables(
            list(
                iter_task_requests(
                    **stream, chunk_tasks=chunk_tasks, columns=columns
                )
            )
        )
        assert projected.column_names == columns
        for name in columns:
            column = getattr(whole, name)
            np.testing.assert_array_equal(projected[name], column, err_msg=name)
            assert projected[name].dtype == column.dtype

    def test_deterministic_in_seed(self):
        a = generate_task_requests_chunked(6 * HOUR, seed=8, **self.KW)
        b = generate_task_requests_chunked(6 * HOUR, seed=8, **self.KW)
        c = generate_task_requests_chunked(6 * HOUR, seed=9, **self.KW)
        np.testing.assert_array_equal(a.duration, b.duration)
        assert not np.array_equal(a.duration, c.duration)

    def test_stream_is_time_sorted_with_unique_job_ids(self):
        chunks = list(
            iter_task_requests(8 * HOUR, seed=6, chunk_tasks=100, **self.KW)
        )
        req = concat_tables(chunks)
        assert np.all(np.diff(req["submit_time"]) >= 0)
        assert len(np.unique(req["job_id"])) == len(req)
        np.testing.assert_array_equal(req["job_id"], np.arange(len(req)))

    def test_generator_seed_rejected(self):
        with pytest.raises(TypeError, match="seed"):
            next(
                iter_task_requests(
                    HOUR, seed=np.random.default_rng(0), **self.KW
                )
            )

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_tasks"):
            next(iter_task_requests(HOUR, seed=0, chunk_tasks=0, **self.KW))

    @pytest.mark.parametrize(
        "columns, message",
        [
            ((), "at least one"),
            (("duration", "duration"), "repeat"),
            (("duration", "cpu"), "unknown"),
        ],
    )
    def test_bad_columns_rejected(self, columns, message):
        with pytest.raises(ValueError, match=message):
            next(iter_task_requests(HOUR, seed=0, columns=columns, **self.KW))

    @pytest.mark.parametrize("columns", [(), ("duration", "duration")])
    def test_bad_spill_columns_rejected_before_writing(self, tmp_path, columns):
        # Validation runs at the generator's first next(), before any row
        # is drawn, so the spill fails without creating its destination.
        dest = tmp_path / "spill"
        with pytest.raises(ValueError):
            shard_task_requests(
                dest, HOUR, seed=0, shard_rows=100, columns=columns, **self.KW
            )
        assert not dest.exists()

    def test_spill_equals_writing_the_full_stream(self, tmp_path):
        columns = ("submit_time", "duration")
        whole = generate_task_requests_chunked(12 * HOUR, seed=5, **self.KW)
        spilled = shard_task_requests(
            tmp_path / "spill",
            12 * HOUR,
            seed=5,
            shard_rows=700,
            columns=columns,
            **self.KW,
        )
        schema = {name: getattr(whole, name).dtype for name in columns}
        with ShardWriter(tmp_path / "direct", schema, shard_rows=700) as writer:
            writer.append({name: getattr(whole, name) for name in columns})
        assert spilled.num_rows == len(whole)
        spill = _tree(tmp_path / "spill")
        assert any(rel.name == "manifest.json" for rel in spill)
        assert spill == _tree(tmp_path / "direct")


def _use_threads(monkeypatch, threads):
    """Make the generator sample with ``threads`` threads on this host."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False
    )
    monkeypatch.setattr(google_model, "_MAX_SAMPLING_THREADS", threads)
    assert google_model._sampling_threads() == threads


def _wait_for_threads(baseline, timeout=10.0):
    """Wait until only ``baseline`` threads are alive; return the count."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


def _tree(root):
    return {
        p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


class TestThreadedSampling:
    """Column blocks sampled on threads: same bytes, no thread left behind."""

    STREAM = TestChunkedGeneration.FOUR_BLOCKS
    SPILL = dict(STREAM, shard_rows=300_000, columns=("submit_time", "duration"))

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (8, 2)])
    def test_threads_follow_affinity_up_to_two(self, monkeypatch, cpus, threads):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        assert google_model._sampling_threads() == threads

    @pytest.mark.parametrize("threads", [1, 8])
    def test_stream_bytes_do_not_depend_on_threads(self, monkeypatch, threads):
        # 8 threads is more than this suite's hosts have cores, and every
        # one of the four blocks is in flight at once; a short switch
        # interval interleaves the threads as finely as it can.
        _use_threads(monkeypatch, threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            chunks = list(iter_task_requests(**self.STREAM, chunk_tasks=100_000))
        finally:
            sys.setswitchinterval(interval)
        table = concat_tables(chunks)
        assert len(table) == 934_014
        digest = hashlib.sha256()
        for name in TASK_REQUEST_COLUMNS:
            digest.update(table[name].tobytes())
        assert digest.hexdigest() == TestChunkedGeneration.FOUR_BLOCKS_SHA256

    def test_close_after_first_chunk_joins_threads(self, monkeypatch):
        _use_threads(monkeypatch, 4)
        baseline = threading.active_count()
        stream = iter_task_requests(**self.STREAM, chunk_tasks=100_000)
        assert len(next(stream)) == 100_000
        stream.close()
        assert _wait_for_threads(baseline) == baseline

    def test_block_error_surfaces_at_its_next(self, monkeypatch):
        _use_threads(monkeypatch, 4)
        sample = google_model._sample_request_block

        def fail_second_block(config, rng, submit, first_job_id, names):
            if first_job_id == google_model._COLUMN_BLOCK:
                raise RuntimeError("block 2 failed")
            return sample(config, rng, submit, first_job_id, names)

        monkeypatch.setattr(google_model, "_sample_request_block", fail_second_block)
        baseline = threading.active_count()
        stream = iter_task_requests(
            **self.STREAM, chunk_tasks=google_model._COLUMN_BLOCK
        )
        first = next(stream)
        np.testing.assert_array_equal(
            first["job_id"], np.arange(google_model._COLUMN_BLOCK)
        )
        with pytest.raises(RuntimeError, match="block 2 failed") as failure:
            next(stream)
        assert failure.traceback
        assert _wait_for_threads(baseline) == baseline
        with pytest.raises(StopIteration):
            next(stream)

    def test_write_error_leaves_dest_unpublished_and_resume_finishes(
        self, monkeypatch, tmp_path
    ):
        _use_threads(monkeypatch, 4)
        emit = ShardWriter._emit
        emitted = []

        def fail_second_shard(writer, n_rows):
            if len(writer._shard_counts) == 1:
                raise OSError("disk full")
            emit(writer, n_rows)

        monkeypatch.setattr(ShardWriter, "_emit", fail_second_shard)
        baseline = threading.active_count()
        dest = tmp_path / "spill"
        with pytest.raises(OSError, match="disk full") as failure:
            shard_task_requests(dest, resume=True, **self.SPILL)
        # The spill closes its stream itself: its threads are gone while
        # the traceback still holds the spill's frame and the stream.
        assert failure.traceback
        assert _wait_for_threads(baseline) == baseline
        assert not dest.exists()
        assert (tmp_path / ".spill.partial" / "shard-00000").is_dir()

        def count_shards(writer, n_rows):
            emitted.append(n_rows)
            emit(writer, n_rows)

        monkeypatch.setattr(ShardWriter, "_emit", count_shards)
        resumed = shard_task_requests(dest, resume=True, **self.SPILL)
        assert len(emitted) == resumed.num_shards - 1  # shard 0 was adopted
        assert _wait_for_threads(baseline) == baseline
        fresh = shard_task_requests(tmp_path / "fresh", **self.SPILL)
        assert fresh.num_shards == 4
        assert _tree(dest) == _tree(tmp_path / "fresh")


class TestGenerateGoogleTrace:
    def test_valid_trace(self):
        trace = generate_google_trace(
            horizon=6 * HOUR,
            num_machines=10,
            seed=0,
            tasks_per_hour=120.0,
            config=GoogleConfig(busy_window=None),
        )
        validate_trace(trace)
        assert trace.num_machines == 10
        assert trace.num_jobs > 0
        assert len(trace.task_usage) > 0

    def test_usage_windows_within_horizon(self):
        trace = generate_google_trace(
            horizon=6 * HOUR,
            num_machines=5,
            seed=1,
            tasks_per_hour=60.0,
            config=GoogleConfig(busy_window=None),
        )
        assert trace.task_usage["end_time"].max() <= 6 * HOUR + 1e-6

    def test_completion_mix_tracks_config(self):
        from repro.traces.google import completion_mix

        trace = generate_google_trace(
            horizon=12 * HOUR,
            num_machines=10,
            seed=2,
            tasks_per_hour=400.0,
            config=GoogleConfig(busy_window=None),
        )
        mix = completion_mix(trace)
        assert mix["abnormal"] == pytest.approx(0.592, abs=0.07)
