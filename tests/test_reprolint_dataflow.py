"""Tests for reprolint's whole-program dataflow layer (PR 5).

Covers the flow-sensitive rules (REP102 rng-provenance, REP202
cross-module schema flow, REP701 unused-suppression), suppression-
comment parsing edge cases, the incremental cache's invalidation
contract, parallel analysis equivalence and the SARIF reporter.
"""

from __future__ import annotations

import ast
import concurrent.futures
import gc
import json
import os
import sys
import textwrap
import tokenize
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import engine, lint_paths
from repro.analysis.engine import SuppressionSpec, _parse_suppressions
from repro.analysis.graph import build_project_graph, summarize_module
from repro.analysis.reporters import render_sarif
from repro.core.diskcache import DiskCache

MINI_PYPROJECT = """\
[project]
name = "repro"

[tool.reprolint]
exclude = ["*.egg-info/*", "*__pycache__*"]

[tool.reprolint.layers]
core = 0
traces = 1
synth = 2
hostload = 2
sim = 3
apps = 3
experiments = 4
"""

MINI_SCHEMA = """\
JOB_TABLE_SCHEMA = {
    "job_id": "int64",
    "submit_time": "float64",
    "run_time": "float64",
    "wait_time": "float64",
}
"""


@pytest.fixture
def project(tmp_path):
    """A minimal repro-shaped project; returns a writer/linter helper."""

    class Project:
        root = tmp_path

        def write(self, relpath: str, source: str) -> Path:
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
            return path

        def lint(self, *relpaths: str, **kwargs):
            targets = [tmp_path / p for p in (relpaths or ("src",))]
            return lint_paths(targets, root=tmp_path, **kwargs)

    proj = Project()
    proj.write("pyproject.toml", MINI_PYPROJECT)
    proj.write("src/repro/traces/schema.py", MINI_SCHEMA)
    proj.write("src/repro/__init__.py", "")
    return proj


def rules_at(run, relpath: str, line: int) -> set[str]:
    return {
        d.rule_id
        for d in run.all_diagnostics
        if d.path == relpath and d.line == line
    }


def only(run, rule_id: str):
    return [d for d in run.all_diagnostics if d.rule_id == rule_id]


# -- REP102: rng provenance ---------------------------------------------------


class TestRngProvenance:
    def test_hard_coded_seed_in_core_fails(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            import numpy as np

            def make():
                return np.random.default_rng(1234)
            """,
        )
        run = project.lint()
        assert "REP102" in rules_at(run, "src/repro/core/m.py", 4)
        [diag] = only(run, "REP102")
        assert "hard-coded seed" in diag.message

    def test_adhoc_seed_arithmetic_in_synth_fails(self, project):
        project.write(
            "src/repro/synth/m.py",
            """\
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed + 10)
            """,
        )
        run = project.lint()
        assert "REP102" in rules_at(run, "src/repro/synth/m.py", 4)
        [diag] = only(run, "REP102")
        assert "seed arithmetic" in diag.message
        assert "spawn" in diag.hint

    def test_seeded_spawn_chain_passes(self, project):
        project.write(
            "src/repro/core/streams.py",
            """\
            import numpy as np

            def children(seed, n):
                ss = np.random.SeedSequence(seed)
                return [np.random.default_rng(child) for child in ss.spawn(n)]

            def child(seed):
                ss = np.random.SeedSequence(seed)
                return np.random.default_rng(ss.spawn(3)[0])
            """,
        )
        assert project.lint().all_diagnostics == []

    def test_param_passthrough_passes(self, project):
        project.write(
            "src/repro/synth/m.py",
            """\
            import numpy as np

            def generate(rng: np.random.Generator, n):
                return rng.normal(size=n)

            def wrap(rng, n):
                return generate(rng, n)
            """,
        )
        assert project.lint().all_diagnostics == []

    def test_cross_module_literal_entropy_arg_fails_in_scope(self, project):
        project.write(
            "src/repro/synth/gen.py",
            """\
            import numpy as np

            def generate(rng: np.random.Generator, n):
                return rng.normal(size=n)
            """,
        )
        project.write(
            "src/repro/sim/run.py",
            """\
            import numpy as np
            from ..synth.gen import generate

            def simulate():
                return generate(np.random.default_rng(7), 10)
            """,
        )
        run = project.lint()
        assert "REP102" in rules_at(run, "src/repro/sim/run.py", 5)
        assert rules_at(run, "src/repro/synth/gen.py", 4) == set()

    def test_experiments_may_choose_literal_seeds(self, project):
        project.write(
            "src/repro/synth/gen.py",
            """\
            import numpy as np

            def generate(rng: np.random.Generator, n):
                return rng.normal(size=n)
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            import numpy as np
            from ..synth.gen import generate

            def main(seed=123):
                return generate(np.random.default_rng(seed + 1), 10)
            """,
        )
        # The experiments layer is the composition root: literal/derived
        # run seeds are its job, so REP102 stays quiet there.
        assert only(project.lint(), "REP102") == []

    def test_unseeded_entropy_arg_fails_even_from_experiments(self, project):
        project.write(
            "src/repro/synth/gen.py",
            """\
            import numpy as np

            def generate(rng: np.random.Generator, n):
                return rng.normal(size=n)
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            import numpy as np
            from ..synth.gen import generate

            def main():
                return generate(np.random.default_rng(), 10)
            """,
        )
        run = project.lint()
        assert "REP102" in rules_at(run, "src/repro/experiments/run.py", 5)

    def test_unseeded_generator_returned_into_scope_fails(self, project):
        project.write(
            "src/repro/apps/helpers.py",
            """\
            import numpy as np

            def fresh_rng():
                return np.random.default_rng()
            """,
        )
        project.write(
            "src/repro/sim/use.py",
            """\
            from ..apps.helpers import fresh_rng

            def simulate():
                rng = fresh_rng()
                return rng.normal()
            """,
        )
        run = project.lint()
        assert "REP102" in rules_at(run, "src/repro/sim/use.py", 4)

    def test_entropy_param_closure_through_forwarding(self, project):
        # seed -> wrapper -> generate: the wrapper's param becomes an
        # entropy param transitively, so a literal flowing into the
        # wrapper from a scoped layer is caught.
        project.write(
            "src/repro/synth/gen.py",
            """\
            import numpy as np

            def generate(rng: np.random.Generator, n):
                return rng.normal(size=n)

            def wrapper(rng, n):
                return generate(rng, n)
            """,
        )
        project.write(
            "src/repro/sim/run.py",
            """\
            import numpy as np
            from ..synth.gen import wrapper

            def simulate():
                return wrapper(np.random.default_rng(99), 4)
            """,
        )
        run = project.lint()
        assert "REP102" in rules_at(run, "src/repro/sim/run.py", 5)


# -- REP202: cross-module schema flow ----------------------------------------


class TestSchemaFlow:
    def test_cross_module_missing_column_caught(self, project):
        project.write(
            "src/repro/core/stats.py",
            """\
            def mean_wait(jobs):
                return jobs["wait_time"] / jobs["submit_time"]
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core.stats import mean_wait
            from ..core.table import Table

            def main():
                t = Table({"submit_time": [1.0], "run_time": [2.0]})
                return mean_wait(t)
            """,
        )
        run = project.lint()
        # "wait_time" exists in the global schema (so REP201 is quiet)
        # but no caller passes it — only the flow rule can see that.
        assert rules_at(run, "src/repro/core/stats.py", 2) == {"REP202"}
        [diag] = only(run, "REP202")
        assert "wait_time" in diag.message
        assert "1 call site" in diag.message

    def test_satisfied_columns_pass(self, project):
        project.write(
            "src/repro/core/stats.py",
            """\
            def mean_wait(jobs):
                return jobs["wait_time"] / jobs["run_time"]
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core.stats import mean_wait
            from ..core.table import Table

            def main():
                t = Table({"wait_time": [1.0], "run_time": [2.0]})
                return mean_wait(t)
            """,
        )
        assert only(project.lint(), "REP202") == []

    def test_union_over_multiple_call_sites(self, project):
        project.write(
            "src/repro/core/stats.py",
            """\
            def span(jobs):
                return jobs["submit_time"] + jobs["run_time"]
            """,
        )
        project.write(
            "src/repro/experiments/a.py",
            """\
            from ..core.stats import span
            from ..core.table import Table

            def main():
                return span(Table({"submit_time": [0.0]}))
            """,
        )
        project.write(
            "src/repro/experiments/b.py",
            """\
            from ..core.stats import span
            from ..core.table import Table

            def main():
                return span(Table({"run_time": [0.0]}))
            """,
        )
        # Each caller alone is missing a column, but the inferred schema
        # is the union over call sites, which satisfies both reads.
        assert only(project.lint(), "REP202") == []

    def test_opaque_call_site_silences_inference(self, project):
        project.write(
            "src/repro/core/stats.py",
            """\
            def mean_wait(jobs):
                return jobs["wait_time"]
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core.stats import mean_wait
            from .io_helpers import load

            def main():
                return mean_wait(load())
            """,
        )
        project.write(
            "src/repro/experiments/io_helpers.py",
            """\
            def load():
                return NotImplemented
            """,
        )
        # One caller whose argument schema is unknowable: inference is
        # incomplete, the rule says nothing.
        assert only(project.lint(), "REP202") == []

    def test_columns_added_by_function_itself_allowed(self, project):
        project.write(
            "src/repro/core/stats.py",
            """\
            def enrich(jobs):
                out = jobs.with_columns(wait_share=1.0)
                return out["wait_share"], jobs["run_time"]
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core.stats import enrich
            from ..core.table import Table

            def main():
                return enrich(Table({"run_time": [2.0]}))
            """,
        )
        assert only(project.lint(), "REP202") == []

    def test_schema_flow_through_reexport(self, project):
        project.write(
            "src/repro/core/__init__.py",
            "from .stats import mean_wait\n",
        )
        project.write(
            "src/repro/core/stats.py",
            """\
            def mean_wait(jobs):
                return jobs["wait_time"]
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core import mean_wait
            from ..core.table import Table

            def main():
                return mean_wait(Table({"run_time": [2.0]}))
            """,
        )
        run = project.lint()
        assert rules_at(run, "src/repro/core/stats.py", 2) == {"REP202"}


# -- REP701: unused suppressions ---------------------------------------------


class TestUnusedSuppression:
    def test_stale_suppression_flagged(self, project):
        project.write(
            "src/repro/core/m.py",
            "X = 1  # reprolint: disable=REP101\n",
        )
        run = project.lint()
        assert rules_at(run, "src/repro/core/m.py", 1) == {"REP701"}
        [diag] = only(run, "REP701")
        assert "suppresses nothing" in diag.message

    def test_used_suppression_not_flagged(self, project):
        project.write(
            "src/repro/core/m.py",
            "import random  # reprolint: disable=REP101\n",
        )
        assert project.lint().all_diagnostics == []

    def test_multiple_codes_partially_used(self, project):
        project.write(
            "src/repro/core/m.py",
            "import random  # reprolint: disable=REP101,REP501\n",
        )
        run = project.lint()
        [diag] = only(run, "REP701")
        assert "REP501" in diag.message
        assert "REP101" not in diag.message

    def test_unknown_rule_in_suppression(self, project):
        project.write(
            "src/repro/core/m.py",
            "import random  # reprolint: disable=REP101,REP999\n",
        )
        run = project.lint()
        [diag] = only(run, "REP701")
        assert "unknown rule" in diag.message
        assert "REP999" in diag.message

    def test_malformed_missing_equals(self, project):
        project.write(
            "src/repro/core/m.py",
            "X = 1  # reprolint: disable REP101\n",
        )
        run = project.lint()
        [diag] = only(run, "REP701")
        assert "malformed" in diag.message

    def test_malformed_empty_code_list(self, project):
        project.write(
            "src/repro/core/m.py",
            "X = 1  # reprolint: disable=\n",
        )
        run = project.lint()
        [diag] = only(run, "REP701")
        assert "malformed" in diag.message

    def test_malformed_unknown_directive(self, project):
        project.write(
            "src/repro/core/m.py",
            "X = 1  # reprolint: enable=REP101\n",
        )
        run = project.lint()
        [diag] = only(run, "REP701")
        assert "unknown directive" in diag.message

    def test_marker_inside_string_is_not_a_suppression(self, project):
        project.write(
            "src/repro/core/m.py",
            'DOC = "# reprolint: disable=REP101"\n',
        )
        assert project.lint().all_diagnostics == []

    def test_disable_all_used_and_unused(self, project):
        project.write(
            "src/repro/core/used.py",
            "import random  # reprolint: disable=all\n",
        )
        project.write(
            "src/repro/core/unused.py",
            "X = 1  # reprolint: disable=all\n",
        )
        run = project.lint()
        assert rules_at(run, "src/repro/core/used.py", 1) == set()
        # Even when stale, ``disable=all`` covers REP701 itself, so the
        # unused-suppression report is swallowed by its own directive
        # (matching pylint, where disable=all disables useless-suppression).
        assert rules_at(run, "src/repro/core/unused.py", 1) == set()

    def test_rep701_suppresses_itself(self, project):
        project.write(
            "src/repro/core/m.py",
            "X = 1  # reprolint: disable=REP101,REP701\n",
        )
        # pylint-convention: disabling the unused-suppression rule on
        # the same line silences the report about the stale REP101.
        assert project.lint().all_diagnostics == []

    def test_tests_are_exempt(self, project):
        project.write(
            "tests/test_m.py",
            "X = 1  # reprolint: disable=REP101\n",
        )
        assert project.lint("tests").all_diagnostics == []


class TestSuppressionParsing:
    def test_well_formed_multi_code(self):
        specs = _parse_suppressions(
            "x = 1  # reprolint: disable=REP101, REP502\n"
        )
        assert specs == [
            SuppressionSpec(line=1, codes=("REP101", "REP502"))
        ]

    def test_trailing_prose_is_malformed(self):
        [spec] = _parse_suppressions(
            "x = 1  # reprolint: disable=REP101 because reasons\n"
        )
        assert spec.malformed is not None
        assert spec.codes == ()

    def test_non_directive_comments_ignored(self):
        assert _parse_suppressions("x = 1  # a plain comment\n") == []

    def test_marker_in_string_ignored(self):
        assert (
            _parse_suppressions('s = "# reprolint: disable=REP101"\n') == []
        )

    def test_marker_free_source_is_not_tokenized(self, monkeypatch):
        def refuse(readline):
            raise AssertionError("tokenized a source without the marker")

        monkeypatch.setattr(tokenize, "generate_tokens", refuse)
        assert _parse_suppressions("x = 1  # a plain comment\n") == []
        assert _parse_suppressions('s = "# repro lint"\n') == []


# -- incremental cache --------------------------------------------------------


BASE = """\
def base_value():
    return 1
"""

MID = """\
import random
import time

import numpy as np

from ..core.base import base_value
from ..sim.engine import Engine

def mid_value():
    np.random.rand(2)
    time.time()
    return base_value() + 1
"""

TOP = """\
import random
import time

import numpy as np

from ..core.mid import mid_value
from ..experiments.run import main

def top_value():
    np.random.rand(2)
    time.time()
    return mid_value() + 1
"""

OTHER = """\
def unrelated():
    return 42
"""


class TestIncrementalCache:
    def _seed_tree(self, project):
        project.write("src/repro/core/base.py", BASE)
        project.write("src/repro/core/mid.py", MID)
        project.write("src/repro/synth/top.py", TOP)
        project.write("src/repro/traces/other.py", OTHER)

    def test_warm_run_analyzes_zero_files(self, project, tmp_path):
        self._seed_tree(project)
        cache_dir = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache_dir)
        warm = project.lint(cache_dir=cache_dir)
        assert cold.files_analyzed == cold.files_checked > 0
        assert warm.files_analyzed == 0
        assert warm.files_cached == cold.files_checked
        assert [d.to_dict() for d in warm.all_diagnostics] == [
            d.to_dict() for d in cold.all_diagnostics
        ]

    def test_edit_invalidates_file_and_dependents_only(self, project, tmp_path):
        self._seed_tree(project)
        cache_dir = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache_dir)
        project.write(
            "src/repro/core/base.py", BASE + "\n# edited\n"
        )
        run = project.lint(cache_dir=cache_dir)
        # base.py itself, plus mid.py and top.py whose import closures
        # contain it; other.py and the rest stay cached.
        assert run.files_analyzed == 3
        assert run.files_cached == cold.files_checked - 3
        # mid.py and top.py are re-analyzed from their cached summaries,
        # so REP101, REP301 and REP501 read import sites that went
        # through the disk cache: a stdlib random import, a legacy
        # np.random call, an upward import and a wall-clock read each.
        for relpath in ("src/repro/core/mid.py", "src/repro/synth/top.py"):
            assert sorted(
                d.rule_id for d in cold.all_diagnostics if d.path == relpath
            ) == ["REP101", "REP101", "REP301", "REP501"]
        assert [d.to_dict() for d in run.all_diagnostics] == [
            d.to_dict() for d in cold.all_diagnostics
        ]

    def test_caller_edit_rekeys_callee_diagnostics(self, project, tmp_path):
        project.write(
            "src/repro/core/stats.py",
            """\
            def mean_wait(jobs):
                return jobs["wait_time"]
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core.stats import mean_wait
            from ..core.table import Table

            def main():
                return mean_wait(Table({"wait_time": [1.0]}))
            """,
        )
        cache_dir = tmp_path / "lint-cache"
        assert only(project.lint(cache_dir=cache_dir), "REP202") == []
        # Edit only the CALLER: the table it passes loses the column.
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core.stats import mean_wait
            from ..core.table import Table

            def main():
                return mean_wait(Table({"run_time": [1.0]}))
            """,
        )
        run = project.lint(cache_dir=cache_dir)
        # The callee's file is unchanged and not a dependent of the
        # caller in the import graph — only the flow fingerprint can
        # re-key it. The new diagnostic must appear.
        assert rules_at(run, "src/repro/core/stats.py", 2) == {"REP202"}

    def test_parse_error_cached(self, project, tmp_path):
        project.write("src/repro/core/broken.py", "def broken(:\n")
        cache_dir = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache_dir)
        warm = project.lint(cache_dir=cache_dir)
        assert [d.rule_id for d in cold.all_diagnostics] == ["REP000"]
        assert [d.rule_id for d in warm.all_diagnostics] == ["REP000"]
        assert warm.files_analyzed == 0

    def test_identical_files_at_two_paths(self, project, tmp_path):
        # Same bytes, different paths: each file's summary records its
        # own module and its diagnostics their own path, so neither
        # cache entry may be shared between them.
        project.write("src/repro/core/a.py", "import random\n")
        project.write("src/repro/core/b.py", "import random\n")
        cache_dir = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache_dir)
        warm = project.lint(cache_dir=cache_dir)
        found = sorted(
            (d.path, d.line)
            for d in cold.all_diagnostics
            if d.rule_id == "REP101"
        )
        assert found == [("src/repro/core/a.py", 1), ("src/repro/core/b.py", 1)]
        assert warm.files_analyzed == 0
        assert [d.to_dict() for d in warm.all_diagnostics] == [
            d.to_dict() for d in cold.all_diagnostics
        ]

    def test_stale_payload_format_is_a_miss(self, project, tmp_path):
        # Diagnostics entries written as ``to_dict`` dicts (an older
        # payload format) must be re-analyzed and put again, not served.
        project.write("src/repro/core/a.py", "import random\n")
        cache_dir = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache_dir)
        assert [d.rule_id for d in cold.all_diagnostics] == ["REP101"]
        store = DiskCache(cache_dir)
        rewritten = 0
        for key in store.entries():
            entry = store.get(key)
            if isinstance(entry, dict) and "diags" in entry:
                store.put(
                    key,
                    {part: [d.to_dict() for d in entry[part]]
                     for part in ("diags", "parse")},
                )
                rewritten += 1
        assert rewritten == cold.files_checked
        warm = project.lint(cache_dir=cache_dir)
        # Only a.py's entry held a finding; an empty list reads the same
        # in either format.
        assert warm.files_analyzed == 1
        assert warm.files_cached == cold.files_checked - 1
        assert [d.to_dict() for d in warm.all_diagnostics] == [
            d.to_dict() for d in cold.all_diagnostics
        ]
        again = project.lint(cache_dir=cache_dir)
        assert again.files_analyzed == 0


# -- parallel analysis --------------------------------------------------------


class TestParallelAnalysis:
    def test_jobs_equivalent_to_serial(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            import random

            def f():
                return random.random()
            """,
        )
        project.write(
            "src/repro/core/stats.py",
            """\
            def mean_wait(jobs):
                return jobs["wait_time"]
            """,
        )
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core.stats import mean_wait
            from ..core.table import Table

            def main():
                return mean_wait(Table({"run_time": [1.0]}))
            """,
        )
        serial = project.lint(jobs=1)
        parallel = project.lint(jobs=2)
        assert [d.to_dict() for d in serial.all_diagnostics] == [
            d.to_dict() for d in parallel.all_diagnostics
        ]
        assert serial.files_checked == parallel.files_checked

    def test_default_jobs_follow_cpu_affinity(self, project, monkeypatch):
        """``jobs=0`` counts the CPUs the process may run on, not the host's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert engine._resolve_jobs(0) == 1
        assert engine._resolve_jobs(3) == 3

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU process started a worker pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        project.write("src/repro/core/a.py", "import random\n")
        project.write("src/repro/core/b.py", "import random\n")
        run = project.lint(jobs=0)
        assert run.files_analyzed == run.files_checked == 4
        assert rules_at(run, "src/repro/core/a.py", 1) == {"REP101"}


# -- one traversal per tree per phase -----------------------------------------

_TRAVERSED = """\
import time

import numpy as np

from .table import Table

_SEEN = []


def mean_run(jobs: Table, key):
    _SEEN.append(key)
    return jobs["run_tmie"].mean(), time.time()


def sampler(seed):
    def draw(n):
        return np.random.default_rng(seed).random(n)

    return draw


class Summary:
    def total(self, jobs: Table):
        return jobs["run_time"].sum()

    async def later(self):
        return None
"""


class TestOneTraversalPerPhase:
    """Each phase parses a file once, traverses its tree once, whatever
    the number of rules that read it, and drops the tree when done."""

    def test_each_tree_traversed_once_per_phase(self, project, monkeypatch):
        project.write("src/repro/core/stats.py", _TRAVERSED)
        project.write(
            "src/repro/experiments/run.py",
            """\
            from ..core.stats import mean_run
            from ..core.table import Table

            def main():
                return mean_run(Table({"run_time": [1.0]}), "k")
            """,
        )
        phase: list[tuple[str, str] | None] = [None]
        root_traversals: Counter = Counter()
        def_walks: Counter = Counter()
        trees: list[weakref.ref] = []
        real_parse, real_walk, real_fields = ast.parse, ast.walk, ast.iter_fields

        def in_phase(name, fn, relpath_of):
            def run_phase(*args, **kwargs):
                phase[0] = (name, relpath_of(*args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase[0] = None
                    gc.collect()
                    assert all(tree() is None for tree in trees), (
                        f"a tree outlived its {name} call"
                    )

            return run_phase

        def count_root(node):
            if phase[0] is not None and isinstance(node, ast.Module):
                root_traversals[phase[0]] += 1

        def iter_fields(node):
            # NodeVisitor.generic_visit starts here.
            count_root(node)
            return real_fields(node)

        def iter_child_nodes(node):
            # ast.walk (and the engine's own traversal) starts here.
            count_root(node)
            return (
                child
                for _name, value in real_fields(node)
                for child in (value if isinstance(value, list) else [value])
                if isinstance(child, ast.AST)
            )

        def walk(node):
            caller = sys._getframe(1).f_globals["__name__"]
            if (
                phase[0] is not None
                and phase[0][0] == "summarize"
                and caller == "repro.analysis.graph"
                and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ):
                def_walks[phase[0][1], node.name] += 1
            return real_walk(node)

        def parse(*args, **kwargs):
            tree = real_parse(*args, **kwargs)
            if phase[0] is not None:
                trees.append(weakref.ref(tree))
            return tree

        monkeypatch.setattr(ast, "iter_fields", iter_fields)
        monkeypatch.setattr(ast, "iter_child_nodes", iter_child_nodes)
        monkeypatch.setattr(ast, "walk", walk)
        monkeypatch.setattr(ast, "parse", parse)
        monkeypatch.setattr(
            engine,
            "summarize_module",
            in_phase("summarize", engine.summarize_module, lambda *a: a[2]),
        )
        monkeypatch.setattr(
            engine,
            "_analyze_file",
            in_phase("analyze", engine._analyze_file, lambda *a: a[0].relpath),
        )

        run = project.lint(jobs=1)

        files = sorted(
            path.relative_to(project.root).as_posix()
            for path in (project.root / "src").rglob("*.py")
        )
        assert run.files_analyzed == len(files) == 4
        assert len(trees) == 2 * len(files)  # one parse per file per phase
        assert root_traversals == Counter(
            {(name, rel): 1 for name in ("summarize", "analyze") for rel in files}
        )
        # The summarizer walks every def's subtree once, top-level,
        # nested and methods alike. (The CFG layer interprets function
        # bodies statement by statement on its own.)
        stats = "src/repro/core/stats.py"
        assert def_walks == Counter(
            {
                (stats, "mean_run"): 1,
                (stats, "sampler"): 1,
                (stats, "draw"): 1,
                (stats, "total"): 1,
                (stats, "later"): 1,
                ("src/repro/experiments/run.py", "main"): 1,
            }
        )
        # The rules still saw every node: REP201 and REP501 on line 12.
        assert rules_at(run, stats, 12) == {
            "REP201",
            "REP501",
        }


# -- SARIF reporter -----------------------------------------------------------

#: Trimmed-down SARIF 2.1.0 schema: the structural subset repro-lint
#: emits, with the spec's cardinality and type constraints preserved.
SARIF_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "$schema": {"type": "string", "format": "uri"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": "string"
                                                            }
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarifReporter:
    def _run_with_findings(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            import random

            def f():
                return random.random()
            """,
        )
        return project.lint()

    def test_sarif_validates_against_schema(self, project):
        jsonschema = pytest.importorskip("jsonschema")
        run = self._run_with_findings(project)
        log = json.loads(render_sarif(run))
        jsonschema.validate(log, SARIF_SCHEMA)

    def test_sarif_results_match_diagnostics(self, project):
        run = self._run_with_findings(project)
        log = json.loads(render_sarif(run))
        results = log["runs"][0]["results"]
        assert len(results) == len(run.all_diagnostics)
        for result, diag in zip(results, run.all_diagnostics):
            assert result["ruleId"] == diag.rule_id
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] == diag.line
            assert region["startColumn"] == diag.col + 1  # SARIF is 1-based
        rule_ids = {
            rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {r["ruleId"] for r in results} <= rule_ids

    def test_sarif_counts_surfaced(self, project):
        run = self._run_with_findings(project)
        log = json.loads(render_sarif(run))
        props = log["runs"][0]["properties"]
        assert props["filesChecked"] == run.files_checked
        assert props["filesAnalyzed"] == run.files_analyzed


# -- graph unit coverage ------------------------------------------------------


class TestProjectGraph:
    def _graph(self, sources: dict[str, str]):
        summaries = {}
        for relpath, src in sources.items():
            module = (
                relpath[len("src/") :]
                .removesuffix(".py")
                .removesuffix("/__init__")
                .replace("/", ".")
            )
            summaries[relpath] = summarize_module(
                textwrap.dedent(src), module, relpath, "repro"
            )
        return build_project_graph(summaries, "repro")

    def test_import_closure_is_transitive(self):
        graph = self._graph(
            {
                "src/repro/core/base.py": "X = 1\n",
                "src/repro/core/mid.py": "from .base import X\n",
                "src/repro/synth/top.py": "from ..core.mid import X\n",
            }
        )
        assert graph.import_closure("repro.synth.top") == {
            "repro.core.mid",
            "repro.core.base",
        }
        assert graph.dependents("repro.core.base") == {
            "repro.core.mid",
            "repro.synth.top",
        }

    def test_resolve_function_through_reexport(self):
        graph = self._graph(
            {
                "src/repro/core/__init__.py": "from .stats import f\n",
                "src/repro/core/stats.py": "def f(jobs):\n    return jobs\n",
            }
        )
        fn = graph.resolve_function("repro.core.f")
        assert fn is not None
        assert fn.qualname == "repro.core.stats.f"

    def test_outside_package_summary_reads_imports_only(self):
        # Rules read only the imports of a file outside the package, so
        # its summary carries those and nothing else.
        source = """\
        import numpy as np
        from repro.core import table

        def helper(seed):
            return np.random.default_rng(seed)
        """
        summary = summarize_module(
            textwrap.dedent(source), None, "tests/test_x.py", "repro"
        )
        assert [site.module for site in summary.import_sites] == [
            "numpy",
            "repro.core",
        ]
        assert summary.exports == {"np": "numpy", "table": "repro.core.table"}
        assert summary.imports == ("repro.core", "repro.core.table")
        assert summary.functions == {}
        assert summary.constructions == ()
        assert summary.lifecycle is None

    def test_conditionally_defined_function_summarized_safely(self):
        graph = self._graph(
            {
                "src/repro/core/m.py": """\
                try:
                    import numpy as np

                    def make(seed):
                        return np.random.default_rng(seed)
                except ImportError:
                    make = None
                """,
            }
        )
        # The nested definition is walked in its own scope (no crash,
        # no top-level registration).
        assert "make" not in graph.modules["repro.core.m"].functions
