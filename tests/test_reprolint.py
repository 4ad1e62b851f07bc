"""Tests for the reprolint static-analysis pass (repro.analysis)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.cli import main as lint_main
from repro.analysis.config import load_config
from repro.analysis.registry import all_checkers
from repro.analysis.reporters import render_json

REPO_ROOT = Path(__file__).resolve().parents[1]

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
experiments = 4
"""

MINI_SCHEMA = """\
JOB_TABLE_SCHEMA = {
    "job_id": "int64",
    "submit_time": "float64",
    "run_time": "float64",
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

        def lint(self, *relpaths: str):
            targets = [tmp_path / p for p in (relpaths or ("src",))]
            return lint_paths(targets, root=tmp_path)

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


class TestRngDiscipline:
    def test_flags_global_numpy_state(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            import numpy as np

            def f(seed):
                np.random.seed(seed)
                return np.random.rand(3)
            """,
        )
        run = project.lint()
        assert "REP101" in rules_at(run, "src/repro/core/m.py", 4)
        assert "REP101" in rules_at(run, "src/repro/core/m.py", 5)

    def test_flags_stdlib_random_and_unseeded_rng(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            import random
            import numpy as np

            def f():
                rng = np.random.default_rng()
                return random.random(), rng

            def g():
                import random as r
                from random import choice
                return r.random(), choice([1])
            """,
        )
        run = project.lint()
        assert "REP101" in rules_at(run, "src/repro/core/m.py", 1)
        assert "REP101" in rules_at(run, "src/repro/core/m.py", 5)
        # Imports inside a function body (the lazy-import idiom), an
        # aliased import and a from-import are each one finding.
        assert [
            d.line for d in run.all_diagnostics if d.rule_id == "REP101"
        ] == [1, 5, 9, 10]

    def test_passed_generator_is_clean(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            import numpy as np

            def f(rng: np.random.Generator, seed: int):
                child = np.random.default_rng(seed)
                return rng.uniform(0, 1, 5) + child.integers(0, 2, 5)
            """,
        )
        assert project.lint().all_diagnostics == []

    def test_tests_are_exempt(self, project):
        project.write("tests/test_m.py", "import random\n")
        assert project.lint("tests").all_diagnostics == []

    def test_suppression_comment(self, project):
        project.write(
            "src/repro/core/m.py",
            "import numpy as np\n"
            "x = np.random.rand(2)  # reprolint: disable=REP101\n",
        )
        assert project.lint().all_diagnostics == []


class TestSchemaContract:
    def test_unknown_column_on_annotated_table(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            def f(jobs: "Table"):
                return jobs["submit_tmie"]
            """,
        )
        run = project.lint()
        diags = [d for d in run.all_diagnostics if d.rule_id == "REP201"]
        assert len(diags) == 1
        assert diags[0].line == 2
        assert "submit_tmie" in diags[0].message
        assert "submit_time" in diags[0].hint  # did-you-mean

    def test_known_and_locally_created_columns_pass(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            from .table import Table

            def f(jobs: Table):
                out = jobs.with_columns(wait_share=jobs["run_time"])
                return out["wait_share"], jobs["submit_time"]
            """,
        )
        assert project.lint().all_diagnostics == []

    def test_table_constructor_dict_keys_are_columns(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            from .table import Table

            def f(values):
                t = Table({"custom_col": values})
                return t["custom_col"], t["job_id"], t["missing_col"]
            """,
        )
        run = project.lint()
        diags = [d for d in run.all_diagnostics if d.rule_id == "REP201"]
        assert [d.line for d in diags] == [5]
        assert "missing_col" in diags[0].message

    def test_untracked_variables_are_ignored(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            def f(mapping):
                return mapping["anything_goes"]
            """,
        )
        assert project.lint().all_diagnostics == []

    def test_metrics_key_check(self, project):
        project.write(
            "src/repro/experiments/exp1.py",
            """\
            def run():
                return Result(metrics={"total_jobs": 1})
            """,
        )
        project.write(
            "src/repro/experiments/consumer.py",
            """\
            def read(result):
                good = result.metrics["total_jobs"]
                bad = result.metrics["total_jbos"]
                return good, bad
            """,
        )
        run = project.lint()
        diags = [d for d in run.all_diagnostics if d.rule_id == "REP201"]
        assert [d.line for d in diags] == [3]
        assert "total_jbos" in diags[0].message


class TestLayering:
    def test_upward_import_flagged(self, project):
        cases = {
            "from ..sim.engine import Engine\n": 1,
            # The lazy-import idiom: an import inside a function body.
            "def f():\n    from ..sim.engine import Engine\n": 2,
            # ``from repro import sim`` imports the layer module by name.
            "from repro import sim\n": 1,
        }
        for source, line in cases.items():
            project.write("src/repro/core/m.py", source)
            run = project.lint()
            diags = [d for d in run.all_diagnostics if d.rule_id == "REP301"]
            assert len(diags) == 1, source
            assert diags[0].path == "src/repro/core/m.py"
            assert diags[0].line == line
            assert "'sim'" in diags[0].message

    def test_sibling_layer_flagged(self, project):
        project.write(
            "src/repro/synth/m.py", "import repro.hostload.series\n"
        )
        run = project.lint()
        assert [d.rule_id for d in run.all_diagnostics] == ["REP301"]
        assert "sibling" in run.all_diagnostics[0].message

    def test_downward_and_same_layer_imports_pass(self, project):
        project.write(
            "src/repro/sim/m.py",
            """\
            from ..core.table import Table
            from ..synth.machines import generate_machines
            from .engine import Engine
            """,
        )
        assert project.lint().all_diagnostics == []


class TestRegistryCompleteness:
    def _registry(self, project, body: str):
        return project.write("src/repro/experiments/registry.py", body)

    def test_unimported_experiment_module_flagged(self, project):
        project.write("src/repro/experiments/fig1_thing.py", "def run():\n    pass\n")
        self._registry(project, "EXPERIMENTS = {}\n")
        run = project.lint()
        diags = [d for d in run.all_diagnostics if d.rule_id == "REP401"]
        assert any("fig1_thing" in d.message for d in diags)

    def test_imported_but_unregistered_flagged(self, project):
        project.write("src/repro/experiments/fig1_thing.py", "def run():\n    pass\n")
        self._registry(
            project,
            "from . import fig1_thing\n\nEXPERIMENTS = {}\n",
        )
        run = project.lint()
        diags = [d for d in run.all_diagnostics if d.rule_id == "REP401"]
        assert any("no EXPERIMENTS entry" in d.message for d in diags)

    def test_missing_reference_output_flagged(self, project):
        project.write("src/repro/experiments/fig1_thing.py", "def run():\n    pass\n")
        self._registry(
            project,
            "from . import fig1_thing\n\n"
            'EXPERIMENTS = {"fig1": fig1_thing.run}\n',
        )
        run = project.lint()
        diags = [d for d in run.all_diagnostics if d.rule_id == "REP401"]
        assert any("fig1.txt" in d.message for d in diags)

    def test_complete_registry_is_clean(self, project):
        project.write("src/repro/experiments/fig1_thing.py", "def run():\n    pass\n")
        self._registry(
            project,
            "from . import fig1_thing\n\n"
            'EXPERIMENTS = {"fig1": fig1_thing.run}\n',
        )
        project.write("benchmarks/results/fig1.txt", "== fig1 ==\n")
        assert project.lint().all_diagnostics == []


class TestWallClockBan:
    def test_time_and_datetime_flagged(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
        )
        run = project.lint()
        assert rules_at(run, "src/repro/core/m.py", 5) == {"REP501"}
        diags = [d for d in run.all_diagnostics if d.rule_id == "REP501"]
        assert len(diags) == 2

    def test_simulated_clock_is_clean(self, project):
        project.write(
            "src/repro/sim/m.py",
            """\
            def advance(clock: float, dt: float) -> float:
                return clock + dt
            """,
        )
        assert project.lint().all_diagnostics == []


class TestRowLoopBan:
    def test_filter_scan_loop_flagged(self, project):
        project.write(
            "src/repro/hostload/m.py",
            """\
            def split(usage, machines):
                out = {}
                for mid in machines["machine_id"]:
                    out[mid] = usage.select(usage["machine_id"] == mid)
                return out
            """,
        )
        run = project.lint()
        assert rules_at(run, "src/repro/hostload/m.py", 3) == {"REP502"}

    def test_row_append_loop_flagged(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            def collect(table):
                rows = []
                for time, value in zip(table["time"], table["cpu_usage"]):
                    rows.append((time, value))
                return rows
            """,
        )
        run = project.lint()
        assert rules_at(run, "src/repro/core/m.py", 3) == {"REP502"}

    def test_column_comprehension_flagged(self, project):
        project.write(
            "src/repro/sim/m.py",
            """\
            def scale(table):
                return [v * 2.0 for v in table["cpu_usage"]]
            """,
        )
        run = project.lint()
        assert rules_at(run, "src/repro/sim/m.py", 2) == {"REP502"}

    def test_vectorized_and_bounded_loops_are_clean(self, project):
        # Per-group loops with O(1) bodies (no re-filtering, no append)
        # and plain vectorized column math must pass.
        project.write(
            "src/repro/hostload/m.py",
            """\
            def build(machines, cols):
                out = {}
                for i, mid in enumerate(machines["machine_id"]):
                    out[int(mid)] = cols["time"][i]
                return out

            def relative(table):
                return table["cpu_usage"] / table["cpu_capacity"]
            """,
        )
        assert project.lint().all_diagnostics == []

    def test_unscoped_layers_and_suppressions_exempt(self, project):
        project.write(
            "src/repro/experiments/m.py",
            """\
            def rows(table):
                return [v for v in table["wall_s"]]
            """,
        )
        project.write(
            "src/repro/core/golden.py",
            """\
            def scalar_reference(usage, machines):
                out = []
                for mid in machines["machine_id"]:  # reprolint: disable=REP502
                    out.append((usage["machine_id"] == mid).sum())
                return out
            """,
        )
        run = project.lint("src/repro/experiments/m.py", "src/repro/core/golden.py")
        assert run.all_diagnostics == []


class TestSilentExcept:
    def test_flags_silent_broad_handlers_in_scope(self, project):
        project.write(
            "src/repro/experiments/m.py",
            """\
            def load(path):
                try:
                    return path.read_text()
                except Exception:
                    pass

            def bare(path):
                try:
                    return path.stat()
                except:  # noqa: E722
                    ...
            """,
        )
        project.write(
            "src/repro/core/m.py",
            """\
            def touch(path):
                try:
                    path.touch()
                except (OSError, BaseException):
                    pass
            """,
        )
        run = project.lint()
        assert rules_at(run, "src/repro/experiments/m.py", 4) == {"REP601"}
        assert rules_at(run, "src/repro/experiments/m.py", 10) == {"REP601"}
        assert rules_at(run, "src/repro/core/m.py", 4) == {"REP601"}

    def test_narrow_or_observable_handlers_are_clean(self, project):
        project.write(
            "src/repro/core/m.py",
            """\
            def touch(path, stats):
                try:
                    path.touch()
                except OSError:
                    pass

            def classify(fn, stats):
                try:
                    fn()
                except Exception:
                    stats.errors += 1
            """,
        )
        assert project.lint().all_diagnostics == []

    def test_out_of_scope_and_suppressed_are_exempt(self, project):
        project.write(
            "src/repro/traces/m.py",
            """\
            def best_effort(fn):
                try:
                    fn()
                except Exception:
                    pass
            """,
        )
        project.write(
            "src/repro/experiments/s.py",
            """\
            def best_effort(fn):
                try:
                    fn()
                except Exception:  # reprolint: disable=REP601
                    pass
            """,
        )
        run = project.lint("src/repro/traces/m.py", "src/repro/experiments/s.py")
        assert run.all_diagnostics == []


class TestFrameworkPlumbing:
    def test_every_rule_registered_once(self):
        rules = [c.rule.id for c in all_checkers()]
        assert rules == sorted(rules)
        assert {
            "REP101",
            "REP201",
            "REP301",
            "REP401",
            "REP501",
            "REP502",
            "REP601",
        } <= set(rules)

    def test_config_round_trip(self, project):
        cfg = load_config(project.root)
        assert cfg.layers["sim"] == 3
        assert cfg.rule_enabled("REP101")

    def test_fallback_toml_parser_matches_tomllib(self):
        # Python 3.10 has no tomllib; the built-in mini-parser must read
        # the real pyproject section identically.
        tomllib = pytest.importorskip("tomllib")
        from repro.analysis.config import _config_from_mapping, _fallback_parse

        text = (REPO_ROOT / "pyproject.toml").read_text()
        via_fallback = _config_from_mapping(_fallback_parse(text))
        via_tomllib = _config_from_mapping(
            tomllib.loads(text)["tool"]["reprolint"]
        )
        assert via_fallback == via_tomllib

    def test_disabled_rule_does_not_run(self, project):
        project.write(
            "pyproject.toml",
            MINI_PYPROJECT.replace(
                "[tool.reprolint]",
                '[tool.reprolint]\nenable = ["REP501"]',
            ),
        )
        project.write("src/repro/core/m.py", "import random\n")
        assert project.lint().all_diagnostics == []

    def test_syntax_error_reported_not_crashing(self, project):
        project.write("src/repro/core/m.py", "def broken(:\n")
        run = project.lint()
        assert [d.rule_id for d in run.all_diagnostics] == ["REP000"]
        assert run.exit_code == 1

    def test_json_reporter_shape(self, project):
        project.write("src/repro/core/m.py", "import random\n")
        payload = json.loads(render_json(project.lint()))
        assert payload["exit_code"] == 1
        (diag,) = payload["diagnostics"]
        assert diag["rule"] == "REP101"
        assert diag["path"] == "src/repro/core/m.py"
        assert diag["line"] == 1

    def test_cli_exit_codes(self, project, capsys):
        clean = project.root / "src"
        assert lint_main(["--root", str(project.root), str(clean)]) == 0
        project.write("src/repro/core/m.py", "import random\n")
        assert lint_main(["--root", str(project.root), str(clean)]) == 1
        out = capsys.readouterr().out
        assert "REP101" in out

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "REP101",
            "REP201",
            "REP301",
            "REP401",
            "REP501",
            "REP502",
            "REP601",
        ):
            assert rule_id in out


class TestRepositoryIsClean:
    """The gate: the real source tree must produce zero diagnostics."""

    def test_src_tree_is_clean(self):
        run = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert run.files_checked > 80
        clean = [d for d in run.all_diagnostics]
        assert clean == [], "\n".join(d.location + " " + d.message for d in clean)
