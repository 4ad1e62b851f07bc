"""Tests for reprolint's crash-consistency CFG analysis (PR 10).

Covers the per-function abstract interpreter in
:mod:`repro.analysis.cfg` (resource-state lattice, exception and
early-return paths, ownership escape), the three flow rules built on it
(REP801 atomic-publish, REP802 fsync-ordering, REP803
resource-lifecycle), the durable-roots scoping, the cross-function
lifecycle summaries (callee publish helpers, caller-state incoming
facts), the incremental cache's re-keying when a caller edit changes a
callee's incoming path states, --jobs output parity, SARIF evidence
chains, and a mutant gate proving each protocol step is load-bearing.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.cli import explain_rule
from repro.analysis.reporters import render_sarif

MINI_PYPROJECT = """\
[project]
name = "repro"

[tool.reprolint]
exclude = ["*.egg-info/*", "*__pycache__*"]
durable-roots = ["repro.core.store", "repro.core.writer"]

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


def only(run, rule_id: str):
    return [d for d in run.all_diagnostics if d.rule_id == rule_id]


def in_file(run, rule_id: str, relpath: str):
    return [d for d in only(run, rule_id) if d.path == relpath]


# -- REP801: atomic publish ---------------------------------------------------


class TestAtomicPublish:
    def test_in_place_write_to_durable_path_fails(self, project):
        project.write(
            "src/repro/core/store.py",
            """\
            import json

            def save(path, payload):
                with open(path, "w") as fh:
                    fh.write(json.dumps(payload))
            """,
        )
        [diag] = only(project.lint(), "REP801")
        assert diag.path == "src/repro/core/store.py"
        assert "publish protocol" in diag.message

    def test_same_code_outside_durable_roots_passes(self, project):
        # The rule is scoped: sloppy writes to scratch artifacts in
        # non-durable modules are not crash-consistency defects.
        project.write(
            "src/repro/apps/report.py",
            """\
            import json

            def save(path, payload):
                with open(path, "w") as fh:
                    fh.write(json.dumps(payload))
            """,
        )
        assert not only(project.lint(), "REP801")

    def test_temp_sibling_then_rename_passes(self, project):
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.rename(tmp, path)
                fd = os.open(os.path.dirname(path), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
        )
        run = project.lint()
        assert not only(run, "REP801")
        assert not only(run, "REP802")

    def test_write_that_stays_temp_passes(self, project):
        # A scratch file that is never published is not a durable
        # artifact; only in-place writes to real destinations fire.
        project.write(
            "src/repro/core/store.py",
            """\
            def stage(path, data):
                with open(path + ".tmp", "w") as fh:
                    fh.write(data)
            """,
        )
        assert not only(project.lint(), "REP801")


# -- REP802: fsync ordering ---------------------------------------------------


class TestFsyncOrder:
    def test_rename_of_unsynced_payload_fails(self, project):
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                os.rename(tmp, path)
                fd = os.open(os.path.dirname(path), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
        )
        [diag] = only(project.lint(), "REP802")
        assert diag.path == "src/repro/core/store.py"
        assert "fsync" in diag.message
        # The evidence chain points at the un-synced write site.
        assert diag.related
        assert any("written here" in note for _line, note in diag.related)

    def test_fsync_after_rename_is_still_wrong(self, project):
        # The ordering matters: syncing the payload once it is already
        # visible under the final name does not close the crash window.
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def save(path, data):
                tmp = path + ".tmp"
                fh = open(tmp, "w")
                fh.write(data)
                os.rename(tmp, path)
                os.fsync(fh.fileno())
                fh.close()
                fd = os.open(os.path.dirname(path), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
        )
        assert only(project.lint(), "REP802")

    def test_missing_parent_dir_fsync_fails(self, project):
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.rename(tmp, path)
            """,
        )
        [diag] = only(project.lint(), "REP802")
        assert "parent directory" in diag.message

    def test_callee_publish_helper_counts(self, project):
        # The whole protocol lives in a helper; the caller's rename
        # obligations are discharged by the callee's summary.
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def _fsync_file(path):
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

            def publish(tmp, dst):
                _fsync_file(tmp)
                os.rename(tmp, dst)
                fd = os.open(os.path.dirname(dst), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
        )
        project.write(
            "src/repro/core/writer.py",
            """\
            from .store import publish

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                publish(tmp, path)
            """,
        )
        run = project.lint()
        assert not only(run, "REP801")
        assert not only(run, "REP802")

    def test_callee_rename_without_fsync_fails_at_call_site(self, project):
        # The helper renames but never syncs; the caller hands it a
        # freshly written payload, so the call site is the defect.
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def publish(tmp, dst):
                os.rename(tmp, dst)
                fd = os.open(os.path.dirname(dst), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
        )
        project.write(
            "src/repro/core/writer.py",
            """\
            from .store import publish

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                publish(tmp, path)
            """,
        )
        run = project.lint()
        assert in_file(run, "REP802", "src/repro/core/writer.py")


# -- REP803: resource lifecycle -----------------------------------------------


class TestResourceLifecycle:
    def test_unclosed_handle_fails(self, project):
        project.write(
            "src/repro/apps/report.py",
            """\
            def head(path):
                fh = open(path)
                line = fh.readline()
                return line
            """,
        )
        [diag] = only(project.lint(), "REP803")
        assert diag.path == "src/repro/apps/report.py"
        assert "not released" in diag.message

    def test_with_block_passes(self, project):
        project.write(
            "src/repro/apps/report.py",
            """\
            def head(path):
                with open(path) as fh:
                    return fh.readline()
            """,
        )
        assert not only(project.lint(), "REP803")

    def test_try_finally_close_passes(self, project):
        project.write(
            "src/repro/apps/report.py",
            """\
            def head(path):
                fh = open(path)
                try:
                    return fh.readline()
                finally:
                    fh.close()
            """,
        )
        assert not only(project.lint(), "REP803")

    def test_exception_path_leak_fails_with_evidence(self, project):
        # Closed on the straight-line path, leaked if readline raises.
        project.write(
            "src/repro/apps/report.py",
            """\
            def head(path):
                fh = open(path)
                line = fh.readline()
                fh.close()
                return line
            """,
        )
        [diag] = only(project.lint(), "REP803")
        assert "exception" in diag.message
        assert diag.related
        assert any(
            "leave the function" in note for _line, note in diag.related
        )

    def test_returned_handle_is_callers_problem(self, project):
        project.write(
            "src/repro/apps/report.py",
            """\
            def opened(path):
                return open(path)
            """,
        )
        assert not only(project.lint(), "REP803")

    def test_handle_stored_on_self_passes(self, project):
        project.write(
            "src/repro/apps/report.py",
            """\
            class Reader:
                def __init__(self, path):
                    self._fh = open(path)
            """,
        )
        assert not only(project.lint(), "REP803")

    def test_handle_passed_to_unknown_callee_passes(self, project):
        # Conservative silence: an unresolved callee may take ownership.
        project.write(
            "src/repro/apps/report.py",
            """\
            from contextlib import ExitStack

            def head(path, stack):
                fh = stack.enter_context(open(path))
                return fh.readline()
            """,
        )
        assert not only(project.lint(), "REP803")

    def test_loop_open_close_passes(self, project):
        project.write(
            "src/repro/apps/report.py",
            """\
            def heads(paths):
                out = []
                for path in paths:
                    fh = open(path)
                    try:
                        out.append(fh.readline())
                    finally:
                        fh.close()
                return out
            """,
        )
        assert not only(project.lint(), "REP803")

    def test_loop_close_skipped_on_exception_fails(self, project):
        # Open/use/close straight-lined inside a loop: an exception in
        # the use leaks the current iteration's handle.
        project.write(
            "src/repro/apps/report.py",
            """\
            def heads(paths):
                out = []
                for path in paths:
                    fh = open(path)
                    out.append(fh.readline())
                    fh.close()
                return out
            """,
        )
        [diag] = only(project.lint(), "REP803")
        assert "exception" in diag.message

    def test_returned_expression_escapes_receiver(self, project):
        # `return fh.readline()` hands every name in the returned
        # expression to the caller as far as the analysis can tell;
        # conservative silence, not a finding.
        project.write(
            "src/repro/apps/report.py",
            """\
            def head(path):
                fh = open(path)
                return fh.readline()
            """,
        )
        assert not only(project.lint(), "REP803")

    def test_tests_are_exempt(self, project):
        project.write(
            "src/repro/apps/test_report.py",
            """\
            def test_head(tmp_path):
                fh = open(tmp_path / "x")
                assert fh.readline() == ""
            """,
        )
        assert not only(project.lint(), "REP803")


# -- rule selection and explain -----------------------------------------------


class TestRuleSelection:
    LEAKY = """\
    def head(path):
        fh = open(path)
        line = fh.readline()
        return line
    """

    def test_select_narrows(self, project):
        project.write("src/repro/apps/report.py", self.LEAKY)
        run = project.lint(select=("REP803",))
        assert only(run, "REP803")
        run = project.lint(select=("REP801",))
        assert not run.all_diagnostics

    def test_ignore_drops(self, project):
        project.write("src/repro/apps/report.py", self.LEAKY)
        assert not project.lint(ignore=("REP803",)).all_diagnostics

    @pytest.mark.parametrize("rule", ["REP801", "REP802", "REP803"])
    def test_explain_has_doc_and_example(self, rule):
        text = explain_rule(rule)
        assert rule in text
        assert "fsync" in text or "close" in text or "release" in text


# -- caching ------------------------------------------------------------------


class TestLifecycleCaching:
    def test_warm_run_reanalyzes_nothing(self, project, tmp_path):
        project.write(
            "src/repro/apps/report.py",
            """\
            def head(path):
                fh = open(path)
                line = fh.readline()
                return line
            """,
        )
        cache = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache)
        assert only(cold, "REP803")
        warm = project.lint(cache_dir=cache)
        assert warm.files_analyzed == 0
        assert warm.files_cached == warm.files_checked
        assert [d.to_dict() for d in warm.all_diagnostics] == [
            d.to_dict() for d in cold.all_diagnostics
        ]

    def test_caller_edit_rekeys_callee_verdict(self, project, tmp_path):
        # store.py does not import writer.py, so the import closure
        # alone would serve a stale REP802 verdict for the helper; the
        # lifecycle-facts fingerprint must re-key it when the caller's
        # handed-over path state changes.
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def publish(src, dst):
                os.rename(src, dst)
                fd = os.open(os.path.dirname(dst), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
        )
        project.write(
            "src/repro/core/writer.py",
            """\
            from .store import publish

            def save(path, data):
                staging = path + "-stage"
                with open(staging, "w") as fh:
                    fh.write(data)
                publish(staging, path)
            """,
        )
        cache = tmp_path / "lint-cache"
        cold = project.lint(cache_dir=cache)
        assert in_file(cold, "REP802", "src/repro/core/store.py")
        # The caller now syncs before handing over; the helper's rename
        # of an already-fsynced payload is fine.
        project.write(
            "src/repro/core/writer.py",
            """\
            import os

            from .store import publish

            def save(path, data):
                staging = path + "-stage"
                with open(staging, "w") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                publish(staging, path)
            """,
        )
        warm = project.lint(cache_dir=cache)
        assert not in_file(warm, "REP802", "src/repro/core/store.py")
        # Both the edited caller and the re-keyed callee were re-run.
        assert warm.files_analyzed >= 2


# -- parallel parity and SARIF ------------------------------------------------


class TestOutputs:
    def test_parallel_output_matches_serial(self, project):
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                os.rename(tmp, path)
            """,
        )
        project.write(
            "src/repro/apps/report.py",
            """\
            def head(path):
                fh = open(path)
                line = fh.readline()
                return line
            """,
        )
        serial = project.lint(jobs=1)
        parallel = project.lint(jobs=2)
        assert serial.all_diagnostics
        assert [d.to_dict() for d in serial.all_diagnostics] == [
            d.to_dict() for d in parallel.all_diagnostics
        ]
        assert render_sarif(serial) == render_sarif(parallel)

    def test_sarif_carries_rules_and_evidence_chain(self, project):
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                os.rename(tmp, path)
                fd = os.open(os.path.dirname(path), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
        )
        import json

        run = project.lint()
        sarif = json.loads(render_sarif(run))
        rule_ids = {
            r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {"REP801", "REP802", "REP803"} <= rule_ids
        results = [
            r
            for r in sarif["runs"][0]["results"]
            if r["ruleId"] == "REP802"
        ]
        assert results
        # The write-site evidence rides along as relatedLocations.
        related = results[0].get("relatedLocations")
        assert related
        assert all(
            loc["physicalLocation"]["region"]["startLine"] > 0
            for loc in related
        )

    def test_diagnostic_related_roundtrips(self, project, tmp_path):
        # The warm run serves the cold run's findings from the lint
        # cache, evidence chain included, without analyzing the file.
        project.write(
            "src/repro/core/store.py",
            """\
            import os

            def save(path, data):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write(data)
                os.rename(tmp, path)
            """,
        )
        cache = tmp_path / "lint-cache"
        cold = only(project.lint(cache_dir=cache), "REP802")
        assert any(d.related for d in cold)
        warm_run = project.lint(cache_dir=cache)
        assert warm_run.files_analyzed == 0
        assert only(warm_run, "REP802") == cold


# -- mutant gate --------------------------------------------------------------

GOOD_STORE = """\
import os


def fsync_file(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(tmp, dst):
    fsync_file(tmp)
    os.rename(tmp, dst)
    fsync_dir(os.path.dirname(dst))


def save(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    publish(tmp, path)
"""

#: (name, original snippet, mutated snippet, rule the gate must trip).
MUTANTS = [
    (
        "drop-payload-fsync",
        "def publish(tmp, dst):\n    fsync_file(tmp)\n    os.rename",
        "def publish(tmp, dst):\n    os.rename",
        "REP802",
    ),
    (
        "drop-parent-dir-fsync",
        "    fsync_dir(os.path.dirname(dst))\n",
        "",
        "REP802",
    ),
    (
        "drop-fd-close",
        "def fsync_file(path):\n    fd = os.open(path, os.O_RDONLY)\n"
        "    try:\n        os.fsync(fd)\n    finally:\n        os.close(fd)",
        "def fsync_file(path):\n    fd = os.open(path, os.O_RDONLY)\n"
        "    os.fsync(fd)",
        "REP803",
    ),
    (
        "bypass-temp-rename",
        'def save(path, data):\n    tmp = path + ".tmp"\n'
        '    with open(tmp, "w") as fh:\n        fh.write(data)\n'
        "    publish(tmp, path)",
        'def save(path, data):\n    with open(path, "w") as fh:\n'
        "        fh.write(data)",
        "REP801",
    ),
]


class TestMutantGate:
    """Deleting any single protocol step must produce a diagnostic.

    This is the soundness gate for the whole layer: a checker that
    stays quiet when the fsync, the rename discipline, or the close is
    removed would also stay quiet on the real regressions it exists to
    catch.
    """

    def test_intact_protocol_is_clean(self, project):
        project.write("src/repro/core/store.py", GOOD_STORE)
        run = project.lint()
        for rule in ("REP801", "REP802", "REP803"):
            assert not only(run, rule), rule

    @pytest.mark.parametrize(
        "name,old,new,rule", MUTANTS, ids=[m[0] for m in MUTANTS]
    )
    def test_mutant_is_caught(self, project, name, old, new, rule):
        assert old in GOOD_STORE, name
        mutated = GOOD_STORE.replace(old, new)
        assert mutated != GOOD_STORE, name
        project.write("src/repro/core/store.py", mutated)
        assert only(project.lint(), rule), name
