"""reprolint engine: discovery, parsing, whole-program dispatch.

The run proceeds in phases:

1. **collect + hash** — gather the target files, read each once and
   record its content hash (the currency of the incremental cache).
2. **summarize** — produce a picklable :class:`ModuleSummary` per file
   (cached by content hash; parallel with ``jobs > 1``), then assemble
   the :class:`~repro.analysis.graph.ProjectGraph` the flow-sensitive
   rules consult. A warm cache rebuilds the graph without parsing.
3. **analyze** — for each file whose diagnostics key (content hash +
   transitive-import-closure hashes + cross-module flow facts; see
   :mod:`repro.analysis.cache`) misses, parse, traverse the tree once
   and run the checkers over that traversal's node list, route
   findings through the suppression sink, then derive REP701
   (unused-suppression) from the sink's usage accounting. Cache hits
   skip the file entirely.

Each phase parses a file once and drops the tree when the file is
done: no tree is kept from the summarize phase for the analyze phase.

Suppression comments are parsed with the tokenizer so string literals
that merely contain the marker never suppress anything; a comment that
*starts* the ``reprolint:`` marker but does not form a well-shaped
``disable=<codes>`` directive is recorded as malformed and surfaced by
REP701 instead of being silently ignored. A file without the text
``reprolint`` is not tokenized at all.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from ..core.cpus import usable_cpus
from ..core.diskcache import fingerprint
from .cache import LintCache
from .config import LintConfig
from .diagnostics import Diagnostic, DiagnosticSink, Severity, sort_key
from .graph import (
    ModuleSummary,
    ProjectGraph,
    build_project_graph,
    summarize_module,
)
from .project import ProjectContext, build_project_context, find_project_root
from .registry import Checker, all_checkers

__all__ = ["FileContext", "lint_paths", "LintRun", "SuppressionSpec"]


@dataclass
class FileContext:
    """Everything a checker may consult about the file under analysis."""

    path: Path
    relpath: str  # project-relative posix path
    source: str
    tree: ast.Module
    project: ProjectContext
    #: This file's summary; rules read its import sites and alias map
    #: instead of the file's import statements.
    summary: ModuleSummary
    #: Whole-program graph over every linted file's summary.
    graph: ProjectGraph
    #: Every node of ``tree`` in the order ``ast.NodeVisitor`` visits
    #: them (depth-first preorder); rules iterate this instead of
    #: walking the tree again.
    nodes: list[ast.AST]
    module: str | None = None  # dotted module name, when resolvable
    is_test: bool = False

    @property
    def config(self) -> LintConfig:
        return self.project.config


@dataclass
class LintRun:
    """Outcome of one lint invocation."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[Diagnostic] = field(default_factory=list)
    #: Files whose checkers actually ran this invocation.
    files_analyzed: int = 0
    #: Files served wholesale from the incremental cache.
    files_cached: int = 0

    @property
    def all_diagnostics(self) -> list[Diagnostic]:
        return sorted(self.diagnostics + self.parse_errors, key=sort_key)

    @property
    def exit_code(self) -> int:
        return 1 if any(
            d.severity >= Severity.ERROR for d in self.all_diagnostics
        ) else 0


# -- suppression comments -----------------------------------------------------

_MARKER_RE = re.compile(r"#\s*reprolint\s*:\s*(?P<rest>.*)$")
_DISABLE_RE = re.compile(r"^disable\s*=\s*(?P<codes>.*)$")
_CODE_RE = re.compile(r"^(all|[A-Za-z][A-Za-z0-9_\-]*)$")


@dataclass(frozen=True)
class SuppressionSpec:
    """One parsed ``# reprolint: ...`` comment."""

    line: int
    codes: tuple[str, ...] = ()
    #: Human-readable defect when the directive is not well-shaped; a
    #: malformed spec suppresses nothing and REP701 reports it.
    malformed: str | None = None


def _parse_directive(line: int, comment: str) -> SuppressionSpec | None:
    match = _MARKER_RE.search(comment)
    if match is None:
        return None
    rest = match.group("rest").strip()
    directive = _DISABLE_RE.match(rest)
    if directive is None:
        word = rest.split("=", 1)[0].split()[0] if rest else ""
        if word == "disable":
            return SuppressionSpec(line, (), "missing '=' after 'disable'")
        if not rest:
            return SuppressionSpec(line, (), "missing directive")
        return SuppressionSpec(
            line, (), f"unknown directive {rest!r} (only 'disable=' is supported)"
        )
    raw = directive.group("codes").strip()
    if not raw:
        return SuppressionSpec(line, (), "empty rule list after 'disable='")
    codes: list[str] = []
    for part in (p.strip() for p in raw.split(",")):
        if not part:
            return SuppressionSpec(line, (), "empty rule id in code list")
        if not _CODE_RE.match(part):
            return SuppressionSpec(
                line, (), f"invalid rule id {part!r} (comma-separate rule ids)"
            )
        codes.append(part)
    return SuppressionSpec(line, tuple(codes), None)


def _parse_suppressions(source: str) -> list[SuppressionSpec]:
    """Parse every suppression comment in the file.

    Uses the tokenizer so string literals that merely *contain* the
    marker do not suppress anything; falls back to a per-line scan if
    the file does not tokenize. A source without the literal text
    ``reprolint``, which :data:`_MARKER_RE` needs, has no suppression
    comment and is not tokenized.
    """
    if "reprolint" not in source:
        return []
    specs: list[SuppressionSpec] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                spec = _parse_directive(tok.start[0], tok.string)
                if spec is not None:
                    specs.append(spec)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        specs = []
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "#" not in line:
                continue
            spec = _parse_directive(lineno, line[line.index("#") :])
            if spec is not None:
                specs.append(spec)
    return specs


def _suppression_table(specs: Iterable[SuppressionSpec]) -> dict[int, set[str]]:
    """line -> rule ids disabled there (malformed specs disable nothing)."""
    table: dict[int, set[str]] = {}
    for spec in specs:
        if spec.malformed is None and spec.codes:
            table.setdefault(spec.line, set()).update(spec.codes)
    return table


# -- file discovery -----------------------------------------------------------


def _module_name(relpath: str, config: LintConfig) -> str | None:
    """Derive ``repro.core.fit`` from ``src/repro/core/fit.py``."""
    parts = PurePosixPath(relpath).with_suffix("").parts
    for src_root in config.src_roots:
        root_parts = PurePosixPath(src_root).parts
        if parts[: len(root_parts)] == root_parts:
            mod_parts = parts[len(root_parts) :]
            if mod_parts and mod_parts[-1] == "__init__":
                mod_parts = mod_parts[:-1]
            return ".".join(mod_parts) if mod_parts else None
    return None


def _is_test_path(relpath: str) -> bool:
    name = PurePosixPath(relpath).name
    return (
        relpath.startswith(("tests/", "benchmarks/"))
        or "/tests/" in relpath
        or "/benchmarks/" in relpath
        or name.startswith(("test_", "conftest"))
    )


def _collect_files(paths: Sequence[Path], config: LintConfig, root: Path) -> list[Path]:
    files: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            relpath = _relpath(resolved, root)
            if config.path_excluded(relpath):
                continue
            files.append(resolved)
    return files


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class _FileInfo:
    """One collected file, read exactly once."""

    path: Path
    relpath: str
    source: str
    src_hash: str
    module: str | None
    is_test: bool


# -- fingerprints -------------------------------------------------------------


def _facts_fingerprint(
    project: ProjectContext, config: LintConfig, root: Path
) -> str:
    """Digest of every non-file input the checkers consult.

    Includes the on-disk listings REP401 reads directly (experiment
    modules, reference outputs), so deleting a results file re-keys the
    registry's diagnostics even though no linted file changed.
    """
    results_dir = root / config.results_dir
    experiments_dir = root / config.experiments_package
    return fingerprint(
        {
            "table_columns": tuple(sorted(project.table_columns)),
            "metrics_keys": tuple(sorted(project.metrics_keys)),
            "metrics_key_patterns": tuple(project.metrics_key_patterns),
            "experiment_ids": tuple(sorted(project.experiment_ids)),
            "registered_modules": tuple(sorted(project.registered_modules)),
            "results_files": tuple(
                sorted(p.name for p in results_dir.glob("*.txt"))
            )
            if results_dir.is_dir()
            else (),
            "experiment_modules": tuple(
                sorted(p.name for p in experiments_dir.glob("*.py"))
            )
            if experiments_dir.is_dir()
            else (),
        }
    )


def _diagnostics_key(
    info: _FileInfo,
    graph: ProjectGraph,
    module_hashes: dict[str, str],
    config_fp: str,
    facts_fp: str,
    worker_roots: tuple[str, ...] = (),
) -> str:
    closure: tuple[str, ...] = ()
    flow = "no-module"
    if info.module is not None:
        closure = tuple(
            module_hashes[mod]
            for mod in graph.import_closure(info.module)
            if mod in module_hashes
        )
        # Cross-module facts this file's diagnostics depend on that the
        # import closure does NOT cover, because they point *against*
        # import direction: schemas inferred from callers (REP202),
        # worker-reachability verdicts from shipping sites (REP103), and
        # incoming resource states met over call sites (REP801-REP803).
        flow = fingerprint(
            (
                graph.schemas_for_module(info.module),
                graph.effect_facts_for_module(info.module, worker_roots),
                graph.lifecycle_facts_for_module(info.module),
            )
        )
    return LintCache.diagnostics_key(
        config_fp, facts_fp, info.relpath, info.src_hash, closure, flow
    )


# -- per-file analysis --------------------------------------------------------


def _parse_error_payload(relpath: str, summary: ModuleSummary) -> dict:
    diag = Diagnostic(
        path=relpath,
        line=summary.parse_error_line,
        col=0,
        rule_id="REP000",
        message=f"could not parse file: {summary.parse_error}",
        hint="fix the syntax error or exclude the file",
    )
    return {"diags": [], "parse": [diag]}


def _is_payload(entry: object) -> bool:
    """True when a cached diagnostics entry is the payload this engine
    writes: ``diags`` and ``parse`` both lists of :class:`Diagnostic`.
    Anything else (another version's format) reads as a miss."""
    return isinstance(entry, dict) and all(
        isinstance(entry.get(part), list)
        and all(isinstance(diag, Diagnostic) for diag in entry[part])
        for part in ("diags", "parse")
    )


def _preorder(tree: ast.Module) -> list[ast.AST]:
    """Every node of ``tree`` in depth-first preorder, children in
    field order: the order ``ast.NodeVisitor`` visits them."""
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(list(ast.iter_child_nodes(node))))
    return nodes


def _analyze_file(
    info: _FileInfo,
    project: ProjectContext,
    graph: ProjectGraph,
    active: Sequence[Checker],
    known_rules: frozenset[str],
) -> dict:
    """Run every checker on one (parseable) file; returns the payload
    the incremental cache stores: its findings as :class:`Diagnostic`
    lists."""
    config = project.config
    tree = ast.parse(info.source, filename=str(info.path))
    specs = _parse_suppressions(info.source)
    sink = DiagnosticSink(suppressed=_suppression_table(specs))
    ctx = FileContext(
        path=info.path,
        relpath=info.relpath,
        source=info.source,
        tree=tree,
        project=project,
        summary=graph.files[info.relpath],
        graph=graph,
        nodes=_preorder(tree),
        module=info.module,
        is_test=info.is_test,
    )
    after_all: Checker | None = None
    for checker in active:
        if getattr(checker, "runs_after_all", False):
            after_all = checker
            continue
        if config.rule_excluded(checker.rule.id, info.relpath):
            continue
        for diag in checker.check(ctx):
            sink.emit(diag)
    if (
        after_all is not None
        and not info.is_test
        and not config.rule_excluded(after_all.rule.id, info.relpath)
    ):
        # Imported here: the checkers package pulls in this module.
        from .checkers.suppressions import suppression_diagnostics

        # REP701 candidates pass through the sink themselves, so a
        # disable=REP701 directive works like any suppression.
        for diag in suppression_diagnostics(
            info.relpath, specs, sink.used, known_rules
        ):
            sink.emit(diag)
    return {"diags": sink.items, "parse": []}


# -- worker-pool plumbing -----------------------------------------------------

_POOL_STATE: dict[str, object] = {}


def _pool_init(
    project: ProjectContext,
    graph: ProjectGraph,
    checker_ids: tuple[str, ...],
    known_rules: frozenset[str],
) -> None:
    by_id = {checker.rule.id: checker for checker in all_checkers()}
    _POOL_STATE["project"] = project
    _POOL_STATE["graph"] = graph
    _POOL_STATE["checkers"] = tuple(
        by_id[rule_id] for rule_id in checker_ids if rule_id in by_id
    )
    _POOL_STATE["known_rules"] = known_rules


def _pool_analyze(info: _FileInfo) -> tuple[str, dict]:
    payload = _analyze_file(
        info,
        _POOL_STATE["project"],  # type: ignore[arg-type]
        _POOL_STATE["graph"],  # type: ignore[arg-type]
        _POOL_STATE["checkers"],  # type: ignore[arg-type]
        _POOL_STATE["known_rules"],  # type: ignore[arg-type]
    )
    return info.relpath, payload


def _summarize_task(task: tuple[str, str | None, str, str]) -> ModuleSummary:
    source, module, relpath, package = task
    return summarize_module(source, module, relpath, package)


def _resolve_jobs(jobs: int) -> int:
    """``jobs``, or for ``0`` the number of CPUs this process may run on
    (:func:`~repro.core.cpus.usable_cpus`)."""
    return jobs if jobs > 0 else usable_cpus()


# -- the run ------------------------------------------------------------------


def _load_summaries(
    infos: Sequence[_FileInfo],
    config: LintConfig,
    cache: LintCache | None,
    config_fp: str,
    jobs: int,
) -> dict[str, ModuleSummary]:
    summaries: dict[str, ModuleSummary] = {}
    todo: list[_FileInfo] = []
    keys: dict[str, str] = {}
    for info in infos:
        if cache is not None:
            key = LintCache.summary_key(config_fp, info.relpath, info.src_hash)
            keys[info.relpath] = key
            hit = cache.get(key)
            if isinstance(hit, ModuleSummary):
                summaries[info.relpath] = hit
                continue
        todo.append(info)
    tasks = [(i.source, i.module, i.relpath, config.package) for i in todo]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_summarize_task, tasks, chunksize=8))
    else:
        results = [_summarize_task(task) for task in tasks]
    for info, summary in zip(todo, results):
        summaries[info.relpath] = summary
        if cache is not None:
            cache.put(keys[info.relpath], summary)
    return summaries


def lint_paths(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
    checkers: Sequence[Checker] | None = None,
    project: ProjectContext | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> LintRun:
    """Lint files/directories and return the collected diagnostics.

    ``root`` defaults to the nearest ancestor of the first path that
    contains a ``pyproject.toml`` (whose ``[tool.reprolint]`` section,
    if any, configures the run). ``jobs > 1`` parses and analyzes in a
    process pool (``jobs=0``: one per usable CPU); ``cache_dir`` enables
    the incremental cache, after which unchanged files are served
    without being re-analyzed. ``select`` narrows the run to exactly
    those rules; ``ignore`` drops rules on top of whatever the config
    enables. Both are folded into the effective config *before* its
    fingerprint is taken, so filtered runs key their own cache entries.
    """
    resolved_paths = [Path(p) for p in paths]
    if not resolved_paths:
        raise ValueError("lint_paths requires at least one path")
    root_path = (
        Path(root).resolve()
        if root is not None
        else find_project_root(resolved_paths[0].resolve())
    )
    if project is None:
        project = build_project_context(root_path)
    config = project.config
    if select or ignore:
        from dataclasses import replace

        from .registry import iter_rules

        known = frozenset(rule.id for rule in iter_rules())
        unknown = sorted(set((*select, *ignore)) - known)
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known rules: {', '.join(sorted(known))}"
            )
        config = replace(
            config,
            enable=tuple(select) if select else config.enable,
            ignore=tuple(dict.fromkeys((*config.ignore, *ignore))),
        )
        project = replace(project, config=config)
    custom_checkers = checkers is not None
    active = [
        checker
        for checker in (checkers if custom_checkers else all_checkers())
        if config.rule_enabled(checker.rule.id)
    ]
    # Ad-hoc checker instances may not survive pickling; stay serial.
    jobs = 1 if custom_checkers else _resolve_jobs(jobs)

    from .registry import iter_rules

    known_rules = frozenset(rule.id for rule in iter_rules()) | {"REP000"}

    cache = LintCache(cache_dir) if cache_dir is not None else None
    config_fp = fingerprint(config) if cache is not None else ""
    facts_fp = (
        _facts_fingerprint(project, config, root_path)
        if cache is not None
        else ""
    )

    run = LintRun()
    infos: list[_FileInfo] = []
    for file_path in _collect_files(resolved_paths, config, root_path):
        relpath = _relpath(file_path, root_path)
        try:
            raw = file_path.read_bytes()
            source = raw.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            run.parse_errors.append(
                Diagnostic(
                    path=relpath,
                    line=1,
                    col=0,
                    rule_id="REP000",
                    message=f"could not parse file: {exc}",
                    hint="fix the syntax error or exclude the file",
                )
            )
            continue
        infos.append(
            _FileInfo(
                path=file_path,
                relpath=relpath,
                source=source,
                src_hash=hashlib.sha256(raw).hexdigest(),
                module=_module_name(relpath, config),
                is_test=_is_test_path(relpath),
            )
        )

    summaries = _load_summaries(infos, config, cache, config_fp, jobs)
    graph = build_project_graph(
        {info.relpath: summaries[info.relpath] for info in infos},
        config.package,
    )
    module_hashes = {
        info.module: info.src_hash for info in infos if info.module
    }

    payloads: dict[str, dict] = {}
    diag_keys: dict[str, str] = {}
    pending: list[_FileInfo] = []
    for info in infos:
        if cache is not None:
            key = _diagnostics_key(
                info,
                graph,
                module_hashes,
                config_fp,
                facts_fp,
                config.worker_roots,
            )
            diag_keys[info.relpath] = key
            hit = cache.get(key)
            if _is_payload(hit):
                payloads[info.relpath] = hit
                run.files_cached += 1
                continue
        pending.append(info)

    pool_infos: list[_FileInfo] = []
    for info in pending:
        summary = summaries[info.relpath]
        if summary.parse_error is not None:
            payloads[info.relpath] = _parse_error_payload(info.relpath, summary)
            run.files_analyzed += 1
        else:
            pool_infos.append(info)
    if jobs > 1 and len(pool_infos) > 1:
        from concurrent.futures import ProcessPoolExecutor

        checker_ids = tuple(checker.rule.id for checker in active)
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_pool_init,
            initargs=(project, graph, checker_ids, known_rules),
        ) as pool:
            for relpath, payload in pool.map(
                _pool_analyze, pool_infos, chunksize=4
            ):
                payloads[relpath] = payload
                run.files_analyzed += 1
    else:
        for info in pool_infos:
            payloads[info.relpath] = _analyze_file(
                info, project, graph, active, known_rules
            )
            run.files_analyzed += 1
    if cache is not None:
        for info in pending:
            cache.put(diag_keys[info.relpath], payloads[info.relpath])

    for info in infos:
        payload = payloads[info.relpath]
        if payload["parse"]:
            run.parse_errors.extend(payload["parse"])
        else:
            run.files_checked += 1
        run.diagnostics.extend(payload["diags"])
    run.diagnostics.sort(key=sort_key)
    return run
