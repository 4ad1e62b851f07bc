"""REP201 — schema contract.

``table["colunm"]`` typos fail at runtime, deep inside an experiment, or
— worse — silently when a stale column still exists. This rule resolves
string-literal subscripts against the trace schemas declared in
``repro/traces/schema.py`` at lint time.

Tracking is deliberately conservative: only variables that *provably*
hold a :class:`Table` are checked —

* parameters/variables annotated ``Table`` (or ``"Table"``),
* assignments from ``Table(...)``/``concat_tables(...)`` or the schema
  constructors (``gwa_table``, ``swf_table``, ...),
* assignments from table-transform methods (``select``, ``sort_by``,
  ``with_columns``, ``drop``, ``head``) on an already-tracked variable,
* assignments from calls to same-file functions annotated ``-> Table``.

Valid columns are the union of every ``*_SCHEMA`` dict, any columns the
file itself creates (``Table({...})`` keys, ``with_columns(...)``
keyword names), and ``extra-table-columns`` from the config.

The rule also checks experiment metrics reads: ``result.metrics["key"]``
(and ``m["fig4"]["key"]`` on mappings built from ``.metrics``) must name
a key some experiment actually writes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register

#: Callables whose result is a Table, regardless of the callee module.
_TABLE_FACTORIES = frozenset(
    {
        "Table",
        "concat_tables",
        "gwa_table",
        "swf_table",
        "grid_jobs_to_job_table",
    }
)

#: Table methods returning a Table.
_TABLE_METHODS = frozenset({"select", "sort_by", "with_columns", "drop", "head"})


def _annotation_is_table(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "Table"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Table"
    if isinstance(annotation, ast.Constant):
        return annotation.value == "Table"
    if isinstance(annotation, ast.BinOp):  # e.g. ``Table | None``
        return _annotation_is_table(annotation.left) or _annotation_is_table(
            annotation.right
        )
    return False


class _FileFacts:
    """Table variables and locally-made columns of one file.

    :meth:`scan` reads the file's nodes in preorder, the order an
    ``ast.NodeVisitor`` visits them, so every fact is recorded before
    the nodes under it are read.
    """

    def __init__(self) -> None:
        self.table_vars: set[str] = set()
        self.local_columns: set[str] = set()
        self.table_returning_funcs: set[str] = set()
        self.metric_map_vars: set[str] = set()

    def scan(self, nodes: list[ast.AST]) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._record_target(target, node.value)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and _annotation_is_table(
                    node.annotation
                ):
                    self.table_vars.add(node.target.id)
                elif node.value is not None:
                    self._record_target(node.target, node.value)
            elif isinstance(node, ast.Call):
                self._call(node)

    # -- which local functions return tables -------------------------------

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if _annotation_is_table(node.returns):
            self.table_returning_funcs.add(node.name)
        args = node.args
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            if _annotation_is_table(arg.annotation):
                self.table_vars.add(arg.arg)

    # -- assignments that mint table variables / local columns -------------

    def _value_is_table(self, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Name):
            return (
                func.id in _TABLE_FACTORIES
                or func.id in self.table_returning_funcs
            )
        if isinstance(func, ast.Attribute):
            if func.attr in _TABLE_FACTORIES:
                return True
            return (
                func.attr in _TABLE_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in self.table_vars
            )
        return False

    def _record_target(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name) and self._value_is_table(value):
            self.table_vars.add(target.id)
        if isinstance(target, ast.Name) and _is_metrics_dictcomp(value):
            self.metric_map_vars.add(target.id)

    # -- locally-created columns --------------------------------------------

    def _call(self, node: ast.Call) -> None:
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name in _TABLE_FACTORIES or name in _TABLE_METHODS:
            for kw in node.keywords:
                if kw.arg:
                    self.local_columns.add(kw.arg)
            for arg in node.args:
                if isinstance(arg, ast.Dict):
                    for key in arg.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            self.local_columns.add(key.value)


def _is_metrics_dictcomp(value: ast.expr) -> bool:
    """``{k: r.metrics for ...}`` — a mapping of metrics dicts."""
    return (
        isinstance(value, ast.DictComp)
        and isinstance(value.value, ast.Attribute)
        and value.value.attr == "metrics"
    )


def _str_subscript(node: ast.Subscript) -> str | None:
    if isinstance(node.slice, ast.Constant) and isinstance(
        node.slice.value, str
    ):
        return node.slice.value
    return None


@register(
    Rule(
        id="REP201",
        name="schema-contract",
        summary=(
            "string subscripts on Table objects must name declared schema "
            "columns; metrics reads must name keys an experiment writes"
        ),
    )
)
class SchemaContractChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        facts = _FileFacts()
        # Two scans so ``jobs = load()``-then-``jobs.select(...)`` chains
        # and forward uses of ``-> Table`` functions reach a fixpoint.
        facts.scan(ctx.nodes)
        facts.scan(ctx.nodes)

        allowed = (
            set(ctx.project.table_columns)
            | facts.local_columns
            | set(ctx.config.extra_table_columns)
        )
        metrics_keys = ctx.project.metrics_keys
        experiment_ids = ctx.project.experiment_ids

        for node in ctx.nodes:
            if not isinstance(node, ast.Subscript):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            key = _str_subscript(node)
            if key is None:
                continue
            base = node.value
            # table["column"]
            if isinstance(base, ast.Name) and base.id in facts.table_vars:
                if key not in allowed:
                    yield self._unknown_column(ctx, node, base.id, key, allowed)
            # result.metrics["key"]
            elif isinstance(base, ast.Attribute) and base.attr == "metrics":
                if metrics_keys and not ctx.project.is_known_metric(key):
                    yield self._unknown_metric(ctx, node, key)
            # m["fig4"]["key"] where m = {k: r.metrics for ...}
            elif (
                isinstance(base, ast.Subscript)
                and isinstance(base.value, ast.Name)
                and base.value.id in facts.metric_map_vars
            ):
                if metrics_keys and not ctx.project.is_known_metric(key):
                    yield self._unknown_metric(ctx, node, key)
                inner = _str_subscript(base)
                if (
                    inner is not None
                    and experiment_ids
                    and inner not in experiment_ids
                ):
                    yield Diagnostic(
                        path=ctx.relpath,
                        line=base.lineno,
                        col=base.col_offset,
                        rule_id=self.rule.id,
                        message=(
                            f"unknown experiment id {inner!r} in metrics "
                            "lookup"
                        ),
                        hint="use a key registered in experiments/registry.py",
                    )

    def _unknown_column(
        self,
        ctx: FileContext,
        node: ast.Subscript,
        var: str,
        key: str,
        allowed: set[str],
    ) -> Diagnostic:
        close = _closest(key, allowed)
        hint = (
            f"did you mean {close!r}?"
            if close
            else "declare it in a *_SCHEMA dict or extra-table-columns"
        )
        return Diagnostic(
            path=ctx.relpath,
            line=node.lineno,
            col=node.col_offset,
            rule_id=self.rule.id,
            message=f"unknown table column {key!r} (on {var!r})",
            hint=hint,
        )

    def _unknown_metric(
        self, ctx: FileContext, node: ast.Subscript, key: str
    ) -> Diagnostic:
        return Diagnostic(
            path=ctx.relpath,
            line=node.lineno,
            col=node.col_offset,
            rule_id=self.rule.id,
            message=f"metrics key {key!r} is never written by any experiment",
            hint="check the metrics dict of the producing experiment",
        )


def _closest(key: str, candidates: set[str]) -> str | None:
    """Cheap nearest-name suggestion (shared-prefix + length heuristic)."""
    best, best_score = None, 0.0
    for cand in candidates:
        prefix = 0
        for a, b in zip(key, cand):
            if a != b:
                break
            prefix += 1
        score = prefix / max(len(key), len(cand))
        if score > best_score:
            best, best_score = cand, score
    return best if best_score >= 0.5 else None
