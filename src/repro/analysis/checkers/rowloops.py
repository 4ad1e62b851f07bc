"""REP502 — row-at-a-time Table iteration ban.

At paper scale (25M tasks, 12.5k machines) a Python loop over a table
column turns every analysis into the bottleneck — especially the
O(groups x rows) shape where each iteration re-filters the full table
(``table["key"] == value``), or the accumulation shape where each row is
``.append``-ed one at a time. The vectorized kernels in
:mod:`repro.core.kernels` replace both; this rule keeps the hot layers
(``repro.core``, ``repro.hostload``, ``repro.sim``) from growing new
scalar loops. Intentional scalar golden references are kept with a
``# reprolint: disable=REP502`` comment so the equivalence tests can
exercise them.

A loop (or comprehension) is flagged when it iterates a string-keyed
subscript like ``table["machine_id"]`` — directly or through
``enumerate``/``zip``/``sorted``/``set`` — and its body either compares
another string-keyed subscript with ``==``/``!=`` (the per-key filter
scan) or calls ``.append`` (row-at-a-time accumulation). Comprehensions
accumulate by construction, so iterating a column there is flagged
outright.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register

#: Packages where scalar row loops are banned (the hot analysis layers).
_SCOPED_PACKAGES = ("repro.core", "repro.hostload", "repro.sim")

#: Wrappers through which a column iterable is still a row loop.
_TRANSPARENT_CALLS = {"enumerate", "zip", "sorted", "reversed", "set", "list", "tuple"}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_column_ref(node: ast.expr) -> bool:
    """True for ``obj["name"]`` — a string-keyed column lookup."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    )


def _column_iterables(iter_node: ast.expr) -> list[ast.Subscript]:
    """Column lookups iterated by ``iter_node``, unwrapping enumerate/zip."""
    if _is_column_ref(iter_node):
        return [iter_node]
    if (
        isinstance(iter_node, ast.Call)
        and isinstance(iter_node.func, ast.Name)
        and iter_node.func.id in _TRANSPARENT_CALLS
    ):
        found: list[ast.Subscript] = []
        for arg in iter_node.args:
            found.extend(_column_iterables(arg))
        return found
    return []


def _body_does_row_work(body: list[ast.stmt]) -> bool:
    """True when the loop body re-filters a column or appends per row."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                operands = [node.left, *node.comparators]
                if any(_is_column_ref(operand) for operand in operands):
                    return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
            ):
                return True
    return False


@register(
    Rule(
        id="REP502",
        name="row-loop-ban",
        summary=(
            "no row-at-a-time Table iteration in core/hostload/sim; "
            "use the vectorized kernels (repro.core.kernels)"
        ),
    )
)
class RowLoopChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test:
            return
        module = ctx.module or ""
        if not any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in _SCOPED_PACKAGES
        ):
            return
        for node in ctx.nodes:
            if isinstance(node, ast.For):
                columns = _column_iterables(node.iter)
                if columns and _body_does_row_work(node.body):
                    yield self._diagnostic(ctx, node, columns[0])
            elif isinstance(node, _COMPREHENSIONS):
                for gen in node.generators:
                    columns = _column_iterables(gen.iter)
                    if columns:
                        yield self._diagnostic(ctx, node, columns[0])
                        break

    def _diagnostic(
        self, ctx: FileContext, node: ast.AST, column: ast.Subscript
    ) -> Diagnostic:
        name = column.slice.value  # type: ignore[union-attr]
        return Diagnostic(
            path=ctx.relpath,
            line=node.lineno,
            col=node.col_offset,
            rule_id=self.rule.id,
            message=(
                f"row-at-a-time iteration over column {name!r} "
                "in a hot analysis layer"
            ),
            hint=(
                "use repro.core.kernels (grouped_sort_split, "
                "pooled_level_durations, ...) or suppress if this is an "
                "intentional scalar golden reference"
            ),
        )
