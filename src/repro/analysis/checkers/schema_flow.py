"""REP202 — cross-module schema flow.

REP201 checks ``table["column"]`` against the *union* of every
``*_SCHEMA`` dict — the broadest schema any table anywhere could have.
This rule is the sharp version: it infers which schema actually *flows
into* each function from its call sites, across module boundaries, and
flags column reads that no caller can satisfy.

For every function the whole-program graph knows, and every parameter
that is used like a Table (annotated ``Table``, or only ever read via
string subscripts), the inferred input schema is the union of the
column sets carried by the argument at every resolved call site —
``Table({...})`` literals, ``with_columns`` extensions, and results of
functions whose return schema is derivable, followed through package
re-exports. The inference must be *complete* (at least one call site,
and a known column set at all of them) before the rule says anything;
a single opaque caller silences it. Columns the function itself adds
to the parameter (``t.with_columns(x=...)``) are always allowed.

The division of labour with REP201: REP201 fires on columns unknown to
the global schema universe (a lexical typo), REP202 on columns that
*do* exist somewhere but are absent from every schema reaching this
function (the right name flowing to the wrong table — invisible to any
per-file pass). For parameters REP201 cannot track (no ``Table``
annotation), REP202 checks the full access set.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register


@register(
    Rule(
        id="REP202",
        name="schema-flow",
        summary=(
            "column reads must be satisfiable by the schema inferred "
            "from the function's actual call sites, across modules"
        ),
    )
)
class SchemaFlowChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.module is None:
            return
        global_columns = set(ctx.project.table_columns) | set(
            ctx.config.extra_table_columns
        )
        for fn in ctx.summary.functions.values():
            for param in fn.table_params:
                inferred = ctx.graph.inferred_schema(fn.qualname, param)
                if inferred is None or not inferred.complete:
                    continue
                allowed = set(inferred.columns) | set(
                    fn.param_added.get(param, ())
                )
                annotated = param in fn.annotated_table_params
                for column, line, col in fn.param_accesses.get(param, ()):
                    if column in allowed:
                        continue
                    if annotated and column not in global_columns:
                        continue  # REP201 already reports the lexical typo
                    sites = inferred.call_sites
                    noun = "call site" if sites == 1 else "call sites"
                    yield Diagnostic(
                        path=ctx.relpath,
                        line=line,
                        col=col,
                        rule_id=self.rule.id,
                        message=(
                            f"column {column!r} (on {param!r}) is absent "
                            f"from every schema flowing into "
                            f"{fn.qualname}() ({sites} {noun}: "
                            f"{_preview(inferred.columns)})"
                        ),
                        hint=(
                            "pass a table carrying the column, or drop "
                            "the read"
                        ),
                    )


def _preview(columns: tuple[str, ...], limit: int = 4) -> str:
    shown = ", ".join(columns[:limit])
    return shown + (", ..." if len(columns) > limit else "")
