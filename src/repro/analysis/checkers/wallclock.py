"""REP501 — wall-clock ban.

Analysis, synthesis and simulation results must be a pure function of
``(inputs, seed)``. Reading the wall clock (``time.time``,
``datetime.now``, ...) makes outputs depend on when they ran — which
silently breaks replayability of every figure. Simulated time always
comes from the event clock, never the host. Test and benchmark code
(which legitimately measures wall-clock durations) is exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..graph import ImportMap
from ..registry import Rule, register

_BANNED = {
    "time.time": "use the simulation/event clock, not the host clock",
    "time.time_ns": "use the simulation/event clock, not the host clock",
    "time.monotonic": "timing belongs in benchmarks/, not analysis code",
    "time.perf_counter": "timing belongs in benchmarks/, not analysis code",
    "datetime.datetime.now": "derive timestamps from trace/simulation time",
    "datetime.datetime.utcnow": "derive timestamps from trace/simulation time",
    "datetime.date.today": "derive dates from trace/simulation time",
}


@register(
    Rule(
        id="REP501",
        name="wall-clock-ban",
        summary=(
            "no wall-clock reads (time.time, datetime.now, ...) in "
            "analysis/synthesis/simulation code paths"
        ),
    )
)
class WallClockChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test:
            return
        imports = ImportMap(ctx.summary.exports)
        for node in ctx.nodes:
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            # Only flag the outermost reference once: names directly, and
            # attributes whose own resolution is banned.
            if isinstance(node, ast.Name) and not isinstance(
                node.ctx, ast.Load
            ):
                continue
            qual = imports.resolve(node)
            if qual in _BANNED:
                yield Diagnostic(
                    path=ctx.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.rule.id,
                    message=f"wall-clock read via {qual} breaks reproducibility",
                    hint=_BANNED[qual],
                )
