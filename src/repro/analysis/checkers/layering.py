"""REP301 — layering.

The package is a DAG of layers (``core`` at the bottom, then ``traces``,
then ``synth``/``hostload``/``prediction``, then ``sim``/``apps``, then
``experiments``). A module may import its own layer or any layer of
strictly lower rank; importing upward (or sideways into a sibling layer
of equal rank) couples foundations to consumers and eventually produces
import cycles. Ranks come from ``[tool.reprolint.layers]``.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register


@register(
    Rule(
        id="REP301",
        name="layering",
        summary=(
            "imports must respect the layer DAG (core -> traces -> "
            "synth/hostload -> sim -> experiments); no upward or "
            "sibling-layer imports"
        ),
    )
)
class LayeringChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        config = ctx.config
        package = config.package
        if ctx.module is None or not ctx.module.startswith(package + "."):
            return
        own_layer = ctx.module.split(".")[1]
        own_rank = config.layers.get(own_layer)
        if own_rank is None:
            return

        for site in ctx.summary.import_sites:
            if site.module == package:
                # ``from repro import sim`` imports layer modules by name.
                targets = [f"{package}.{name}" for name in site.names]
            else:
                targets = [site.module]
            for target in targets:
                parts = target.split(".")
                if parts[0] != package or len(parts) < 2:
                    continue
                target_layer = parts[1]
                target_rank = config.layers.get(target_layer)
                if target_rank is None or target_layer == own_layer:
                    continue
                if target_rank >= own_rank:
                    relation = (
                        "sibling layer"
                        if target_rank == own_rank
                        else "higher layer"
                    )
                    yield Diagnostic(
                        path=ctx.relpath,
                        line=site.line,
                        col=site.col,
                        rule_id=self.rule.id,
                        message=(
                            f"layer '{own_layer}' (rank {own_rank}) must not "
                            f"import {relation} '{target_layer}' "
                            f"(rank {target_rank})"
                        ),
                        hint=(
                            "move the shared code down to a lower layer or "
                            "invert the dependency"
                        ),
                    )
