"""REP101 — RNG discipline.

Every statistic in the reproduction must be replayable from a seed, so
all randomness flows through an explicitly-passed
:class:`numpy.random.Generator`. This rule bans the three ways hidden
RNG state sneaks in:

* legacy ``numpy.random`` module-level samplers (``np.random.seed``,
  ``np.random.rand``, ...) which share one global ``RandomState``;
* the stdlib :mod:`random` module (global state, different algorithm);
* ``default_rng()`` with no seed, which draws OS entropy.

Test and benchmark code is exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..graph import ImportMap
from ..registry import Rule, register

#: numpy.random attributes that are seed-respecting construction APIs,
#: types, or annotations — everything else is legacy global-state API.
_ALLOWED_NP_RANDOM = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


@register(
    Rule(
        id="REP101",
        name="rng-discipline",
        summary=(
            "all randomness must flow through a passed numpy Generator; "
            "no global numpy.random state, stdlib random, or unseeded "
            "default_rng()"
        ),
    )
)
class RngDisciplineChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test:
            return
        for site in ctx.summary.import_sites:
            if site.names:
                # ``from random import a, b``: one finding per name.
                offenders = (
                    len(site.names)
                    if site.level == 0 and site.module == "random"
                    else 0
                )
            else:
                offenders = int(
                    site.module == "random" or site.module.startswith("random.")
                )
            for _ in range(offenders):
                yield Diagnostic(
                    path=ctx.relpath,
                    line=site.line,
                    col=site.col,
                    rule_id=self.rule.id,
                    message=(
                        "the stdlib random module keeps global state and is "
                        "banned in reproduction code"
                    ),
                    hint="use a passed numpy.random.Generator instead",
                )
        imports = ImportMap(ctx.summary.exports)
        for node in ctx.nodes:
            if isinstance(node, ast.Attribute):
                qual = imports.resolve(node)
                if (
                    qual
                    and qual.startswith("numpy.random.")
                    and qual.count(".") == 2
                    and node.attr not in _ALLOWED_NP_RANDOM
                ):
                    yield Diagnostic(
                        path=ctx.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id=self.rule.id,
                        message=(
                            f"numpy.random.{node.attr} uses the hidden "
                            "global RandomState"
                        ),
                        hint=(
                            "draw from an explicitly-passed "
                            "numpy.random.Generator instead"
                        ),
                    )
            elif isinstance(node, ast.Call):
                qual = imports.resolve(node.func)
                if (
                    qual == "numpy.random.default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield Diagnostic(
                        path=ctx.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id=self.rule.id,
                        message=(
                            "default_rng() without a seed draws OS entropy; "
                            "results cannot be reproduced"
                        ),
                        hint="pass a seed or an existing Generator/SeedSequence",
                    )
