"""REP102 — RNG provenance (whole-program taint).

REP101 bans the *lexical* forms of hidden RNG state; this rule proves
the stronger global property the reproduction's tables and figures
rely on: every :class:`numpy.random.Generator` reaching the library
layers (``rng-scope`` in the config, by default core/traces/synth/
hostload/prediction/sim) traces back to a caller-supplied seed or a
``SeedSequence.spawn`` chain — across function and module boundaries.

Three flows are flagged, using the taint lattice from
:mod:`repro.analysis.graph` (``GOOD < UNKNOWN < LITERAL ~ ADHOC <
UNSEEDED``):

* **construction** — a generator/``SeedSequence`` built inside the
  scope whose entropy is a hard-coded constant (``default_rng(42)``),
  ad-hoc seed arithmetic (``default_rng(seed + 10)`` — stream
  collisions waiting to happen; spawn a child instead), or missing
  entirely (``SeedSequence()``; the unseeded ``default_rng()`` form is
  REP101's);
* **entropy argument** — a call passing such a value into another
  function's entropy parameter (a param annotated ``Generator``/
  ``SeedSequence`` or one that provably flows into a construction,
  closed over the call graph), even when callee and taint live in
  different modules. ``UNSEEDED`` arguments are flagged from any
  layer; ``LITERAL``/``ADHOC`` only from inside the scope, because the
  experiments layer is the composition root where run seeds are
  legitimately chosen;
* **returned generator** — a scoped call to a function (anywhere in
  the package) whose returned generator is provably unseeded.

Parameters are trusted (``GOOD``) inside a function body — their
provenance is enforced at every call site instead, which is what makes
the analysis compositional. ``UNKNOWN`` never fires: the rule reports
provable taint, not uncertainty.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..graph import ADHOC, GOOD, LITERAL, UNSEEDED
from ..registry import Rule, register

_HINTS = {
    LITERAL: (
        "derive the seed from the experiment's (seed, config) via "
        "SeedSequence.spawn instead of hard-coding it"
    ),
    ADHOC: (
        "spawn a child stream (SeedSequence(seed).spawn(n) or "
        "spawn_key=) instead of seed arithmetic"
    ),
    UNSEEDED: "pass a seed or an existing Generator/SeedSequence",
}

_WHAT = {
    LITERAL: "a hard-coded seed",
    ADHOC: "ad-hoc seed arithmetic",
    UNSEEDED: "OS entropy",
}


@register(
    Rule(
        id="REP102",
        name="rng-provenance",
        summary=(
            "generators reaching library layers must trace back to a "
            "caller seed or SeedSequence.spawn chain, across function "
            "and module boundaries"
        ),
    )
)
class RngProvenanceChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.module is None:
            return
        package = ctx.config.package
        if not ctx.module.startswith(package + "."):
            return
        layer = ctx.module.split(".")[1]
        in_scope = layer in ctx.config.rng_scope
        if in_scope:
            yield from self._constructions(ctx)
        yield from self._call_sites(ctx, in_scope)

    def _constructions(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for con in ctx.summary.constructions:
            if con.prov not in (LITERAL, ADHOC, UNSEEDED):
                continue
            if con.prov == UNSEEDED and con.factory == "default_rng":
                continue  # REP101 already owns this exact form
            where = f" in {con.in_function}()" if con.in_function else ""
            yield Diagnostic(
                path=ctx.relpath,
                line=con.line,
                col=con.col,
                rule_id=self.rule.id,
                message=(
                    f"{con.factory} seeded from {_WHAT[con.prov]}{where}; "
                    "library-layer streams must come from the caller or a "
                    "SeedSequence.spawn chain"
                ),
                hint=_HINTS[con.prov],
            )

    def _call_sites(
        self, ctx: FileContext, in_scope: bool
    ) -> Iterator[Diagnostic]:
        graph = ctx.graph
        scope = ctx.config.rng_scope
        for call in ctx.summary.calls:
            target = graph.resolve_function(call.callee)
            if target is None:
                continue
            # entropy arguments
            if target.entropy_params:
                bound = graph._bind(call, target)
                for param in target.entropy_params:
                    val = bound.get(param)
                    if val is None:
                        continue
                    prov = graph.arg_rng_prov(val)
                    if prov == UNSEEDED or (
                        in_scope and prov in (LITERAL, ADHOC)
                    ):
                        yield Diagnostic(
                            path=ctx.relpath,
                            line=call.line,
                            col=call.col,
                            rule_id=self.rule.id,
                            message=(
                                f"{_WHAT[prov]} flows into entropy "
                                f"parameter {param!r} of "
                                f"{target.qualname}()"
                            ),
                            hint=_HINTS[prov],
                        )
            # returned generators
            if not in_scope or target.rng_return is None:
                continue
            callee_module = target.qualname.rsplit(".", 1)[0]
            callee_layer = (
                callee_module.split(".")[1]
                if callee_module.count(".") >= 1
                else None
            )
            prov = graph.rng_return_prov(target)
            if prov in (GOOD, None):
                continue
            flaggable = prov == UNSEEDED or prov in (LITERAL, ADHOC)
            # A scoped callee's bad construction is already flagged at
            # its own definition; only cross-scope flows fire here.
            if flaggable and callee_layer not in scope:
                yield Diagnostic(
                    path=ctx.relpath,
                    line=call.line,
                    col=call.col,
                    rule_id=self.rule.id,
                    message=(
                        f"{target.qualname}() returns a generator seeded "
                        f"from {_WHAT.get(prov, prov)}; it must not reach "
                        f"the {ctx.module.split('.')[1]} layer"
                    ),
                    hint=_HINTS.get(prov, _HINTS[UNSEEDED]),
                )
