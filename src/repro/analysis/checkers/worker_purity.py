"""REP103 — worker purity (whole-program effect reachability).

Parallel runs are only reproducible if worker processes compute pure
functions of their inputs: a worker that mutates module-level state
produces results that depend on which worker ran which task, and the
pool's scheduling order leaks into the output. This rule proves the
property statically. The graph collects per-function effect summaries
(module-global writes, mutable-default mutation — plus env/filesystem/
process effects, tracked for the lattice but not reported) and marks as
*worker entry points* every function shipped across a process boundary:
``pool.submit(fn, ...)`` / ``pool.map(fn, ...)`` arguments and
``Process(target=fn)`` targets, plus any qualnames listed under
``worker-roots`` in ``[tool.reprolint]``. Everything reachable from a
root through the call graph — across module boundaries, through
``__init__`` re-exports, and through higher-order call sites where a
function value is passed into a parameter the callee calls — must not
write module-level state or mutate a shared default argument.

Pool ``initializer=`` callables are *not* roots: per-worker setup is the
sanctioned way to configure process-local state. Modules listed under
``worker-state-modules`` are exempt for writes to their *own* globals —
their module state is process-local by design (per-worker caches and
counters that workers are expected to populate).

Diagnostics land on the effect site, in the module that owns the
impure function, with the reachability chain in the message — so the
cache key of that file folds in the cross-module reachability facts
(:meth:`ProjectGraph.effect_facts_for_module`), and editing a distant
caller correctly re-keys the verdict here.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..graph import DEFAULT_MUTATION, GLOBAL_WRITE
from ..registry import Rule, register

_EXAMPLE = """\
_RESULTS = {}

def run_shard(shard):          # shipped: pool.submit(run_shard, shard)
    _RESULTS[shard.id] = ...   # REP103: global write in a worker
"""


@register(
    Rule(
        id="REP103",
        name="worker-purity",
        summary=(
            "functions reachable from a worker entry point must not "
            "write module-level state or mutate shared defaults"
        ),
        example=_EXAMPLE,
    )
)
class WorkerPurityChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.module is None:
            return
        graph = ctx.graph
        config = ctx.config
        exempt = ctx.module in config.worker_state_modules
        reach = graph.worker_reachability(config.worker_roots)
        for fn in ctx.summary.functions.values():
            verdict = reach.get(fn.qualname)
            if verdict is None:
                continue
            root, via = verdict
            for eff in fn.effects:
                if eff.kind not in (GLOBAL_WRITE, DEFAULT_MUTATION):
                    continue
                if exempt and eff.kind == GLOBAL_WRITE:
                    continue
                what = (
                    f"writes module-level {eff.detail!r}"
                    if eff.kind == GLOBAL_WRITE
                    else f"mutates shared default {eff.detail!r}"
                )
                chain = (
                    f"shipped across a process boundary at {via}"
                    if root == fn.qualname
                    else f"{via}; worker root {root}()"
                )
                yield Diagnostic(
                    path=ctx.relpath,
                    line=eff.line,
                    col=eff.col,
                    rule_id=self.rule.id,
                    message=(
                        f"{fn.qualname}() {what} but runs inside worker "
                        f"processes ({chain}); results would depend on "
                        "pool scheduling"
                    ),
                    hint=(
                        "return the value instead of mutating shared "
                        "state, move setup into the pool initializer, or "
                        "list the module under worker-state-modules if "
                        "its state is process-local by design"
                    ),
                )
