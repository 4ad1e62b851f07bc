"""REP303 — pickle boundary (statically unpicklable shipped values).

Everything that crosses a process boundary is pickled: arguments to
``pool.submit``/``pool.map``, ``Process(target=..., args=...)``
payloads, values pushed through one-shot result pipes
(``conn.send(...)``), and objects stored through the disk-cache codec
(``cache.put(...)``). CPython's pickle resolves functions and classes
by *qualified name import*, so four value shapes fail at runtime no
matter their contents:

* **lambdas** — no importable name;
* **local functions** — defined inside another function, unreachable
  by qualname;
* **local classes** — same, for ``class`` statements in function
  bodies;
* **open handles** — file objects from ``open(...)`` capture OS state
  that cannot be serialized.

The graph's symbolic evaluation tags values with these shapes as they
flow through assignments, ``with`` bindings, and call results inside a
function body; every boundary call site then checks what it ships.
Flagging happens *at the shipping site* — where the fix belongs —
rather than at the definition, which is often fine on its own.

The failure is especially sharp under the spawn start method (the
default on macOS/Windows) and the forkserver one (how the out-of-core
map-reduce starts its block workers): fork can sometimes smuggle
unpicklable state through copy-on-write, so code that "works on Linux"
breaks the moment the start method changes. This rule makes the
property hold statically everywhere.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register

_EXAMPLE = """\
def run_all(pool, shards):
    def work(shard):                  # local function
        return shard.total()
    return [pool.submit(work, s) for s in shards]
    # REP303: 'work' cannot be pickled; move it to module level
"""

_KIND_DESC = {
    "lambda": "a lambda",
    "localfn": "a function defined inside another function",
    "localcls": "a class defined inside a function",
    "handle": "an open file handle",
}

_BOUNDARY_DESC = {
    "pool-submit": "pool submission",
    "pool-map": "pool map",
    "process": "Process() construction",
    "pipe-send": "pipe send",
    "cache-put": "disk-cache put",
    "pool-init": "pool initializer",
}

_HINTS = {
    "lambda": "replace the lambda with a module-level function",
    "localfn": "move the function to module level (or functools.partial "
    "of a module-level function)",
    "localcls": "move the class to module level",
    "handle": "ship the path and open the file inside the worker",
}


@register(
    Rule(
        id="REP303",
        name="pickle-boundary",
        summary=(
            "values crossing a process boundary (pool submit args, "
            "result pipes, disk-cache payloads) must be statically "
            "picklable"
        ),
        example=_EXAMPLE,
    )
)
class PickleBoundaryChecker:
    requires_graph = True

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.graph is None or ctx.module is None:
            return
        summary = ctx.graph.modules.get(ctx.module)
        if summary is None:
            return
        for site in summary.boundaries:
            where = _BOUNDARY_DESC.get(site.kind, site.kind)
            for val in site.values:
                desc = _KIND_DESC.get(val.kind)
                if desc is None:
                    continue
                name = f" {val.detail!r}" if val.detail else ""
                yield Diagnostic(
                    path=ctx.relpath,
                    line=site.line,
                    col=site.col,
                    rule_id=self.rule.id,
                    message=(
                        f"{site.desc} ships {desc}{name} as {val.label} "
                        f"across a process boundary ({where}); pickle "
                        "resolves by qualified name and will fail"
                    ),
                    hint=_HINTS[val.kind],
                )
