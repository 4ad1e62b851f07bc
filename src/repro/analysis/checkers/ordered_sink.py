"""REP203 — ordered-sink flow (set iteration into ordered output).

Python ``set``/``frozenset`` iteration order depends on insertion
history and per-process hash randomization for ``str`` keys: the same
set can render differently across runs and across worker processes.
That is harmless while the values stay unordered, and fatal the moment
they flow into an *ordered sink* — a rendered table column, a journal
line, ``", ".join(...)``, cache-key material, or a list that later
feeds any of those. This rule flags iteration over a set-like value
that reaches such a sink unless the iteration is wrapped in
``sorted()``.

Two flavors come out of the graph's symbolic evaluation:

* **local** (``unordered-iter``) — the scope proved the iterated value
  is a set: a literal, a ``set()``/``frozenset()`` call, a set
  comprehension, a set-operator result (``a | b``), an order-preserving
  set method (``.union()`` etc.), or a module-level set constant;
* **via call** (``unordered-iter-ref``) — the iterated value is the
  result of calling another function; it fires only when the graph
  proves that function (transitively, through ``__init__`` re-exports
  and return-forwarding chains) returns a set.

Dict iteration is deliberately *not* flagged: insertion order is a
language guarantee, and the project's determinism tests pin it.
Sinks are syntactic: ``join``/``list``/``tuple``/``enumerate``
consumption, comprehensions inheriting set order, and ``for`` loops
whose body appends, writes, prints, or yields.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..graph import UNORDERED_ITER, UNORDERED_ITER_REF
from ..registry import Rule, register

_EXAMPLE = """\
def legend(table):
    names = set(table["name"])
    return ", ".join(names)   # REP203: set order reaches output
    # fix: ", ".join(sorted(names))
"""

_SINK_DESC = {
    "join": "a str.join()",
    "list": "a list()",
    "tuple": "a tuple()",
    "enumerate": "an enumerate()",
    "for-loop": "an order-sensitive loop body",
    "comprehension": "a comprehension",
}


@register(
    Rule(
        id="REP203",
        name="ordered-sink-flow",
        summary=(
            "set/frozenset iteration flowing into ordered output "
            "(rendering, journal lines, cache keys) must be sorted()"
        ),
        example=_EXAMPLE,
    )
)
class OrderedSinkChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.module is None:
            return
        graph = ctx.graph
        summary = ctx.summary
        sites = [
            (fn.qualname, eff)
            for fn in summary.functions.values()
            for eff in fn.effects
        ] + [(f"{ctx.module} module level", eff) for eff in summary.module_effects]
        for owner, eff in sites:
            if eff.kind == UNORDERED_ITER:
                what = f"set {eff.detail!r}"
            elif eff.kind == UNORDERED_ITER_REF:
                if not graph.returns_unordered(eff.detail):
                    continue
                what = f"set returned by {eff.detail}()"
            else:
                continue
            sink = _SINK_DESC.get(eff.sink, f"a {eff.sink}")
            yield Diagnostic(
                path=ctx.relpath,
                line=eff.line,
                col=eff.col,
                rule_id=self.rule.id,
                message=(
                    f"iteration over {what} flows into {sink} in "
                    f"{owner}; set order varies across runs and worker "
                    "processes"
                ),
                hint="wrap the iteration in sorted(...)",
            )
