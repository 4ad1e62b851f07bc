"""REP801 — atomic publish (control-flow durability protocol).

Durable on-disk state must be published atomically: write the payload
to a dot-prefixed temporary path, fsync it, rename it onto the
destination, then fsync the parent directory.  A write that lands
*directly* on an externally visible path (a parameter, an attribute, a
literal path — anything a reader could observe mid-write) violates the
protocol: a crash mid-write leaves a torn, non-temp file that readers
will trust.

The rule runs only inside modules listed under ``durable-roots`` in
``[tool.reprolint]`` — the modules that own crash-safe state.  The CFG
layer (:mod:`repro.analysis.cfg`) interprets each function and reports
a write to a visible non-temporary path unless that path is later
renamed away on some path (i.e. it *was* the temp side of a publish).
Temporary paths are recognized structurally: ``tempfile`` results,
dot-prefixed or ``.tmp``/``.partial`` basenames, names that look
temporary (``tmp``/``partial``/``scratch``), and parameters whose every
resolved caller passes a temp-derived argument (an incoming fact from
the project graph, folded into the flow fingerprint).
"""

from __future__ import annotations

from collections.abc import Iterator

from .. import cfg
from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register

_EXAMPLE = """\
def save(dest, payload):
    with open(dest, "wb") as fh:    # REP801: direct write to durable path
        fh.write(payload)

def save_atomic(dest, payload):
    tmp = dest.with_name("." + dest.name + ".tmp")
    with open(tmp, "wb") as fh:     # ok: dot-temp, renamed below
        fh.write(payload)
    publish_atomically(tmp, dest)
"""


@register(
    Rule(
        id="REP801",
        name="atomic-publish",
        summary=(
            "durable modules must publish files via temp+fsync+rename, "
            "never write a visible path in place"
        ),
        example=_EXAMPLE,
    )
)
class AtomicPublishChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.module is None:
            return
        if not cfg.in_durable_scope(ctx.module, ctx.config.durable_roots):
            return
        for finding in cfg.file_report(ctx):
            if finding.rule != self.rule.id:
                continue
            yield Diagnostic(
                path=ctx.relpath,
                line=finding.line,
                col=finding.col,
                rule_id=self.rule.id,
                message=finding.message,
                hint=finding.hint,
                related=finding.related,
            )
