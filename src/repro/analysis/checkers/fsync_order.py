"""REP802 — fsync ordering (rename durability).

``os.rename`` is atomic but not durable.  Two orderings matter, and the
ALICE crash-consistency study showed real systems get both wrong:

1. **Payload before publish.**  Renaming a file whose content was
   written but never fsynced can publish empty or torn content after a
   crash — the rename metadata can reach disk before the data does.
2. **Parent directory after publish.**  A rename (or unlink) changes
   the *parent directory's* entry list; only an fsync of the parent
   directory makes the new name durable.  Without it, a "successfully"
   renamed manifest can simply vanish after a power cut.

The CFG layer tracks every path through each function in a
``durable-roots`` module: a rename whose source is written-but-unsynced
on some path fires (1); a rename/unlink of a non-temporary path with no
parent-directory fsync on any path to return fires (2).  Callee
behavior is summarized through the project graph — a helper that
fsyncs, renames, and fsyncs the parent (``core.fsutil.publish_atomically``)
discharges the obligations at the call site, and a caller passing a
written-but-unsynced payload to a helper that renames *without*
fsyncing is flagged at the call.  Incoming facts work the other way:
when every resolved caller passes written-unsynced content, the
callee's own bare rename is flagged — so deleting the fsync inside a
publish helper produces a diagnostic even though the rename is in a
different function than the writes.
"""

from __future__ import annotations

from collections.abc import Iterator

from .. import cfg
from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register

_EXAMPLE = """\
def publish(tmp, dest):
    with open(tmp, "wb") as fh:
        fh.write(b"payload")
    os.rename(tmp, dest)      # REP802: payload never fsynced, parent
                              # directory never fsynced after the rename
"""


@register(
    Rule(
        id="REP802",
        name="fsync-ordering",
        summary=(
            "renames need a payload fsync before and a parent-directory "
            "fsync after to be crash-durable"
        ),
        example=_EXAMPLE,
    )
)
class FsyncOrderChecker:
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
