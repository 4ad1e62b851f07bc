"""REP803 — resource lifecycle (release on every path).

Files, file descriptors, mmaps, and process/thread pools acquired in a
function must be released on **every** path out of it — including the
exception paths, which is where leaks hide: a ``.lock`` file held
across a raised validation error blocks every later resume; a pool
left running keeps worker processes alive after the driver dies.

The CFG layer interprets each function with an abstract handle state
(``open``/``closed``/``escaped``) per acquisition site:

* a ``with`` block releases its resources on all paths (never flagged);
* ``close()``/``shutdown()``/``terminate()``/``release()``/``os.close``
  move a handle to ``closed`` — in a ``finally`` block that covers the
  exception paths too;
* ownership *escapes* are sanctioned: returning or yielding the handle,
  storing it on ``self``/a container, capturing it in a nested
  function, passing it to an unresolved callee, or passing it to a
  project callee the graph knows closes it (``closes`` action);
* anything still ``open`` at a return or at a propagating exception is
  flagged at the acquisition site, with the escaping line attached as a
  related location.

The rule runs tree-wide (tests excluded).
"""

from __future__ import annotations

from collections.abc import Iterator

from .. import cfg
from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register

_EXAMPLE = """\
def claim(lock_path):
    fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    validate()            # REP803: if this raises, fd is never closed
    os.close(fd)
"""


@register(
    Rule(
        id="REP803",
        name="resource-lifecycle",
        summary=(
            "files, fds, mmaps and pools must be released on every path, "
            "exception paths included"
        ),
        example=_EXAMPLE,
    )
)
class ResourceLifecycleChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test or ctx.module is None:
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
