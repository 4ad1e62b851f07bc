"""REP601 — silent broad exception swallowing ban.

The fault-tolerant runner depends on every failure being *observable*:
a worker crash becomes a classified outcome, a corrupted cache entry
becomes a quarantine counter, a malformed trace line becomes a warning.
A ``try: ... except Exception: pass`` (or a bare ``except:``) breaks
that contract — the degradation disappears without a counter, a log
line or a reclassification, and the recovery machinery upstream never
learns anything went wrong. In the recovery-critical layers
(``repro.experiments``, ``repro.core``) such handlers are banned: catch
the narrow exception you expect, or record what you swallowed.

Narrow handlers (``except OSError: pass`` for a benign filesystem race)
stay allowed — the rule only fires on ``Exception``/``BaseException``
or an untyped ``except:`` whose body does nothing but ``pass``/``...``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Rule, register

#: Packages where silent broad handlers are banned (the layers the
#: supervised runner relies on for failure classification).
_SCOPED_PACKAGES = ("repro.experiments", "repro.core")

_BROAD_NAMES = {"Exception", "BaseException"}


def _is_broad(handler_type: ast.expr | None) -> bool:
    """True for ``except:``, ``except Exception`` / ``BaseException``,
    or a tuple containing one of those."""
    if handler_type is None:
        return True
    if isinstance(handler_type, ast.Name):
        return handler_type.id in _BROAD_NAMES
    if isinstance(handler_type, ast.Attribute):
        return handler_type.attr in _BROAD_NAMES
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(el) for el in handler_type.elts)
    return False


def _is_silent(body: list[ast.stmt]) -> bool:
    """True when the handler body does nothing (``pass`` / ``...``)."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


@register(
    Rule(
        id="REP601",
        name="silent-except-ban",
        summary=(
            "no 'except Exception: pass' (or bare except) in "
            "experiments/ and core/ — degradation must stay observable"
        ),
    )
)
class SilentExceptChecker:
    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.is_test:
            return
        module = ctx.module or ""
        if not any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in _SCOPED_PACKAGES
        ):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if _is_broad(handler.type) and _is_silent(handler.body):
                    label = (
                        ast.unparse(handler.type)
                        if handler.type is not None
                        else "<bare>"
                    )
                    yield Diagnostic(
                        path=ctx.relpath,
                        line=handler.lineno,
                        col=handler.col_offset,
                        rule_id=self.rule.id,
                        message=(
                            f"broad exception handler ({label}) silently "
                            "swallows failures in a recovery-critical layer"
                        ),
                        hint=(
                            "catch the specific exception, or classify/"
                            "count the failure (ExperimentOutcome.error_kind, "
                            "Timings.count, CacheStats) before continuing"
                        ),
                    )
