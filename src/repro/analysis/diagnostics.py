"""Structured diagnostics emitted by reprolint checkers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity; ERROR fails the lint run."""

    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where it is, which rule fired, and how to fix it."""

    path: str  # project-relative posix path
    line: int  # 1-based
    col: int  # 0-based, as in the AST
    rule_id: str  # e.g. "REP101"
    message: str
    severity: Severity = Severity.ERROR
    hint: str = ""  # short "how to fix" suggestion
    # Related locations in the same file: ((line, note), ...) — the
    # evidence chain behind a flow finding (write sites, escape points).
    related: tuple[tuple[int, str], ...] = ()

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.name.lower(),
            "message": self.message,
            "hint": self.hint,
        }
        if self.related:
            data["related"] = [
                {"line": line, "note": note} for line, note in self.related
            ]
        return data


def sort_key(diag: Diagnostic) -> tuple[str, int, int, str]:
    return (diag.path, diag.line, diag.col, diag.rule_id)


@dataclass
class DiagnosticSink:
    """Collector passed to checkers; applies per-line suppressions.

    ``used`` records which ``(line, directive-code)`` pairs actually
    suppressed a finding — the raw material of REP701
    (unused-suppression).
    """

    suppressed: dict[int, set[str]] = field(default_factory=dict)
    items: list[Diagnostic] = field(default_factory=list)
    used: set[tuple[int, str]] = field(default_factory=set)

    def emit(self, diag: Diagnostic) -> None:
        rules = self.suppressed.get(diag.line, ())
        if diag.rule_id in rules:
            self.used.add((diag.line, diag.rule_id))
            return
        if "all" in rules:
            self.used.add((diag.line, "all"))
            return
        self.items.append(diag)
