"""reprolint — static analysis enforcing the reproduction's invariants.

A small checker framework (registry, per-file AST walking, structured
diagnostics, per-line suppressions, text/JSON/SARIF reporters) plus the
built-in rules in :mod:`repro.analysis.checkers`; ``repro-lint
--list-rules`` lists them and ``repro-lint --explain RULE`` documents
one.

Run via the ``repro-lint`` console script or programmatically through
:func:`lint_paths`.
"""

from .diagnostics import Diagnostic, Severity
from .engine import FileContext, LintRun, lint_paths
from .registry import Checker, Rule, all_checkers, register

__all__ = [
    "Checker",
    "Diagnostic",
    "FileContext",
    "LintRun",
    "Rule",
    "Severity",
    "all_checkers",
    "lint_paths",
    "register",
]
