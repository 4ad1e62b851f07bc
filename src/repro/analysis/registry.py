"""Checker registry: rule metadata plus the decorator checkers use."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from .diagnostics import Diagnostic
    from .engine import FileContext

__all__ = [
    "Rule",
    "Checker",
    "register",
    "all_checkers",
    "iter_rules",
]


@dataclass(frozen=True)
class Rule:
    """Identity and documentation of one lint rule."""

    id: str  # "REP101"
    name: str  # "rng-discipline"
    summary: str  # one-line description for --list-rules
    doc: str = ""  # longer prose for --explain (checker __doc__ fallback)
    example: str = ""  # minimal flagged snippet for --explain


class Checker(Protocol):
    """A checker walks one file's AST and yields diagnostics."""

    rule: Rule

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]: ...


_CHECKERS: dict[str, type] = {}


def register(rule: Rule):
    """Class decorator: attach ``rule`` and add the checker to the registry."""

    def decorate(cls: type) -> type:
        if rule.id in _CHECKERS:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        cls.rule = rule
        _CHECKERS[rule.id] = cls
        return cls

    return decorate


def all_checkers() -> list[Checker]:
    """Instantiate every registered checker, sorted by rule id."""
    from . import checkers as _checkers  # noqa: F401  (triggers registration)

    return [_CHECKERS[rule_id]() for rule_id in sorted(_CHECKERS)]


def iter_rules() -> Iterable[Rule]:
    from . import checkers as _checkers  # noqa: F401

    return [_CHECKERS[rule_id].rule for rule_id in sorted(_CHECKERS)]
