"""``repro-lint`` — the project's static-analysis gate.

Usage::

    repro-lint src                   # lint the tree, exit 1 on findings
    repro-lint --format json src     # machine-readable output
    repro-lint --format sarif src    # SARIF 2.1.0 for code-scanning UIs
    repro-lint --jobs 0 src          # parallel parse/analyze, one worker
                                     # per CPU the process may run on
    repro-lint --cache-dir .lint-cache src   # incremental: only changed
                                             # files (and their importers)
                                             # are re-analyzed
    repro-lint --list-rules          # rule catalog
    repro-lint --select REP103,REP303 src    # run only these rules
    repro-lint --ignore REP701 src   # drop rules from the configured set
    repro-lint --explain REP203      # rule doc + a minimal flagged example

Suppress a finding in place with ``# reprolint: disable=REP101`` (or
``disable=all``) on the offending line; configure rule sets and excludes
under ``[tool.reprolint]`` in ``pyproject.toml``. ``--select`` replaces
the config's ``enable`` set for this run; ``--ignore`` adds to the
config's ``ignore`` set; both accept comma-separated rule ids and reject
unknown ones.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .engine import lint_paths
from .registry import iter_rules
from .reporters import render_json, render_sarif, render_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based lint pass enforcing the reproduction's determinism, "
            "schema and layering invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help=(
            "project root holding pyproject.toml (default: discovered from "
            "the first path)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for parsing/analysis (default: 1, serial; "
            "0 = one per CPU the process may run on)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "enable the incremental cache in DIR; unchanged files (keyed "
            "by content hash + import closure) are not re-analyzed"
        ),
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="RULES",
        help=(
            "comma-separated rule ids to run, replacing the configured "
            "enable set (e.g. REP103,REP303)"
        ),
    )
    parser.add_argument(
        "--ignore",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to skip on top of the config",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print one rule's documentation and a flagged example, then exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="omit fix hints from text output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_rules(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def explain_rule(rule_id: str) -> str:
    """Rule doc (explicit or the checker module's docstring) + example."""
    from .registry import _CHECKERS, iter_rules

    rules = {rule.id: rule for rule in iter_rules()}
    rule = rules.get(rule_id)
    if rule is None:
        raise ValueError(
            f"unknown rule id {rule_id!r}; known rules: "
            f"{', '.join(sorted(rules))}"
        )
    doc = rule.doc
    if not doc:
        import sys as _sys

        checker = _CHECKERS[rule.id]
        module = _sys.modules.get(checker.__module__)
        doc = (module.__doc__ or "").strip() if module else ""
    parts = [f"{rule.id}  {rule.name}", "", rule.summary]
    if doc:
        parts += ["", doc.strip()]
    if rule.example:
        parts += ["", "Example (flagged):", ""]
        parts += [f"    {line}" for line in rule.example.rstrip().splitlines()]
    return "\n".join(parts)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id}  {rule.name}: {rule.summary}")
        return 0
    if args.explain is not None:
        try:
            print(explain_rule(args.explain.strip()))
        except ValueError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return 2
        return 0
    try:
        run = lint_paths(
            args.paths,
            root=args.root,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
        )
    except (OSError, ValueError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(run))
    elif args.format == "sarif":
        print(render_sarif(run))
    else:
        print(render_text(run, verbose=not args.quiet))
    return run.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
