"""``repro lint``: the CLI front-end of the static-analysis pass.

Exit codes follow CI conventions: 0 clean, 1 violations found, 2 usage
error (unknown path / unknown rule code).

Output formats: ``text`` (human, plus optional per-rule statistics),
``json`` (machine), ``sarif`` (SARIF 2.1.0, for GitHub code-scanning
upload).  Every run analyzes every file (the whole-program graph needs
all of them) and only reports: fixing a violation is left to the
author.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint import sarif
from repro.lint.config import load_config
from repro.lint.engine import LintEngine
from repro.lint.rules import REGISTRY, all_rules


def _catalogue_range() -> str:
    codes = sorted(REGISTRY)
    return f"{codes[0]}..{codes[-1]}"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro lint`` arguments to ``parser`` (shared with main CLI)."""
    parser.epilog = (
        f"rule catalogue: {_catalogue_range()} "
        "(file-scope REP0xx, cross-module REP1xx); "
        "run --list-rules for the full table"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text; sarif emits SARIF 2.1.0)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (e.g. REP004,REP102)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="PYPROJECT",
        help="pyproject.toml to read [tool.repro.lint] from "
        "(default: ./pyproject.toml)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule violation count summary",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )


def _parse_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    codes = [c.strip().upper() for c in raw.split(",") if c.strip()]
    unknown = [c for c in codes if c not in REGISTRY]
    if unknown:
        raise SystemExit(
            f"error: unknown rule code(s) {', '.join(unknown)}; "
            f"have {', '.join(sorted(REGISTRY))}"
        )
    return codes


def _rule_table() -> str:
    lines = ["code    name                  scope    summary"]
    for rule in all_rules():
        lines.append(
            f"{rule.code}  {rule.name:<20}  {rule.scope:<7}  {rule.summary}"
        )
    return "\n".join(lines)


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro lint`` invocation."""
    if args.list_rules:
        print(_rule_table())
        return 0
    try:
        config = load_config(args.config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        select = _parse_codes(args.select)
        ignore = _parse_codes(args.ignore)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    if select is not None or ignore is not None:
        from dataclasses import replace

        config = replace(
            config,
            select=tuple(select) if select is not None else config.select,
            ignore=tuple(ignore) if ignore is not None else config.ignore,
        )

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        names = ", ".join(str(p) for p in missing)
        print(f"error: no such file or directory: {names}", file=sys.stderr)
        return 2

    engine = LintEngine(config)
    report = engine.run(paths)
    violations = report.violations

    if args.format == "json":
        payload = {
            "files": len(report.files),
            "count": len(violations),
            "violations": [v.as_dict() for v in violations],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        print(sarif.render_text(violations, engine.rules()))
    else:
        for v in violations:
            print(v.render())
        if args.statistics and violations:
            print()
            for code, n in sorted(Counter(v.code for v in violations).items()):
                print(f"{code}  {n:4d}  {REGISTRY[code].name}")
        summary = (
            f"{len(violations)} violation(s) in {len(report.files)} file(s)"
            if violations
            else f"clean: 0 violations in {len(report.files)} file(s)"
        )
        print(summary)
    return 1 if violations else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "determinism/correctness static analysis "
            f"(rules {_catalogue_range()})"
        ),
    )
    configure_parser(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
