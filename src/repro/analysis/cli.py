"""``python -m repro.analysis`` — the conformance checker CLI.

Usage::

    python -m repro.analysis src                  # lint a tree, text output
    python -m repro.analysis src --format json    # machine-readable report
    python -m repro.analysis src --format sarif   # SARIF 2.1.0 document
    python -m repro.analysis --list-rules         # rule inventory

Exit codes: ``0`` clean, ``1`` violations found, ``2`` usage or I/O
error.  The CI ``lint-and-types`` job runs the ``src`` form and fails
the build on any nonzero exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .engine import run_analysis
from .rules import META_CODES, RULES
from .sarif import sarif_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST conformance checker for the semi-external model: I/O "
            "containment, memory discipline, determinism, error hygiene."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (e.g. src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule inventory and exit",
    )
    return parser


def _render_rule_list() -> str:
    lines = ["code    name                                    summary", "-" * 78]
    for code in sorted(META_CODES):
        lines.append(f"{code}  {'(engine meta rule)':38s}  {META_CODES[code]}")
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append(f"{code}  {rule.name:38s}  {rule.summary}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_render_rule_list())
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: at least one path is required (e.g. 'src')",
              file=sys.stderr)
        return 2

    try:
        report = run_analysis(args.paths)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        if args.format == "json":
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        elif args.format == "sarif":
            print(json.dumps(sarif_report(report), indent=2, sort_keys=True))
        else:
            print(report.render_text())
    except BrokenPipeError:
        # A downstream consumer (head, less) closed the pipe early; park
        # stdout on devnull so interpreter shutdown doesn't re-raise.
        # repro: allow[SEX102] re-points fd 1 at devnull; no data I/O
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.ok else 1
