"""The analysis engine: file discovery, rule dispatch, waiver resolution.

For every Python file the engine parses the source once, runs each
registered rule whose scope covers the file, and reconciles the raw hits
against the file's ``# repro: allow[...]`` waivers.  Waiver hygiene is
enforced here: empty reasons (``SEX001``), unknown codes (``SEX002``)
and stale waivers that suppress nothing (``SEX003``) are violations in
their own right, so the waiver inventory can never rot silently.

Path scoping: a file's *model path* is computed from the last ``repro``
component of its real path (``.../site-packages/repro/core/tree.py`` →
``repro/core/tree.py``), which makes fixture trees under a temp
directory scope exactly like the installed package.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .callgraph import ProjectContext, context_from_modules
from .diagnostics import AnalysisReport, Violation, WaiverRecord
from .rules import RULES, FlowRule, known_codes
from .waivers import Waiver, extract_waivers


def model_path(path: str) -> str:
    """The ``repro/...`` scoping path for ``path`` (see module docstring)."""
    parts = path.replace(os.sep, "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return parts[-1]


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted.

    Raises:
        FileNotFoundError: when a requested path does not exist.
    """
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def _analyze(
    source: str,
    path: str,
    context: Optional[ProjectContext] = None,
    module: Optional[ast.Module] = None,
) -> Tuple[List[Violation], List[Waiver]]:
    """Rule dispatch + waiver resolution for one file's source.

    ``context`` carries the project-wide call summaries the flow rules
    consult; when absent (single-file entry points) a single-file
    context is built so taint still crosses calls within the file.
    ``module`` short-circuits re-parsing when the caller already holds
    the AST (the project pass parses every file exactly once).
    """
    relpath = model_path(path)
    waivers = extract_waivers(source)
    if module is None:
        try:
            module = ast.parse(source, filename=path)
        except SyntaxError as error:
            violation = Violation(
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 1),
                code="SEX004",
                message=f"file could not be parsed: {error.msg}",
            )
            return [violation], waivers
    if context is None:
        context = context_from_modules({relpath: module})

    raw: List[Violation] = []
    for code in sorted(RULES):
        rule = RULES[code]
        if not rule.applies_to(relpath):
            continue
        hits = (
            rule.check_flow(module, relpath, context)
            if isinstance(rule, FlowRule)
            else rule.check(module, relpath)
        )
        for hit in hits:
            raw.append(Violation(
                path=path, line=hit.line, column=hit.column,
                code=hit.code, message=hit.message,
            ))

    kept = _apply_waivers(raw, waivers)
    kept.extend(_waiver_hygiene(waivers, path))
    kept.sort()
    return kept, waivers


def analyze_source(source: str, path: str) -> List[Violation]:
    """Run every applicable rule over ``source``; returns net violations.

    ``path`` is used both for diagnostics and for rule scoping (via
    :func:`model_path`).  Waivers in the source are applied and their
    hygiene violations appended.
    """
    violations, _ = _analyze(source, path)
    return violations


def _read_source(path: str) -> str:
    # The checker is a dev-time tool reading *source code*, not graph
    # data, so it sits outside the block-I/O model it enforces.
    with open(path, "r", encoding="utf-8") as handle:  # repro: allow[SEX101] linted source files are outside the block-I/O model
        return handle.read()


def analyze_file(path: str) -> List[Violation]:
    """Analyze one file on disk (see :func:`analyze_source`)."""
    return analyze_source(_read_source(path), path)


def run_analysis(paths: Sequence[str]) -> AnalysisReport:
    """Analyze every Python file under ``paths`` into one report.

    Every file is read and parsed *once*; one shared
    :class:`ProjectContext` is built over all of them (so flow rules see
    cross-file call summaries) before the rules are dispatched per file.
    """
    report = AnalysisReport()
    files = list(iter_python_files(paths))
    sources: Dict[str, str] = {path: _read_source(path) for path in files}
    modules: Dict[str, ast.Module] = {}
    for path in files:
        try:
            modules[path] = ast.parse(sources[path], filename=path)
        except SyntaxError:
            pass  # reported as SEX004 by the per-file pass below
    context = context_from_modules(
        {model_path(path): module for path, module in modules.items()}
    )

    for path in files:
        report.files_checked += 1
        violations, waivers = _analyze(
            sources[path], path, context=context, module=modules.get(path)
        )
        report.violations.extend(violations)
        report.waivers.extend(
            WaiverRecord(
                path=path, line=waiver.line, codes=waiver.codes,
                reason=waiver.reason, used=waiver.used,
            )
            for waiver in waivers
        )
    report.violations.sort()
    return report


def _apply_waivers(raw: List[Violation],
                   waivers: Iterable[Waiver]) -> List[Violation]:
    """Drop violations covered by an active waiver; mark those waivers used."""
    waiver_list = list(waivers)
    kept: List[Violation] = []
    for violation in raw:
        suppressed = False
        for waiver in waiver_list:
            if waiver.covers(violation.code, violation.line):
                waiver.used = True
                suppressed = True
        if not suppressed:
            kept.append(violation)
    return kept


def _waiver_hygiene(waivers: Iterable[Waiver], path: str) -> List[Violation]:
    """SEX001/002/003 findings for the file's waiver inventory."""
    findings: List[Violation] = []
    valid = set(known_codes())
    for waiver in waivers:
        if waiver.malformed or not waiver.reason.strip():
            findings.append(Violation(
                path=path, line=waiver.line, column=1, code="SEX001",
                message=(
                    "waiver is malformed or missing its reason; write "
                    "'# repro: allow[SEXnnn] <why this is safe>'"
                ),
            ))
            continue
        unknown = [code for code in waiver.codes if code not in valid]
        for code in unknown:
            findings.append(Violation(
                path=path, line=waiver.line, column=1, code="SEX002",
                message=f"waiver names unknown rule code {code}",
            ))
        if not waiver.used and not unknown:
            findings.append(Violation(
                path=path, line=waiver.line, column=1, code="SEX003",
                message=(
                    "waiver suppresses nothing on its line or the next; "
                    "delete it (stale waivers hide future regressions)"
                ),
            ))
    return findings
