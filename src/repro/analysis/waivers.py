"""Inline waiver comments: ``# repro: allow[SEX101] <reason>``.

A waiver suppresses named rule codes on its own line and on the line
immediately below it, so both trailing comments::

    handle = open(path)  # repro: allow[SEX101] result file, not block I/O

and standalone comments above the offending statement work::

    # repro: allow[SEX101] result file, not block I/O
    handle = open(path)

The reason string is mandatory — an empty reason makes the waiver inert
and is itself reported as ``SEX001`` — and every waiver must actually
suppress something (``SEX003`` otherwise), so stale waivers cannot
accumulate.  Multiple codes are comma-separated: ``allow[SEX101,SEX104]``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import List, Tuple

#: Shape of a single rule code (``SEX`` + three digits).
CODE_PATTERN = re.compile(r"^SEX\d{3}$")

#: A well-formed waiver comment: marker, bracketed code list, free reason.
_WAIVER_PATTERN = re.compile(
    r"#\s*repro:\s*allow\[(?P<codes>[^\]]*)\]\s*(?P<reason>.*)$"
)

#: Anything that *looks* like a waiver attempt (used to flag malformed ones).
_ATTEMPT_PATTERN = re.compile(r"#\s*repro:\s*allow\b")


@dataclass
class Waiver:
    """One parsed waiver comment.

    Attributes:
        line: 1-based line the comment sits on.
        codes: the rule codes it names (may be empty when malformed).
        reason: the justification text after the bracket (may be empty).
        malformed: the comment tried to be a waiver but failed to parse.
        used: set by the engine when the waiver suppressed a violation.
    """

    line: int
    codes: Tuple[str, ...] = ()
    reason: str = ""
    malformed: bool = False
    used: bool = field(default=False, compare=False)

    @property
    def active(self) -> bool:
        """Whether this waiver can suppress anything at all."""
        return bool(self.codes) and bool(self.reason.strip()) and not self.malformed

    def covers(self, code: str, line: int) -> bool:
        """Whether this waiver suppresses ``code`` at ``line``."""
        return self.active and code in self.codes and line in (self.line, self.line + 1)


def extract_waivers(source: str) -> List[Waiver]:
    """Parse every waiver comment in ``source``, malformed ones included.

    Tokenizes rather than regex-scanning raw lines so a waiver-shaped
    string *literal* is never mistaken for a comment.  Tokenization
    errors are ignored here — the engine reports unparseable files
    through its own ``SEX004`` path.
    """
    waivers: List[Waiver] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, ValueError):
        return waivers
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        if not _ATTEMPT_PATTERN.search(token.string):
            continue
        waivers.append(_parse_comment(token.string, token.start[0]))
    return waivers


def _parse_comment(comment: str, line: int) -> Waiver:
    match = _WAIVER_PATTERN.search(comment)
    if match is None:
        return Waiver(line=line, malformed=True)
    raw_codes = [code.strip() for code in match.group("codes").split(",")]
    codes = tuple(code for code in raw_codes if code)
    if not codes or any(not CODE_PATTERN.match(code) for code in codes):
        return Waiver(line=line, codes=codes, reason=match.group("reason").strip(),
                      malformed=True)
    return Waiver(line=line, codes=codes, reason=match.group("reason").strip())
