"""SARIF 2.1.0 rendering of an :class:`~.diagnostics.AnalysisReport`.

SARIF (Static Analysis Results Interchange Format) is the exchange
format code-scanning UIs ingest; CI uploads the document as a build
artifact so reviewers get checker findings inline.  The renderer is a
pure function of the report plus the rule registry: the ``tool.driver``
rule inventory always lists *every* registered rule (clean runs still
document what was checked), and results reference rules by index for
compact viewers.

Output is deterministic — rules and results are emitted in sorted
order and the CLI serializes with sorted keys — so two runs over the
same tree produce byte-identical documents.
"""

from __future__ import annotations

from typing import Dict, List

from .diagnostics import AnalysisReport, Violation

#: SARIF specification version emitted in the envelope.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_inventory() -> List[Dict[str, object]]:
    """Every registered rule (engine meta rules included), sorted by code."""
    from .rules import META_CODES, RULES

    inventory: List[Dict[str, object]] = []
    for code in sorted(META_CODES):
        inventory.append({
            "id": code,
            "name": code,
            "shortDescription": {"text": META_CODES[code]},
        })
    for code in sorted(RULES):
        rule = RULES[code]
        inventory.append({
            "id": code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
        })
    return inventory


def _result(violation: Violation, rule_index: Dict[str, int]) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": violation.code,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": violation.path.replace("\\", "/"),
                },
                "region": {
                    "startLine": violation.line,
                    "startColumn": violation.column,
                },
            },
        }],
    }
    index = rule_index.get(violation.code)
    if index is not None:
        result["ruleIndex"] = index
    return result


def sarif_report(report: AnalysisReport) -> Dict[str, object]:
    """The SARIF 2.1.0 document for ``report`` (a plain JSON-able dict)."""
    rules = _rule_inventory()
    rule_index = {
        str(rule["id"]): position for position, rule in enumerate(rules)
    }
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.analysis",
                    "informationUri": "docs/ANALYSIS.md",
                    "rules": rules,
                },
            },
            "results": [
                _result(violation, rule_index)
                for violation in sorted(report.violations)
            ],
            "properties": {
                "filesChecked": report.files_checked,
                "ok": report.ok,
            },
        }],
    }
