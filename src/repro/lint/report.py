"""Reporters: human text and machine JSON (``repro-lint-report/1``).

The JSON document is the CI artifact — it carries the full decomposition
(new / suppressed / meta) so a dashboard can audit every suppression
without re-running the linter.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.lint.engine import LintResult
from repro.lint.model import Severity, Violation
from repro.lint.pragmas import Pragma

REPORT_SCHEMA = "repro-lint-report/1"


def _violation_payload(violation: Violation) -> Dict[str, Any]:
    return {
        "rule": violation.rule_id,
        "severity": str(violation.severity),
        "path": violation.path,
        "line": violation.line,
        "col": violation.col,
        "symbol": violation.symbol,
        "message": violation.message,
        "fix_hint": violation.fix_hint,
        "snippet": violation.snippet,
    }


def render_json(result: LintResult, exit_code: int) -> str:
    """The machine report (stable key order, newline-terminated)."""
    payload: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "exit_code": exit_code,
        "files_checked": result.files_checked,
        "counts": {
            "new": len(result.violations),
            "suppressed": len(result.suppressed),
            "meta": len(result.meta_violations),
        },
        "new": [_violation_payload(v) for v in result.violations],
        "suppressed": suppressions_payload(result.suppressed),
        "meta": [_violation_payload(v) for v in result.meta_violations],
    }
    return json.dumps(payload, indent=2) + "\n"


def render_text(result: LintResult) -> str:
    """The human report: findings first, then the one-line summary."""
    sections: List[str] = []

    def emit(title: str, violations: List[Violation]) -> None:
        if not violations:
            return
        lines = [f"-- {title} " + "-" * max(0, 60 - len(title))]
        lines.extend(v.format() for v in violations)
        sections.append("\n".join(lines))

    emit("new violations (fail)", result.violations)
    meta_errors = [
        v for v in result.meta_violations if v.severity is Severity.ERROR
    ]
    meta_warnings = [
        v for v in result.meta_violations if v.severity is Severity.WARNING
    ]
    emit("annotation problems (fail)", meta_errors)
    emit("advisories", meta_warnings)

    if result.suppressed:
        lines = [f"pragma-suppressed: {len(result.suppressed)} "
                 "(see --format json for the audit trail)"]
        sections.append("\n".join(lines))

    summary = (
        f"checked {result.files_checked} files: "
        f"{len(result.violations)} new, "
        f"{len(result.suppressed)} suppressed, "
        f"{len(meta_errors)} annotation errors"
    )
    sections.append(summary)
    return "\n\n".join(sections) + "\n"


def suppressions_payload(
    suppressed: List[Tuple[Violation, Pragma]],
) -> List[Dict[str, Any]]:
    """JSON-shaped pragma suppressions (audit trail helper)."""
    return [
        {
            **_violation_payload(violation),
            "pragma_line": pragma.line,
            "pragma_reason": pragma.reason,
        }
        for violation, pragma in suppressed
    ]
