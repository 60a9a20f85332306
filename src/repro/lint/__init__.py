"""repro.lint — protocol-aware static analysis for the repro tree.

Seven domain rules machine-check the invariants the paper's
quantitative claims rest on:

========  =============================================================
DET001    all randomness descends from a seeded ``Randomness`` source
DET002    no wall-clock reads in protocol scopes (injected clock only)
ACC001    no byte path bypasses the ``CommunicationMetrics`` charge seam
OBS001    instrumented protocols charge inside ``repro.obs`` phase spans
ASY001    no fire-and-forget tasks / unawaited coroutines
EXC001    no silent broad excepts (narrow, re-raise, or justify)
SER001    wire-module dataclasses carry an encode/decode round-trip
========  =============================================================

Plus engine meta-rules LNT000 (malformed pragma), LNT001 (unused
pragma), LNT002 (parse error).  Suppression is explicit and audited,
and has one channel: a ``# lint: allow[RULE] reason=...`` pragma at the
site.  See ``docs/static_analysis.md`` and ``python -m repro lint explain <RULE>``.
"""

from repro.lint.config import LintConfig, default_config
from repro.lint.engine import LintResult, run_lint
from repro.lint.model import ModuleUnit, Rule, RuleMeta, Severity, Violation
from repro.lint.rules import ALL_RULES, get_rule, rule_ids

__all__ = [
    "ALL_RULES",
    "LintConfig",
    "LintResult",
    "ModuleUnit",
    "Rule",
    "RuleMeta",
    "Severity",
    "Violation",
    "default_config",
    "get_rule",
    "rule_ids",
    "run_lint",
]
