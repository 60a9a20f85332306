"""repro.lint — protocol-aware static analysis for the repro tree.

Four rules machine-check the invariants the tier-1 suite cannot see
failing (the goldens already pin every charged bit, trace fingerprint
and seeded draw; a seeded-mutation study in ``docs/static_analysis.md``
retired the rules that only duplicated them):

========  =============================================================
ASY001    no fire-and-forget tasks / unawaited coroutines
ASY002    task-shared containers are mutated under their owning lock
EXC001    no silent broad excepts (narrow, re-raise, or justify)
TRU001    wire-decoded fields are guarded before protocol/ledger use
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
