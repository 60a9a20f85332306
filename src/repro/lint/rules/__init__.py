"""Rule registry for the protocol-aware linter.

Every concrete rule is instantiated once here; the engine iterates
:data:`ALL_RULES`, and the CLI's ``rules``/``explain`` subcommands read
the same registry so documentation can never drift from enforcement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lint.model import Rule
from repro.lint.rules.asyncsafety import FireAndForgetRule, SharedStateRule
from repro.lint.rules.exceptions import BroadExceptRule
from repro.lint.rules.trust import TrustBoundaryRule

#: Every registered rule, in rule-id order.
ALL_RULES: Tuple[Rule, ...] = (
    FireAndForgetRule(),  # ASY001
    SharedStateRule(),    # ASY002
    BroadExceptRule(),    # EXC001
    TrustBoundaryRule(),  # TRU001
)

_BY_ID: Dict[str, Rule] = {rule.meta.rule_id: rule for rule in ALL_RULES}


def get_rule(rule_id: str) -> Optional[Rule]:
    """Look a rule up by id (``None`` for unknown ids)."""
    return _BY_ID.get(rule_id)


def rule_ids() -> List[str]:
    """All registered rule ids, sorted."""
    return sorted(_BY_ID)


def select_rules(ids: Tuple[str, ...]) -> Tuple[Rule, ...]:
    """The subset of rules named by ``ids`` (empty = all)."""
    if not ids:
        return ALL_RULES
    return tuple(rule for rule in ALL_RULES if rule.meta.rule_id in ids)
