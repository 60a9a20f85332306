"""Exception-hygiene rule: EXC001 (swallowed broad excepts).

Byzantine-tolerant code *must* reject malformed adversarial bytes
without crashing — but ``except Exception: return False`` also swallows
genuine programming errors (an AttributeError in the verifier reads as
"signature invalid"), turning soundness bugs into silently-passing
adversarial games.  The sanctioned patterns are:

* narrow to :data:`repro.errors.MALFORMED_INPUT_ERRORS` (the closed set
  of exception types adversarial blob decoding can legitimately raise),
* re-raise after cleanup, or
* keep the broad catch **with an in-line justification**
  (``# lint: allow[EXC001] reason=...``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.model import ModuleUnit, Rule, RuleMeta, Severity, Violation

_BROAD = {"Exception", "BaseException"}

_LOG_NAMES = {"logging", "logger", "log", "warnings"}


def _is_broad(handler_type: "ast.expr | None") -> bool:
    """Bare ``except:``, ``except Exception``, or a tuple holding one."""
    if handler_type is None:
        return True
    if isinstance(handler_type, ast.Name):
        return handler_type.id in _BROAD
    if isinstance(handler_type, ast.Attribute):
        return handler_type.attr in _BROAD
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(element) for element in handler_type.elts)
    return False


def _handles(handler: ast.ExceptHandler) -> bool:
    """Whether the handler visibly deals with the error.

    Counts: any ``raise`` (re-raise or translate), or a call through a
    logging/warnings channel, or printing the error.  Everything else —
    ``pass``, ``continue``, ``return False`` — is a silent swallow.
    """
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            root = func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in _LOG_NAMES:
                return True
            if isinstance(func, ast.Name) and func.id == "print":
                return True
    return False


class BroadExceptRule(Rule):
    """EXC001 — no silent broad excepts."""

    meta = RuleMeta(
        rule_id="EXC001",
        name="swallowed-broad-except",
        severity=Severity.ERROR,
        summary=(
            "bare except / except Exception that neither re-raises nor "
            "logs"
        ),
        rationale=(
            "Adversarial-input rejection is protocol-correct, but "
            "`except Exception` cannot tell a malformed blob from a bug "
            "in the verifier: a TypeError in signature checking reads as "
            "'reject', so a soundness break looks like a passing "
            "security game.  Decode paths raise a closed set of types — "
            "catch repro.errors.MALFORMED_INPUT_ERRORS instead, or "
            "justify the broad catch in-line."
        ),
        fix_hint=(
            "catch repro.errors.MALFORMED_INPUT_ERRORS (or a narrower "
            "type), re-raise, or add "
            "`# lint: allow[EXC001] reason=...`"
        ),
    )

    def check(self, module: ModuleUnit) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node.type):
                continue
            if _handles(node):
                continue
            shape = (
                "bare `except:`" if node.type is None
                else "broad `except Exception`"
            )
            yield self.violation(
                module, node,
                f"{shape} silently swallows errors (bugs become "
                "'reject adversarial input')",
            )
