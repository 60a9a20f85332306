"""Shared helpers for the lint-subsystem tests."""

from pathlib import Path

import pytest

from repro.lint.config import LintConfig
from repro.lint.engine import LintResult, run_lint

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_fixture(*paths: str, rules: tuple = ()) -> LintResult:
    """Run the engine over fixture subtrees.

    The fixture tree mirrors the rules' scope substrings (``runtime/``,
    ``cluster/wire.py``, ``protocols/``, ...) so their scopes apply
    unchanged.
    """
    config = LintConfig(root=FIXTURES, paths=tuple(paths), rules=rules)
    return run_lint(config)


def rule_ids_of(result: LintResult) -> list:
    return [violation.rule_id for violation in result.violations]


@pytest.fixture
def fixtures_root() -> Path:
    return FIXTURES


@pytest.fixture
def repo_root() -> Path:
    return REPO_ROOT
