"""Fixture-driven positive/negative tests for the per-file rules."""

import dataclasses
import shutil

from repro.lint.config import LintConfig
from repro.lint.engine import run_lint
from tests.lint.conftest import FIXTURES, lint_fixture, rule_ids_of


# -- ASY001: fire-and-forget async ------------------------------------------

def test_asy001_flags_dropped_tasks_and_unawaited_coroutines():
    result = lint_fixture("runtime/asy001_bad.py")
    ids = rule_ids_of(result)
    assert ids.count("ASY001") == 4  # create_task, ensure_future,
    #                                  bare pump(), self.drain()
    messages = " | ".join(v.message for v in result.violations)
    assert "garbage-collected" in messages
    assert "never" in messages and "awaited" in messages


def test_asy001_accepts_retained_and_awaited():
    result = lint_fixture("runtime/asy001_ok.py")
    assert rule_ids_of(result) == []


def test_asy001_is_scoped_to_async_execution_layers(tmp_path):
    # The same dropped tasks outside runtime/cluster/serve (e.g. an
    # analysis helper spawning a task) are out of ASY001's blast radius.
    shutil.copy(FIXTURES / "runtime" / "asy001_bad.py", tmp_path / "helper.py")
    result = run_lint(LintConfig(root=tmp_path, paths=("helper.py",)))
    assert "ASY001" not in rule_ids_of(result)


# -- EXC001: swallowed broad excepts ----------------------------------------

def test_exc001_flags_silent_broad_excepts():
    result = lint_fixture("exceptions/exc001_bad.py")
    ids = rule_ids_of(result)
    assert ids.count("EXC001") == 3  # except Exception, bare, tuple


def test_exc001_accepts_narrow_reraise_logged_and_justified():
    result = lint_fixture("exceptions/exc001_ok.py")
    assert rule_ids_of(result) == []
    assert [v.rule_id for v, _ in result.suppressed] == ["EXC001"]


# -- cross-cutting -----------------------------------------------------------

def test_rules_can_be_subset():
    result = lint_fixture("runtime/asy001_bad.py", rules=("EXC001",))
    assert rule_ids_of(result) == []  # ASY001 sites, EXC001-only run


def test_violations_carry_symbol_and_snippet():
    result = lint_fixture("exceptions/exc001_bad.py")
    violation = result.violations[0]
    assert violation.symbol == "swallow_all"
    assert "except" in violation.snippet
    assert violation.fix_hint


def test_lint_config_carries_no_per_rule_knob():
    # Each rule reads its scope from its own module constants.
    assert [f.name for f in dataclasses.fields(LintConfig)] == [
        "root", "paths", "exclude_dirs", "rules",
    ]
