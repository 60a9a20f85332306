"""The interprocedural layer: project rules and cross-module resolution.

Fixture pairs mirror ``test_rules.py`` (one good/bad tree per rule);
the call-resolution test runs over the deliberate import cycle in
``fixtures/xmod_graph``.
"""

import shutil

from repro.lint.config import LintConfig
from repro.lint.engine import iter_source_files, load_module, run_lint
from repro.lint.model import ModuleUnit
from repro.lint.xmod.project import ProjectUnit
from tests.lint.conftest import FIXTURES, lint_fixture, rule_ids_of


# -- TRU001: trust-boundary taint --------------------------------------------

def test_tru001_flags_unguarded_field_and_tainted_sinks():
    result = lint_fixture("xmod_tru_bad", rules=("TRU001",))
    ids = rule_ids_of(result)
    assert ids.count("TRU001") == 4
    messages = " | ".join(v.message for v in result.violations)
    # (a) the decoder lets one field escape unguarded...
    assert "charge_bits" in messages and "escape" in messages
    # (b) ...and wire-derived data reaches both sink kinds.
    assert "record_message" in messages
    assert "record_multicast" in messages
    assert "advance_round" in messages
    assert "wire data ingested at line" in messages


def test_tru001_decoder_field_violation_anchors_at_the_escape_line():
    result = lint_fixture("xmod_tru_bad", rules=("TRU001",))
    field_violations = [
        v for v in result.violations if "escape" in v.message
    ]
    assert len(field_violations) == 1
    # The finding lands on the constructor kwarg line (pragma-able per
    # field), not on the shared unpack line.
    assert "charge_bits=charge_bits" in field_violations[0].snippet


def test_tru001_accepts_guarded_construction_and_sanitizers():
    result = lint_fixture("xmod_tru_ok", rules=("TRU001",))
    assert rule_ids_of(result) == []


# -- ASY002: shared-state lock discipline ------------------------------------

def test_asy002_flags_lock_affine_and_cross_context_mutations():
    result = lint_fixture("xmod_asy_bad", rules=("ASY002",))
    ids = rule_ids_of(result)
    assert ids.count("ASY002") == 3
    messages = " | ".join(v.message for v in result.violations)
    assert "'_inbox'" in messages and "without holding" in messages
    assert "'_journal'" in messages
    assert "both thread and event-loop contexts" in messages


def test_asy002_accepts_locked_mutations_and_single_writers():
    result = lint_fixture("xmod_asy_ok", rules=("ASY002",))
    assert rule_ids_of(result) == []


def test_asy002_is_scoped_to_concurrency_surfaces(tmp_path):
    # The same class outside runtime/cluster/serve is out of scope.
    shutil.copy(FIXTURES / "xmod_asy_bad" / "runtime" / "state.py",
                tmp_path / "state.py")
    config = LintConfig(root=tmp_path, paths=("state.py",), rules=("ASY002",))
    assert rule_ids_of(run_lint(config)) == []


# -- cross-module call resolution ----------------------------------------------

def test_project_resolves_calls_across_an_import_cycle():
    config = LintConfig(root=FIXTURES, paths=("xmod_graph",))
    project = ProjectUnit.from_modules(
        loaded
        for path in iter_source_files(config)
        if isinstance(loaded := load_module(path, config), ModuleUnit)
    )
    assert sorted(project.facts) == [
        "xmod_graph.pkg", "xmod_graph.pkg.a",
        "xmod_graph.pkg.b", "xmod_graph.pkg.c",
    ]
    assert set(project.functions) == {
        "xmod_graph.pkg.a.alpha", "xmod_graph.pkg.a.orphan",
        "xmod_graph.pkg.b.beta", "xmod_graph.pkg.b.helper",
        "xmod_graph.pkg.c.gamma",
    }
    edges = {
        (caller, target)
        for caller, (modname, function) in project.functions.items()
        for call in function.calls
        if (target := project.resolve_call(modname, function, call))
        in project.functions
    }
    assert edges == {
        ("xmod_graph.pkg.a.alpha", "xmod_graph.pkg.b.helper"),
        ("xmod_graph.pkg.b.beta", "xmod_graph.pkg.a.alpha"),
    }
