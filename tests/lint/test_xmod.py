"""The interprocedural layer: project rules and cross-module resolution.

Fixture pairs mirror ``test_rules.py`` (one good/bad tree per rule
family); the call-resolution test runs over the deliberate import cycle
in ``fixtures/xmod_graph``.
"""

from repro.lint.config import LintConfig
from repro.lint.engine import iter_source_files, load_module
from repro.lint.model import ModuleUnit
from repro.lint.rules.schema import struct_field_count
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


# -- SCH001: wire-schema drift -----------------------------------------------

def test_sch001_flags_all_four_drift_kinds():
    result = lint_fixture("xmod_sch_bad", rules=("SCH001",))
    ids = rule_ids_of(result)
    assert ids.count("SCH001") == 5
    messages = " | ".join(v.message for v in result.violations)
    assert "field order drift" in messages          # pack order (x2)
    assert "packs 2 value(s)" in messages           # arity
    assert "never read by Ticket.encode" in messages  # coverage
    assert "'stamp'" in messages                    # constructor kwarg
    order = [v for v in result.violations if "order drift" in v.message]
    assert len(order) == 2


def test_sch001_constructor_drift_is_cross_module():
    result = lint_fixture("xmod_sch_bad", rules=("SCH001",))
    kwarg = [v for v in result.violations if "'stamp'" in v.message]
    assert [v.path for v in kwarg] == ["xmod_sch_bad/builder.py"]


def test_sch001_accepts_matching_codecs_and_affix_pairs():
    result = lint_fixture("xmod_sch_ok", rules=("SCH001",))
    assert rule_ids_of(result) == []


def test_struct_field_count_parses_repeat_string_and_pad_codes():
    assert struct_field_count(">BIIIII") == 6
    assert struct_field_count(">IIIIqIHI") == 8
    assert struct_field_count("<4s2xI") == 2   # 4s = one value, x = none
    assert struct_field_count("3i") == 3
    assert struct_field_count("!Hp") == 2


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


def test_asy002_is_scoped_to_concurrency_surfaces():
    # The same class outside runtime/cluster/serve is out of scope.
    src = FIXTURES / "xmod_asy_bad" / "runtime" / "state.py"
    elsewhere = FIXTURES / "anywhere" / "_asy002_copy.py"
    elsewhere.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    try:
        result = lint_fixture(
            "anywhere/_asy002_copy.py", rules=("ASY002",)
        )
        assert rule_ids_of(result) == []
    finally:
        elsewhere.unlink()


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


