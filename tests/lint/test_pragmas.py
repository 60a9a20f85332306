"""Suppression-pragma semantics: placement, reasons, and meta-rules."""

from repro.lint.config import LintConfig
from repro.lint.engine import run_lint
from repro.lint.pragmas import parse_pragmas
from tests.lint.conftest import FIXTURES, rule_ids_of

#: One silent broad except (EXC001 at line 3); tests splice pragmas in.
SWALLOW = "try:\n    x = 1\nexcept Exception:{pragma}\n    x = 0\n"


def _lint_source(tmp_path, source: str, rules: tuple = ("EXC001",)):
    target = tmp_path / "module.py"
    target.write_text(source, encoding="utf-8")
    config = LintConfig(root=tmp_path, paths=("module.py",), rules=rules)
    return run_lint(config)


def test_same_line_pragma_suppresses(tmp_path):
    result = _lint_source(tmp_path, SWALLOW.format(
        pragma="  # lint: allow[EXC001] reason=teardown path only",
    ))
    assert rule_ids_of(result) == []
    assert len(result.suppressed) == 1
    violation, pragma = result.suppressed[0]
    assert violation.rule_id == "EXC001"
    assert pragma.reason == "teardown path only"


def test_line_above_pragma_suppresses(tmp_path):
    result = _lint_source(
        tmp_path,
        "try:\n"
        "    x = 1\n"
        "# lint: allow[EXC001] reason=the error is reported elsewhere\n"
        "except Exception:\n"
        "    x = 0\n",
    )
    assert rule_ids_of(result) == []
    assert len(result.suppressed) == 1


def test_file_allow_pragma_suppresses_everywhere(tmp_path):
    result = _lint_source(
        tmp_path,
        "# lint: file-allow[EXC001] reason=plugin host, errors are opaque\n"
        + SWALLOW.format(pragma="") + SWALLOW.format(pragma=""),
    )
    assert rule_ids_of(result) == []
    assert len(result.suppressed) == 2


def test_pragma_does_not_leak_to_other_lines(tmp_path):
    result = _lint_source(
        tmp_path,
        SWALLOW.format(pragma="  # lint: allow[EXC001] reason=isolation")
        + "\n\n" + SWALLOW.format(pragma=""),
    )
    assert rule_ids_of(result) == ["EXC001"]
    assert len(result.suppressed) == 1


def test_missing_reason_is_lnt000(tmp_path):
    result = _lint_source(
        tmp_path, SWALLOW.format(pragma="  # lint: allow[EXC001]"),
    )
    meta_ids = [v.rule_id for v in result.meta_violations]
    assert "LNT000" in meta_ids
    # The un-backed pragma must not silence the violation.
    assert rule_ids_of(result) == ["EXC001"]


def test_malformed_rule_id_is_lnt000(tmp_path):
    result = _lint_source(tmp_path, SWALLOW.format(
        pragma="  # lint: allow[exc-1] reason=lowercase id",
    ))
    assert "LNT000" in [v.rule_id for v in result.meta_violations]
    assert rule_ids_of(result) == ["EXC001"]


def test_unused_pragma_is_lnt001(tmp_path):
    result = _lint_source(
        tmp_path,
        "# lint: allow[EXC001] reason=nothing here actually needs this\n"
        "x = 1\n",
    )
    assert [v.rule_id for v in result.meta_violations] == ["LNT001"]
    assert rule_ids_of(result) == []


def test_unused_pragma_not_reported_for_inactive_rules(tmp_path):
    # A subset run must not flag pragmas for rules it never evaluated.
    result = _lint_source(
        tmp_path,
        "# lint: allow[ASY001] reason=retained by the caller\n"
        "x = 1\n",
        rules=("EXC001",),
    )
    assert result.meta_violations == []


def test_pragmas_inside_strings_are_ignored():
    source = (
        'DOC = """\n'
        "# lint: allow[TRU001] reason=this is documentation, not a pragma\n"
        '"""\n'
        "# lint: allow[EXC001] reason=a real comment pragma\n"
        "x = 1\n"
    )
    index = parse_pragmas(source)
    assert index.problems == []
    assert len(index.pragmas) == 1
    assert index.pragmas[0].rule_ids == ("EXC001",)


def test_repo_fixture_suppression_records_reason():
    config = LintConfig(root=FIXTURES, paths=("exceptions/exc001_ok.py",))
    result = run_lint(config)
    assert result.violations == []
    (_, pragma), = result.suppressed
    assert "adversarial blob rejection" in pragma.reason
