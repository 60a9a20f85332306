"""End-to-end CLI behaviour: subcommands, formats, and exit codes."""

import json

import pytest

from repro.lint.cli import cmd_lint
from tests.lint.conftest import FIXTURES


#: A decoder that swallows every error: one EXC001 site.
PROTO = (
    "def run(blob):\n"
    "    try:\n"
    "        return int(blob)\n"
    "    except Exception:{pragma}\n"
    "        return None\n"
)


@pytest.fixture
def tree(tmp_path):
    """A minimal repo-shaped tree with one EXC001 violation."""
    (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
    src = tmp_path / "src" / "protocols"
    src.mkdir(parents=True)
    (src / "proto.py").write_text(PROTO.format(pragma=""), encoding="utf-8")
    return tmp_path


def test_check_exits_nonzero_on_new_violation(tree, capsys):
    code = cmd_lint(["check", "--root", str(tree)])
    out = capsys.readouterr().out
    assert code == 1
    assert "EXC001" in out
    assert "protocols/proto.py" in out.replace("\\", "/")


def test_a_reasoned_pragma_is_the_one_way_to_pass(tree, capsys):
    proto = tree / "src" / "protocols" / "proto.py"
    proto.write_text(PROTO.format(
        pragma="  # lint: allow[EXC001] reason=fixture: None is the verdict",
    ), encoding="utf-8")
    code = cmd_lint(["check", "--root", str(tree)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new, 1 suppressed" in out
    assert not (tree / "lint-baseline.json").exists()


def test_check_json_format_and_output_file(tree, tmp_path, capsys):
    report_path = tmp_path / "lint-report.json"
    code = cmd_lint([
        "check", "--root", str(tree),
        "--format", "json", "--output", str(report_path),
    ])
    assert code == 1
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro-lint-report/1"
    assert payload["exit_code"] == 1
    assert any(v["rule"] == "EXC001" for v in payload["new"])
    assert set(payload["counts"]) == {"new", "suppressed", "meta"}
    # stdout only carries the pointer line, not the report body
    out = capsys.readouterr().out
    assert "lint report ->" in out


def test_rules_subset_flag(tree, capsys):
    code = cmd_lint(["check", "--root", str(tree), "--rules", "ASY001"])
    capsys.readouterr()
    assert code == 0  # the EXC001 site is invisible to an ASY001-only run


def test_unknown_rule_id_is_usage_error(tree, capsys):
    code = cmd_lint(["check", "--root", str(tree), "--rules", "NOPE999"])
    out = capsys.readouterr().out
    assert code == 2
    assert "unknown rule" in out


def test_explain_prints_rationale(capsys):
    assert cmd_lint(["explain", "TRU001"]) == 0
    out = capsys.readouterr().out
    assert "TRU001" in out
    assert "reason=" in out  # shows the suppression recipe


def test_explain_unknown_rule(capsys):
    assert cmd_lint(["explain", "ZZZ999"]) == 2


def test_rules_lists_every_rule(capsys):
    assert cmd_lint(["rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("ASY001", "ASY002", "EXC001", "TRU001",
                    "LNT000", "LNT001", "LNT002"):
        assert rule_id in out
    # Retired by the seeded-mutation study: tier-1 already catches them.
    for rule_id in ("DET001", "DET002", "ACC001", "OBS001",
                    "SER001", "SCH001"):
        assert rule_id not in out


def test_no_subcommand_is_usage_error(capsys):
    assert cmd_lint([]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["graph"], ["check", "--no-cache"], ["baseline"],
        ["baseline", "--prune"], ["check", "--no-baseline"],
        ["check", "--baseline", "lint-baseline.json"],
    ],
    ids=[
        "graph", "check --no-cache", "baseline", "baseline --prune",
        "check --no-baseline", "check --baseline",
    ],
)
def test_the_cache_graph_and_baseline_surface_is_gone(tree, argv, capsys):
    assert cmd_lint([*argv, "--root", str(tree)]) == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tree / ".lint-cache.json").exists()
    assert not (tree / "lint-baseline.json").exists()


def test_check_on_fixture_tree_with_explicit_paths(capsys):
    code = cmd_lint([
        "check", "--root", str(FIXTURES), "exceptions/exc001_ok.py",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "suppressed" in out
