"""The linter applied to this repository itself.

Two guarantees, mirroring the acceptance criteria:

* the committed tree is clean — every finding fixed or carrying a
  reasoned pragma (new invariant-breaking code cannot merge), and
* *seeding* a violation — the canonical example is a ``time.time()``
  call added to ``protocols/balanced_ba.py`` — flips the run to
  failing, demonstrated on a copy of the real module so the test never
  mutates the working tree.
"""

import shutil

from repro.lint.config import LintConfig, default_config
from repro.lint.engine import run_lint
from repro.lint.model import Severity
from tests.lint.conftest import REPO_ROOT


def _repo_result():
    config = default_config(REPO_ROOT)
    return run_lint(config)


def test_repo_src_is_clean_with_no_baseline_file():
    result = _repo_result()
    assert not (REPO_ROOT / "lint-baseline.json").exists()
    assert result.violations == [], "\n".join(
        v.format() for v in result.violations
    )
    meta_errors = [
        v for v in result.meta_violations if v.severity is Severity.ERROR
    ]
    assert meta_errors == [], "\n".join(v.format() for v in meta_errors)
    assert result.files_checked > 50  # sanity: the walk saw the real tree


def test_every_repo_suppression_carries_a_reason():
    result = _repo_result()
    assert result.suppressed, "expected the known wall-clock pragmas"
    for violation, pragma in result.suppressed:
        assert pragma.reason.strip(), violation.format()


def test_seeded_wall_clock_in_balanced_ba_fails_the_gate(tmp_path):
    src = REPO_ROOT / "src" / "repro" / "protocols" / "balanced_ba.py"
    dst = tmp_path / "src" / "repro" / "protocols" / "balanced_ba.py"
    dst.parent.mkdir(parents=True)
    shutil.copy(src, dst)

    config = LintConfig(root=tmp_path, paths=("src",))

    # Pristine copy: clean.
    assert run_lint(config).violations == []

    # Seed the violation the gate exists to catch.
    text = dst.read_text(encoding="utf-8")
    import_anchor = "from dataclasses import dataclass"
    def_anchor = "def run_balanced_ba("
    assert import_anchor in text and def_anchor in text
    seeded = text.replace(
        import_anchor, f"import time\n\n{import_anchor}", 1,
    ).replace(
        def_anchor,
        f"def _seeded_probe():\n    return time.time()\n\n\n{def_anchor}",
        1,
    )
    dst.write_text(seeded, encoding="utf-8")

    after = run_lint(config).violations
    assert len(after) == 1
    violation = after[0]
    assert violation.rule_id == "DET002"
    assert "time.time" in violation.message
    assert violation.symbol == "_seeded_probe"


def _wire_module_copy(tmp_path, relative="cluster/meshwire.py"):
    src = REPO_ROOT / "src" / "repro" / relative
    dst = tmp_path / "src" / "repro" / relative
    dst.parent.mkdir(parents=True)
    shutil.copy(src, dst)
    return dst, LintConfig(root=tmp_path, paths=("src",))


def test_deleting_one_mesh_validation_guard_fails_tru001(tmp_path):
    # The acceptance mutation: drop the chunk_index range check from the
    # mesh chunk decoder and the trust-boundary gate must bite.
    dst, config = _wire_module_copy(tmp_path)
    assert run_lint(config).violations == []

    text = dst.read_text(encoding="utf-8")
    guard = (
        "    if chunk_index >= num_chunks:\n"
        "        raise SerializationError(\n"
        '            f"chunk index {chunk_index} out of range "\n'
        '            f"(num_chunks={num_chunks})"\n'
        "        )\n"
    )
    assert guard in text
    dst.write_text(text.replace(guard, "", 1), encoding="utf-8")

    after = run_lint(config).violations
    assert [v.rule_id for v in after] == ["TRU001"]
    assert "chunk_index" in after[0].message
    assert "escape" in after[0].message


def test_reordering_one_frame_pack_field_fails_sch001(tmp_path):
    # The acceptance mutation: swap sender/recipient in the train frame
    # encoder and the schema-drift gate must bite on both positions.
    dst, config = _wire_module_copy(tmp_path, "net/trains.py")
    assert run_lint(config).violations == []

    text = dst.read_text(encoding="utf-8")
    ordered = (
        "            _FRAME.pack(\n"
        "                frame.sender,\n"
        "                frame.recipient,\n"
    )
    swapped = (
        "            _FRAME.pack(\n"
        "                frame.recipient,\n"
        "                frame.sender,\n"
    )
    assert ordered in text
    dst.write_text(text.replace(ordered, swapped, 1), encoding="utf-8")

    after = run_lint(config).violations
    assert [v.rule_id for v in after] == ["SCH001", "SCH001"]
    messages = " | ".join(v.message for v in after)
    assert "field order drift" in messages
    assert "'recipient'" in messages and "'sender'" in messages


def test_fixture_tree_is_excluded_from_the_repo_run():
    # The deliberately-bad fixtures must never pollute the repo gate.
    result = _repo_result()
    assert all("fixtures" not in v.path for v in result.violations)
