"""Meta-tests: the experiment index stays consistent across artifacts.

DESIGN.md promises a bench target per experiment; the report assembler
knows each record name; the benchmark modules must actually exist.
These tests keep documentation, harness, and report in lock-step.
"""

import importlib
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _design_text() -> str:
    return (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")


class TestDesignIndex:
    def test_every_bench_target_exists(self):
        """Every `benchmarks/...py` referenced in DESIGN.md is a file."""
        targets = set(re.findall(r"`(benchmarks/[\w_]+\.py)`",
                                 _design_text()))
        assert targets, "DESIGN.md should reference bench targets"
        for target in targets:
            assert (REPO_ROOT / target).exists(), f"missing {target}"

    def test_every_benchmark_module_indexed(self):
        """Every benchmark module appears in DESIGN.md's index."""
        design = _design_text()
        for path in (REPO_ROOT / "benchmarks").glob("test_*.py"):
            assert f"benchmarks/{path.name}" in design, (
                f"{path.name} is not in DESIGN.md's experiment index"
            )

    def test_experiment_ids_cover_t1_f123_e_series(self):
        design = _design_text()
        for exp_id in ["T1", "F1", "F2", "F3"] + [
            f"E{i}" for i in range(1, 13)
        ]:
            assert f"| {exp_id} " in design, f"{exp_id} missing from index"


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reachable from
    the longest importable prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(found, attribute):
                return False
            found = getattr(found, attribute)
        return True
    return False


class TestDesignNamesResolve:
    def test_every_repro_name_in_design_md_exists(self):
        """Every `` `repro.…` `` name DESIGN.md quotes is a module or an
        attribute of one (``repro.pkg.*`` stands for the package)."""
        names = set(re.findall(r"`(repro(?:\.\w+)+)(?:\.\*)?`", _design_text()))
        assert len(names) > 50, "DESIGN.md should carry the module map"
        missing = sorted(name for name in names if not _resolves(name))
        assert not missing, f"DESIGN.md names that do not exist: {missing}"

    def test_the_check_bites(self):
        assert _resolves("repro.srds.pcd.board_binding")
        assert not _resolves("repro.srds.signature")
        assert not _resolves("repro.srds.pcd.no_such_function")


class TestReportSections:
    def test_experiments_md_mentions_every_record(self):
        """Each write_result(...) name in benchmarks/test_*.py is a
        ``results/<name>.txt`` that EXPERIMENTS.md references."""
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text(
            encoding="utf-8"
        )
        written = set()
        for path in (REPO_ROOT / "benchmarks").glob("test_*.py"):
            written.update(
                re.findall(r'write_result\([^,]+,\s*"([\w_]+)"',
                           path.read_text(encoding="utf-8"))
            )
        assert written, "benchmarks should write result records"
        missing = sorted(
            name for name in written
            if f"results/{name}.txt" not in experiments
        )
        assert not missing, (
            f"EXPERIMENTS.md does not reference results/<name>.txt for "
            f"{missing}"
        )


class TestDocsExist:
    def test_required_documents(self):
        for relative in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                         "docs/paper_map.md", "docs/substitutions.md"):
            assert (REPO_ROOT / relative).exists(), f"missing {relative}"

    def test_design_records_paper_match(self):
        assert "Paper-text check" in _design_text()
