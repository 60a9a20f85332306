"""The linter applied to this repository itself.

Three guarantees:

* the committed tree is clean — every finding fixed or carrying a
  reasoned pragma (new invariant-breaking code cannot merge),
* every rule flips on a *seeded mutation* of a real module — the
  defect it exists for, one the tier-1 suite passes straight over —
  demonstrated on a copy so the test never mutates the working tree
  (``docs/static_analysis.md`` tabulates these mutations next to the
  ones that retired the other rules, which ``test_retired_rules.py``
  replays against tier-1), and
* every scope and sink name a rule hard-codes still names something in
  ``src/``, so a rename cannot switch a rule off in silence.
"""

import shutil
from functools import lru_cache
from typing import Dict, List

import pytest

from repro.lint.config import LintConfig, default_config, in_scope
from repro.lint.engine import run_lint
from repro.lint.model import Severity, Violation
from repro.lint.rules import asyncsafety, trust
from tests.lint.conftest import REPO_ROOT

#: The kept rules' scope constants (path substrings).
SCOPE_TABLES = {
    "asyncsafety.SCOPES": asyncsafety.SCOPES,
    "trust.DECODER_MODULES": trust.DECODER_MODULES,
    "trust.PICKLE_SCOPES": trust.PICKLE_SCOPES,
    "trust.SINK_SCOPES": trust.SINK_SCOPES,
}


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
    assert result.suppressed, "expected the known wire-field pragmas"
    for violation, pragma in result.suppressed:
        assert pragma.reason.strip(), violation.format()


def _mutated(tmp_path, relative: str, old: str, new: str) -> List[Violation]:
    """Lint a copy of ``src/repro/<relative>`` before and after replacing
    ``old`` with ``new``; returns the findings on the mutated copy."""
    src = REPO_ROOT / "src" / "repro" / relative
    dst = tmp_path / "src" / "repro" / relative
    dst.parent.mkdir(parents=True)
    shutil.copy(src, dst)
    config = LintConfig(root=tmp_path, paths=("src",))
    assert run_lint(config).violations == []

    text = dst.read_text(encoding="utf-8")
    assert text.count(old) == 1
    dst.write_text(text.replace(old, new), encoding="utf-8")
    return run_lint(config).violations


def test_deleting_one_mesh_validation_guard_fails_tru001(tmp_path):
    # Drop the chunk_index range check from the mesh chunk decoder: the
    # decoder's acceptance set grows, and the trust-boundary gate bites.
    after = _mutated(
        tmp_path, "cluster/meshwire.py",
        "    if chunk_index >= num_chunks:\n"
        "        raise SerializationError(\n"
        '            f"chunk index {chunk_index} out of range "\n'
        '            f"(num_chunks={num_chunks})"\n'
        "        )\n",
        "",
    )
    assert [v.rule_id for v in after] == ["TRU001"]
    assert "chunk_index" in after[0].message
    assert "escape" in after[0].message


def test_popping_the_mesh_inbox_outside_the_lock_fails_asy002(tmp_path):
    # MeshRouter.collect_round() pops `_inbox` without `_cond`, racing
    # the receiver threads that file each peer's train into it under the
    # lock.
    after = _mutated(
        tmp_path, "cluster/mesh.py",
        "            with self._cond:\n"
        "                entry = self._inbox.pop((peer, round_index))\n",
        "            entry = self._inbox.pop((peer, round_index))\n",
    )
    assert [v.rule_id for v in after] == ["ASY002"]
    assert "MeshRouter.collect_round()" in after[0].message
    assert "'_inbox'" in after[0].message


def test_dropping_the_endpoint_pump_handle_fails_asy001(tmp_path):
    # The TCP endpoint's pump task loses its only strong reference.
    after = _mutated(
        tmp_path, "runtime/transport.py",
        "        endpoint.pump = asyncio.create_task(\n",
        "        asyncio.create_task(\n",
    )
    assert [v.rule_id for v in after] == ["ASY001"]
    assert "garbage-collected" in after[0].message


def test_swallowing_a_corrupt_mesh_chunk_fails_exc001(tmp_path):
    # The mesh receiver reads on past a malformed or out-of-order chunk
    # (and past any bug in the assembler) instead of handing the error
    # to the waiting worker, which would then wait forever.
    after = _mutated(
        tmp_path, "cluster/mesh.py",
        "            except SerializationError as exc:\n"
        "                with self._cond:\n"
        "                    self._failure = exc\n"
        "                    self._cond.notify_all()\n"
        "                return\n",
        "            except Exception:\n"
        "                continue\n",
    )
    assert [v.rule_id for v in after] == ["EXC001"]
    assert "_receive_loop" in after[0].symbol


def test_swallowing_a_broken_worker_channel_fails_exc001(tmp_path):
    # The supervisor's poll loop treats a torn control channel as "no
    # more messages" instead of a dead worker, so the worker is never
    # recovered (the second witness that kept EXC001).
    after = _mutated(
        tmp_path, "cluster/supervisor.py",
        "            except ClusterError as exc:\n"
        "                raise _WorkerDied(str(exc)) from exc\n",
        "            except Exception:\n"
        "                break\n",
    )
    assert [v.rule_id for v in after] == ["EXC001"]
    assert "_poll" in after[0].symbol


@lru_cache(maxsize=1)
def _repo_sources() -> Dict[str, str]:
    """Relative path -> text of every module under ``src/``."""
    return {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
    }


@pytest.mark.parametrize(
    "scope",
    [scope for table in SCOPE_TABLES.values() for scope in table],
    ids=[
        f"{name}:{scope}"
        for name, table in SCOPE_TABLES.items() for scope in table
    ],
)
def test_every_rule_scope_matches_a_repo_module(scope):
    # A scope that matches no file (a package or module renamed under
    # it) would switch its rule off there without a single finding.
    assert any(in_scope(rel, (scope,)) for rel in _repo_sources())


@pytest.mark.parametrize("method", trust.SINK_METHODS)
def test_every_ledger_sink_method_is_defined_in_src(method):
    # TRU001 knows ledger sinks by name: a renamed charging method
    # would leave the sink set without a word.
    assert any(
        f"def {method}(" in text for text in _repo_sources().values()
    )


def test_fixture_tree_is_excluded_from_the_repo_run():
    # The deliberately-bad fixtures must never pollute the repo gate.
    result = _repo_result()
    assert all("fixtures" not in v.path for v in result.violations)
