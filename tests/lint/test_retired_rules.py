"""The defect each retired lint rule existed for still fails tier-1.

The seeded-mutation study in ``docs/static_analysis.md`` retired six
rules because a tier-1 test already fails on the defect each one
guarded.  This module keeps that verdict checkable: every case applies
its rule's mutation to a copy of ``src/`` and runs, against the copy and
in a subprocess, the tier-1 test that catches it — which must fail.
Should that test ever be weakened, the retirement stops being justified
and the case says so.
"""

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

from tests.lint.conftest import REPO_ROOT


@dataclass(frozen=True)
class Retirement:
    """One retired rule: its seeded mutation and the test that catches it."""

    rule_id: str
    #: File under ``src/repro`` that the mutation edits.
    relative: str
    #: ``(old, new)`` replacements; each ``old`` occurs exactly once.
    edits: Tuple[Tuple[str, str], ...]
    #: Tier-1 node id that fails on the mutated tree.
    catcher: str


RETIRED = (
    # A frame header written with sender and recipient swapped.
    Retirement(
        "SCH001", "net/trains.py",
        ((
            "                frame.sender,\n"
            "                frame.recipient,\n",
            "                frame.recipient,\n"
            "                frame.sender,\n",
        ),),
        "tests/runtime/test_transport.py::TestFrameEncoding::test_roundtrip",
    ),
    # Corruption drawn from the unseeded module-level generator.
    Retirement(
        "DET001", "net/adversary.py",
        (
            ("from dataclasses import dataclass\n",
             "import random\nfrom dataclasses import dataclass\n"),
            ("rng.sample(range(n), t)", "random.sample(range(n), t)"),
        ),
        "tests/net/test_adversary.py::TestPlans::test_deterministic_given_seed",
    ),
    # Every trace event stamped with a wall-clock reading.
    Retirement(
        "DET002", "runtime/trace.py",
        ((
            "        self._clock = clock\n",
            "        self._clock = clock or time.perf_counter\n",
        ),),
        "tests/runtime/test_differential.py::test_same_seed_identical_traces",
    ),
    # Bytes cross a link without being charged.
    Retirement(
        "ACC001", "net/rounds.py",
        (("            charge_bits=bits,\n", "            charge_bits=0,\n"),),
        "tests/net/test_simulator.py::TestMetricsIntegration"
        "::test_traffic_charged",
    ),
    # Committee BA's hybrid charge made outside its span.
    Retirement(
        "OBS001", "protocols/balanced_ba.py",
        ((
            "            charge = cost_model.committee_ba(len(committee))\n"
            "            self.metrics.charge_functionality(\n"
            "                committee, charge.bits_per_party, "
            "charge.peers_per_party,\n"
            "                charge.rounds,\n"
            "            )\n",
            "            charge = cost_model.committee_ba(len(committee))\n"
            "        self.metrics.charge_functionality(\n"
            "            committee, charge.bits_per_party, "
            "charge.peers_per_party,\n"
            "            charge.rounds,\n"
            "        )\n",
        ),),
        "tests/protocols/test_phase_attribution.py::TestGoldenBreakdown"
        "::test_breakdown_matches_golden[snark-srds]",
    ),
    # A repro-spec line that forgets its crash schedule.
    Retirement(
        "SER001", "campaign/spec.py",
        (('        parts.append(f"crashes={entries}")\n', ""),),
        "tests/campaign/test_spec.py::TestRoundTrip::test_with_crashes",
    ),
)


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    """A copy of ``src/``, ``tests/`` and ``pyproject.toml``."""
    root = tmp_path_factory.mktemp("retired")
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    shutil.copytree(REPO_ROOT / "src", root / "src", ignore=skip)
    shutil.copytree(REPO_ROOT / "tests", root / "tests", ignore=skip)
    shutil.copy(REPO_ROOT / "pyproject.toml", root / "pyproject.toml")
    return root


def _run_tier1(root: Path, *node_ids: str) -> subprocess.CompletedProcess:
    """Run ``node_ids`` with pytest in ``root``, importing its ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf",
         "-p", "no:cacheprovider", *node_ids],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )


def test_every_catcher_passes_on_the_unmutated_copy(tree):
    run = _run_tier1(tree, *(retirement.catcher for retirement in RETIRED))
    assert run.returncode == 0, run.stdout + run.stderr
    assert "skipped" not in run.stdout


@pytest.mark.parametrize(
    "retirement", RETIRED, ids=[r.rule_id for r in RETIRED],
)
def test_the_retired_rules_mutation_fails_its_catcher(tree, retirement):
    target = tree / "src" / "repro" / retirement.relative
    original = target.read_text(encoding="utf-8")
    mutated = original
    for old, new in retirement.edits:
        assert mutated.count(old) == 1, old
        mutated = mutated.replace(old, new)
    target.write_text(mutated, encoding="utf-8")
    try:
        run = _run_tier1(tree, retirement.catcher)
    finally:
        target.write_text(original, encoding="utf-8")
    assert run.returncode == 1, run.stdout + run.stderr
    assert f"FAILED {retirement.catcher}" in run.stdout, run.stdout
