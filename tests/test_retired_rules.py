"""The defect each retired lint rule existed for still fails tier-1.

The repo once ran a domain linter of ten rules.  A seeded-mutation
study (``docs/testing.md`` § "Retired lint rules") retired six because
a tier-1 test already failed on the defect each one guarded; three more
(ASY001, EXC001, TRU001) left once tier-1 gained a test that fails on
theirs, and the linter went with them.  This module keeps those
verdicts checkable: every case applies its rule's mutation to a copy of
``src/`` and runs, against the copy and in a subprocess, the tier-1
test that catches it — which must fail.  Should that test ever be
weakened, the retirement stops being justified and the case says so.

ASY002 has no row.  Its mutation popped the mesh inbox outside the
lock its receiver threads filled it under — a race the GIL hides from
every test.  The hazard is gone instead: the receiver threads hand
their trains over a queue, and the inbox belongs to the stepping
thread alone (``repro.cluster.mesh.MeshRouter``).
"""

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


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
        ((
            "                    deliver_round, bits, seq,",
            "                    deliver_round, 0, seq,",
        ),),
        "tests/net/test_simulator.py::TestMetricsIntegration"
        "::test_traffic_charged",
    ),
    # Committee BA's hybrid charge made outside its span.
    Retirement(
        "OBS001", "protocols/balanced_ba.py",
        ((
            "            charge = cost_model.committee_ba(len(committee))\n"
            "            metrics.charge_functionality(\n"
            "                committee, charge.bits_per_party, "
            "charge.peers_per_party,\n"
            "                charge.rounds,\n"
            "            )\n",
            "            charge = cost_model.committee_ba(len(committee))\n"
            "        metrics.charge_functionality(\n"
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
    # A TCP endpoint's receive pump started with no handle kept, so
    # stop() returns while it still runs.
    Retirement(
        "ASY001", "runtime/transport.py",
        ((
            "        endpoint.pump = asyncio.create_task(\n",
            "        asyncio.create_task(\n",
        ),),
        "tests/runtime/test_transport.py::TestTcpTransport"
        "::test_stop_awaits_every_receive_pump",
    ),
    # The supervisor reads a corrupt control channel as "no more
    # messages" instead of a dead worker.
    Retirement(
        "EXC001", "cluster/supervisor.py",
        ((
            "            except ClusterError as exc:\n"
            "                raise _WorkerDied(str(exc)) from exc\n",
            "            except Exception:\n"
            "                break\n",
        ),),
        "tests/cluster/test_mesh_faults.py::TestABrokenChannelIsADeadWorker"
        "::test_a_corrupt_control_frame_kills_the_worker_at_once",
    ),
    # A mesh train header whose halted byte is neither 0 nor 1, returned
    # as a flag anyway.
    Retirement(
        "TRU001", "cluster/meshwire.py",
        ((
            "    if halted > 1:\n"
            '        raise SerializationError(f"mesh halted flag {halted} '
            'is not 0 or 1")\n',
            "",
        ),),
        "tests/test_fuzz_decoding.py::TestClusterDecoders"
        "::test_out_of_range_train_header_fields[halted-two]",
    ),
)


def copy_repo(root: Path, source: Path = REPO_ROOT) -> Path:
    """Copy ``source``'s ``src/``, ``tests/`` and ``pyproject.toml``
    into ``root``."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    shutil.copytree(source / "src", root / "src", ignore=skip)
    shutil.copytree(source / "tests", root / "tests", ignore=skip)
    shutil.copy(source / "pyproject.toml", root / "pyproject.toml")
    return root


def run_tier1(root: Path, *args: str,
              timeout: float = 300) -> subprocess.CompletedProcess:
    """Run pytest with ``args`` in ``root``, importing its ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf",
         "-p", "no:cacheprovider", *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    return copy_repo(tmp_path_factory.mktemp("retired"))


def test_every_catcher_passes_on_the_unmutated_copy(tree):
    run = run_tier1(tree, *(retirement.catcher for retirement in RETIRED))
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
        run = run_tier1(tree, retirement.catcher)
    finally:
        target.write_text(original, encoding="utf-8")
    assert run.returncode == 1, run.stdout + run.stderr
    assert f"FAILED {retirement.catcher}" in run.stdout, run.stdout
