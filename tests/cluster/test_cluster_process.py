"""Multi-process cluster executions (marked ``cluster``; excluded from
tier-1 — run with ``pytest -m cluster``).

The acceptance properties:

* π_ba n=16 over 2 workers reproduces the single-process runtime driver
  bit-for-bit — outputs, ``max_bits_per_party``, and full per-party
  tallies — with and without a SIGKILL mid-round;
* a SIGKILLed worker resumes from its durable checkpoint and the run
  still converges to the identical answer;
* a crashed *supervisor* resumes from its own durable state — also
  one the TCP-wired build wrote, before the fleet's channels became
  socketpairs;
* π_ba n=64 differential parity holds for both SRDS schemes.
"""

from __future__ import annotations

import shutil
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cluster.cli import cmd_cluster
from repro.cluster.job import ClusterJob
from repro.cluster.supervisor import (
    TRACE_FILE,
    ClusterConfig,
    ClusterSupervisor,
    describe_run,
    read_state,
)
from repro.errors import ClusterError
from repro.net.adversary import random_corruption
from repro.obs.flow import FlowLedger
from repro.params import ProtocolParameters
from repro.protocols.phase_king import build_phase_king
from repro.runtime.placements import LOCAL, mesh
from repro.runtime.replay import replay_balanced_ba, tallies_equal
from repro.runtime.trace import TraceRecorder
from repro.srds import scheme_by_name
from repro.utils.randomness import Randomness
from tests.placements import phase_views, run_honest

pytestmark = pytest.mark.cluster

SEED = 2021

#: A crashed run dir the TCP-wired build wrote (see its README.md).
TCP_WIRED_RUN = Path(__file__).parent / "fixtures" / "tcp_wired_run"


def _pi_ba_setup(n):
    params = ProtocolParameters()
    inputs = {i: i % 2 for i in range(n)}
    plan = random_corruption(
        n, params.max_corruptions(n), Randomness(SEED).fork("corruption")
    )
    return params, inputs, plan


@lru_cache(maxsize=None)
def _runtime_reference(n, scheme_name):
    params, inputs, plan = _pi_ba_setup(n)
    result, _ = replay_balanced_ba(
        LOCAL, inputs, plan, scheme_by_name(scheme_name), params,
        Randomness(SEED).fork("protocol"),
    )
    return result


def _cluster_run(n, scheme_name, *, kill_plan=None, run_dir=None,
                 resume=False, max_restarts=3, flow=None):
    params, inputs, plan = _pi_ba_setup(n)
    config = ClusterConfig(
        num_workers=2,
        kill_plan=dict(kill_plan or {}),
        max_restarts=max_restarts,
        flow=flow,
    )
    row = mesh(
        name="pi-ba-replay", checkpoint_interval=2, config=config,
        run_dir=run_dir, resume=resume,
    )
    return replay_balanced_ba(
        row, inputs, plan, scheme_by_name(scheme_name), params,
        Randomness(SEED).fork("protocol"),
    )


def _assert_parity(result, reference, n):
    assert result.agreement
    assert result.outputs == reference.outputs
    assert (
        result.metrics.max_bits_per_party
        == reference.metrics.max_bits_per_party
    )
    assert result.metrics.total_bits == reference.metrics.total_bits


class TestPiBaParity:
    def test_two_worker_parity_n16(self):
        result, cluster = _cluster_run(16, "snark")
        _assert_parity(result, _runtime_reference(16, "snark"), 16)
        assert cluster.restarts == 0

    def test_sigkill_mid_round_recovers_to_same_output(self):
        result, cluster = _cluster_run(16, "snark", kill_plan={3: 1})
        _assert_parity(result, _runtime_reference(16, "snark"), 16)
        assert cluster.restarts == 1

    def test_two_sigkills_same_worker(self):
        result, cluster = _cluster_run(
            16, "snark", kill_plan={2: 0, 6: 0}
        )
        _assert_parity(result, _runtime_reference(16, "snark"), 16)
        assert cluster.restarts == 2

    @pytest.mark.parametrize("scheme_name", ["snark", "owf"])
    def test_n64_differential_parity_both_schemes(self, scheme_name):
        result, cluster = _cluster_run(64, scheme_name)
        _assert_parity(result, _runtime_reference(64, scheme_name), 64)


class TestSupervisorResume:
    def test_restart_budget_exhaustion_then_resume(self, tmp_path):
        with pytest.raises(ClusterError, match="restart budget"):
            _cluster_run(
                16, "snark", kill_plan={5: 0}, run_dir=tmp_path,
                max_restarts=0,
            )
        status = describe_run(tmp_path)
        assert status["has_state"] and not status["completed"]
        assert status["round"] > 0

        flow = FlowLedger()
        result, cluster = _cluster_run(
            16, "snark", run_dir=tmp_path, resume=True, flow=flow
        )
        _assert_parity(result, _runtime_reference(16, "snark"), 16)
        assert describe_run(tmp_path)["completed"]
        # The supervisor carries its own ledger across the restart and
        # grafts the carried tallies into the fresh flow ledger, so
        # flow parity survives the resume.
        assert flow.verify_against(cluster.metrics) == []
        assert flow.by_phase()["(resumed)"] == flow.by_kind()["absorbed"] > 0

    def test_an_untraced_kill_and_resume_converges_untraced(self, tmp_path):
        # One SIGKILL is recovered in-run, the second exhausts the
        # budget; resume finishes the run — none of it traced.
        with pytest.raises(ClusterError, match="restart budget"):
            _cluster_run(
                16, "snark", kill_plan={3: 1, 6: 0}, run_dir=tmp_path,
                max_restarts=1,
            )
        assert read_state(tmp_path)["trace_segments"] is None
        assert cmd_cluster([
            "run", "--resume", "--run-dir", str(tmp_path), "--n", "16",
            "--trace-dir", str(tmp_path / "traces"),
        ]) == 2
        result, cluster = _cluster_run(
            16, "snark", run_dir=tmp_path, resume=True
        )
        _assert_parity(result, _runtime_reference(16, "snark"), 16)
        assert cluster.trace is None
        assert not (tmp_path / TRACE_FILE).exists()
        assert describe_run(tmp_path)["completed"]

    def test_a_run_dir_from_the_tcp_wired_build_resumes_with_parity(
        self, tmp_path
    ):
        shutil.copytree(TCP_WIRED_RUN, tmp_path, dirs_exist_ok=True)
        status = describe_run(tmp_path)
        assert (status["round"], status["completed"]) == (4, False)

        def job():
            parties, honest, max_rounds = build_phase_king(
                {i: i % 2 for i in range(16)}, (3,)
            )
            return ClusterJob("phase-king", 16, parties, until=tuple(honest),
                              max_rounds=max_rounds, checkpoint_interval=2)

        resumed = ClusterSupervisor(
            job(), ClusterConfig(num_workers=2), run_dir=tmp_path
        ).run(resume=True)
        trace = TraceRecorder()
        clean = ClusterSupervisor(
            job(), ClusterConfig(num_workers=2), run_dir=tmp_path / "clean",
            trace=trace,
        ).run()
        assert resumed.restarts == clean.restarts == 0
        assert resumed.rounds == clean.rounds
        assert resumed.outputs == clean.outputs
        assert tallies_equal(resumed.metrics, clean.metrics, range(16))
        assert phase_views(resumed.metrics, range(16)) == phase_views(
            clean.metrics, range(16)
        )
        assert resumed.trace.fingerprint() == trace.fingerprint()
        assert describe_run(tmp_path)["completed"]

    def test_describe_run_without_state(self, tmp_path):
        status = describe_run(tmp_path)
        assert not status["has_state"]


class TestPhaseKingCluster:
    def test_matches_runtime_driver(self):
        n = 16
        inputs = {i: i % 2 for i in range(n)}
        byzantine = (3,)
        reference, _ = run_honest(LOCAL, build_phase_king(inputs, byzantine))
        outputs, _ = run_honest(mesh(2), build_phase_king(inputs, byzantine))
        assert outputs == reference
        assert len(set(outputs.values())) == 1

    def test_metrics_tallies_match_runtime(self):
        n = 16
        inputs = {i: i % 2 for i in range(n)}
        byzantine = (3,)
        _, reference = run_honest(LOCAL, build_phase_king(inputs, byzantine))
        _, cluster = run_honest(mesh(4), build_phase_king(inputs, byzantine))
        assert tallies_equal(cluster.metrics, reference.metrics, range(n))
