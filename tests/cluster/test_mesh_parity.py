"""MeshConformance: the mesh data plane is indistinguishable on paper.

Every cell runs a workload on the direct worker↔worker mesh and checks
it against the single-process reference — outputs,
``max_bits_per_party``, full per-party tallies, the recording ledger's
phase breakdown, bit-exact flow-ledger parity
(``FlowLedger.verify_against``), and the trace fingerprint
(pinned to the runtime's seed-stability values at n=16; equal to a
traced ``run_parties`` over the same script at n=64).  A mesh that
dropped, duplicated, or re-ordered a single frame —
or charged one bit differently while reconstructing supervisor metrics
from worker round digests — fails here.

The n=16 cells are cheap enough for tier-1; n=64 rides the ``cluster``
marker with the other heavy process tests.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.cluster.cli import cmd_cluster
from repro.cluster.job import ClusterJob, replay_job
from repro.cluster.supervisor import (
    STATE_FORMAT,
    TRACE_FILE,
    ClusterConfig,
    ClusterSupervisor,
    read_state,
)
from repro.net.metrics import CommunicationMetrics
from repro.obs.flow import FlowLedger
from repro.protocols.gradecast import build_gradecast, run_gradecast
from repro.protocols.phase_king import build_phase_king
from repro.runtime.faults import FaultPlan
from repro.runtime.placements import LOCAL, mesh
from repro.runtime.replay import (
    apply_func_ops,
    build_replay_parties,
    tallies_equal,
)
from repro.runtime.synchronizer import run_parties
from repro.runtime.trace import TraceRecorder
from tests.net import test_simulator as contract
from tests.placements import phase_views, recorded_pi_ba, run_honest
from tests.runtime.test_seed_stability import PINNED

SCHEMES = ("snark", "owf")
TCP_WIRED_RUN = Path(__file__).parent / "fixtures" / "tcp_wired_run"


def _pi_ba_script(n, scheme_name):
    # The exact constructions and seed behind the pinned fingerprints.
    return recorded_pi_ba(n, scheme_name).script()


@lru_cache(maxsize=None)
def _pi_ba_reference(n, scheme_name):
    """Single-process ``run_parties`` over the same recorded script."""
    script = _pi_ba_script(n, scheme_name)
    metrics = CommunicationMetrics()
    result = run_parties(
        build_replay_parties(script, n),
        metrics=metrics,
        max_rounds=script.num_rounds + 2,
        trace=TraceRecorder(),
    )
    apply_func_ops(script, metrics)
    return result.outputs, metrics, result.trace.fingerprint()


def _cluster_replay(n, scheme_name, workers):
    script = _pi_ba_script(n, scheme_name)
    flow = FlowLedger()
    config = ClusterConfig(num_workers=workers, flow=flow)
    job = replay_job(script, n, checkpoint_interval=4)
    result = ClusterSupervisor(job, config, trace=TraceRecorder()).run()
    apply_func_ops(script, result.metrics)
    return result, flow


def _assert_pi_ba_cell(n, scheme_name, workers, pinned=None):
    ref_outputs, ref_metrics, ref_fingerprint = _pi_ba_reference(
        n, scheme_name
    )
    result, flow = _cluster_replay(n, scheme_name, workers)
    assert result.outputs == ref_outputs
    assert (
        result.metrics.max_bits_per_party == ref_metrics.max_bits_per_party
    )
    assert tallies_equal(result.metrics, ref_metrics, range(n))
    # The digest rows carry their phases home: the supervisor's ledger
    # reports the live run's phase breakdown, party by party.
    assert phase_views(result.metrics, range(n)) == phase_views(
        recorded_pi_ba(n, scheme_name), range(n)
    )
    # Bit-exact flow parity: every cell of the wire-level ledger agrees
    # with the authoritative metrics the supervisor reconstructed.
    assert flow.verify_against(result.metrics) == []
    assert flow.coverage() == 1.0
    # The merged per-party trace is byte-identical to a single-process
    # traced run of the same script (and, at n=16, to the runtime pin).
    fingerprint = result.trace.fingerprint()
    assert fingerprint == ref_fingerprint
    if pinned is not None:
        assert fingerprint == pinned, (
            "mesh trace fingerprint drifted from the runtime pin"
        )
    flow.close()


class TestPiBaMatrixN16:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_mesh_matches_reference_and_pin(self, scheme_name):
        _assert_pi_ba_cell(
            16, scheme_name, workers=2, pinned=PINNED[scheme_name]
        )


class TestTraceIsOptIn:
    def test_an_untraced_run_records_and_writes_no_trace(self, tmp_path):
        script = _pi_ba_script(16, "snark")
        results = {}
        for traced in (False, True):
            result = ClusterSupervisor(
                replay_job(script, 16, checkpoint_interval=4),
                ClusterConfig(num_workers=2),
                run_dir=tmp_path / f"traced-{traced}",
                trace=TraceRecorder() if traced else None,
            ).run()
            apply_func_ops(script, result.metrics)
            results[traced] = result
        untraced, traced = results[False], results[True]
        assert untraced.trace is None
        assert not (untraced.run_dir / TRACE_FILE).exists()
        state = read_state(untraced.run_dir)
        assert state["trace_segments"] is None
        assert state["trace_events"] is None
        assert (traced.run_dir / TRACE_FILE).exists()
        assert traced.trace.fingerprint() == PINNED["snark"]
        assert untraced.outputs == traced.outputs
        assert tallies_equal(untraced.metrics, traced.metrics, range(16))
        assert phase_views(untraced.metrics, range(16)) == phase_views(
            traced.metrics, range(16)
        )


class _RecordsDoneShapes(ClusterSupervisor):
    """Notes the header fields and payload keys of every ``done``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shapes = []

    def _on_done(self, worker_id, message, now):
        self.shapes.append(
            (frozenset(message.fields), frozenset(message.payload()))
        )
        super()._on_done(worker_id, message, now)


#: What a run once carried for the cross-process span tracks; a run's
#: cross-process view is now its per-party trace.
SPAN_TRACK_KEYS = {"trace_id", "supervisor_spans", "worker_spans"}


class TestWhatADoneCarries:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        parties, honest, max_rounds = build_phase_king(
            {i: i % 2 for i in range(8)}, (7,)
        )
        job = ClusterJob(
            name="done-shape", n=8, parties=parties, until=tuple(honest),
            max_rounds=max_rounds, checkpoint_interval=4,
        )
        supervisor = _RecordsDoneShapes(
            job, ClusterConfig(num_workers=2),
            run_dir=tmp_path_factory.mktemp("done-shape"),
        )
        return supervisor, supervisor.run()

    def test_round_checkpoint_and_the_three_payload_keys(self, run):
        supervisor, result = run
        assert result.trace is None
        assert len(supervisor.shapes) == 2 * result.rounds
        assert any("checkpoint" in fields for fields, _ in supervisor.shapes)
        for fields, payload_keys in supervisor.shapes:
            assert fields <= {"round", "checkpoint"}, fields
            assert payload_keys == {"outputs", "trace", "digest"}

    def test_neither_the_result_nor_the_state_holds_span_tracks(self, run):
        _, result = run
        assert not SPAN_TRACK_KEYS & {f.name for f in dataclasses.fields(result)}
        state = read_state(result.run_dir)
        assert state["format"] == STATE_FORMAT
        assert state["completed"]
        assert not SPAN_TRACK_KEYS & set(state)


@pytest.mark.cluster
class TestPiBaMatrixN64:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_mesh_matches_reference_at_four_workers(self, scheme_name):
        # No n=64 pin exists; the cell's fingerprint check is against a
        # traced run_parties over the same script.
        _assert_pi_ba_cell(64, scheme_name, workers=4)

    def test_single_worker_mesh_matches_reference(self):
        # Degenerate mesh (no peers, every frame stays local) still
        # reconstructs identical supervisor metrics from digests.
        _assert_pi_ba_cell(64, "snark", workers=1)


def _phase_king_cell(n, workers):
    inputs = {i: i % 2 for i in range(n)}
    byzantine = (3,)
    reference, ref = run_honest(LOCAL, build_phase_king(inputs, byzantine))
    ref_metrics = ref.metrics
    flow = FlowLedger()
    outputs, result = run_honest(
        mesh(config=ClusterConfig(num_workers=workers, flow=flow)),
        build_phase_king(inputs, byzantine),
    )
    assert outputs == reference
    assert (
        result.metrics.max_bits_per_party == ref_metrics.max_bits_per_party
    )
    assert tallies_equal(result.metrics, ref_metrics, range(n))
    assert flow.verify_against(result.metrics) == []
    flow.close()


def _gradecast_cell(n, workers):
    sender, value = 2, 1
    reference, ref_metrics = run_gradecast(range(n), sender, value)
    flow = FlowLedger()
    outputs, result = run_honest(
        mesh(config=ClusterConfig(num_workers=workers, flow=flow)),
        build_gradecast(range(n), sender, value),
    )
    assert outputs == reference
    assert all(pair == (value, 2) for pair in outputs.values())
    assert (
        result.metrics.max_bits_per_party == ref_metrics.max_bits_per_party
    )
    assert tallies_equal(result.metrics, ref_metrics, range(n))
    assert flow.verify_against(result.metrics) == []
    flow.close()


class TestCommitteePrimitivesN16:
    def test_phase_king(self):
        _phase_king_cell(16, workers=2)

    def test_gradecast(self):
        _gradecast_cell(16, workers=2)


@pytest.mark.cluster
class TestCommitteePrimitivesN64:
    def test_phase_king(self):
        _phase_king_cell(64, workers=4)

    def test_gradecast(self):
        _gradecast_cell(64, workers=4)


@pytest.mark.cluster
class TestMeshContract(
    contract.TestDelivery,
    contract.TestAuthentication,
    contract.TestTermination,
    contract.TestReplayAttribution,
    contract.TestTrace,
    contract.TestBuilders,
):
    """The lockstep-round contract (tests/net/test_simulator.py) on the
    mesh row: two worker processes, parties shipped as round-0
    checkpoints.  ``TestFaultPlan`` and ``TestNoPolicy`` need a keyword
    the mesh refuses — see :class:`TestMeshRefusals`."""

    placement = mesh(2)


class TestMeshRefusals:
    """A keyword the mesh cannot honour raises; it is not ignored."""

    @pytest.mark.parametrize(
        "keyword",
        [{"fault_plan": FaultPlan(crashes={0: 1})}],
        ids=["fault_plan"],
    )
    def test_unsupported_keyword_raises_cluster_error(self, keyword):
        row = mesh(2)
        with pytest.raises(row.error, match="single-process placement"):
            row.run(
                [contract.EchoParty(0, 1), contract.EchoParty(1, 0)],
                **keyword,
            )


class TestOnePlane:
    def test_data_plane_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            ClusterConfig(data_plane="relay")

    def test_data_plane_is_not_a_cli_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cmd_cluster(["run", "--data-plane", "relay"])
        assert excinfo.value.code == 2
        assert "--data-plane" in capsys.readouterr().err


class TestNoRegistryFeed:
    """A cluster run keeps no Prometheus registry: rounds, restarts and
    frames are in its ``ClusterResult`` and its ledger."""

    def test_registry_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            ClusterConfig(registry=object())

    @pytest.mark.parametrize(
        "verb", [["run"], ["run", "--resume"]], ids=["run", "resume"]
    )
    def test_metrics_out_is_not_a_cli_flag(self, verb, capsys, tmp_path):
        out = tmp_path / "cluster.prom"
        assert main(["cluster", *verb, "--metrics-out", str(out)]) == 2
        assert "--metrics-out" in capsys.readouterr().err
        assert not out.exists()


class TestOneCrossProcessView:
    """A cluster run's cross-process view is its per-party trace
    (``--trace-dir`` + ``obs timeline``): no trace id, no span export."""

    def test_trace_id_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            ClusterConfig(trace_id="custom-trace")

    @pytest.mark.parametrize("flag", ["--spans-dir", "--timeline-out"])
    def test_span_exports_are_not_cli_flags(self, flag, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cmd_cluster(["run", flag, str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_a_state_saved_with_span_tracks_still_loads(self):
        # The committed run dir predates the change: its supervisor.ckpt
        # still holds the three span-track keys, under the same format.
        assert SPAN_TRACK_KEYS <= set(read_state(TCP_WIRED_RUN))
        parties, honest, max_rounds = build_phase_king(
            {i: i % 2 for i in range(16)}, (3,)
        )
        supervisor = ClusterSupervisor(
            ClusterJob("phase-king", 16, parties, until=tuple(honest),
                       max_rounds=max_rounds, checkpoint_interval=2),
            ClusterConfig(num_workers=2), run_dir=TCP_WIRED_RUN,
        )
        supervisor._load_state()
        assert (supervisor.round_index, supervisor.restarts) == (4, 0)
        assert supervisor.trace.party_ids == list(range(16))
        assert len(supervisor.trace.events_of(0)) == 70
        assert supervisor.metrics.max_bits_per_party == 1312
