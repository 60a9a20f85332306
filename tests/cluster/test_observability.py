"""Cluster flow: parity, coverage and the control plane's shape.

These spawn real worker OS processes, so they carry the ``cluster``
marker (CI's dedicated job runs them; tier-1 skips them).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.supervisor import ClusterConfig, worker_pseudo_id
from repro.net.adversary import random_corruption
from repro.obs.flow import INFRA, FlowLedger
from repro.params import ProtocolParameters
from repro.protocols.phase_king import build_phase_king
from repro.runtime.placements import mesh
from repro.runtime.replay import replay_balanced_ba
from repro.srds import scheme_by_name
from repro.utils.randomness import Randomness

pytestmark = pytest.mark.cluster

N = 8
WORKERS = 2


def _run(flow=None):
    params = ProtocolParameters()
    rng = Randomness(2021)
    plan = random_corruption(N, params.max_corruptions(N), rng.fork("c"))
    inputs = {i: i % 2 for i in range(N)}
    config = ClusterConfig(num_workers=WORKERS, flow=flow)
    return replay_balanced_ba(
        mesh(name="pi-ba-replay", config=config),
        inputs, plan, scheme_by_name("snark"), params, rng.fork("run"),
    )


class TestFlowThroughCluster:
    def test_parity_coverage_and_control_plane(self, tmp_path):
        flow = FlowLedger(spill_path=tmp_path / "spill.jsonl")
        ba_result, cluster_result = _run(flow=flow)
        assert ba_result.agreement
        # Exact parity: flow side counters == supervisor ledger tallies.
        assert flow.verify_against(cluster_result.metrics) == []
        # Every data-plane bit carries a real phase (the workers ship
        # per-frame phases home; hybrid charges replay recorded phases).
        assert flow.coverage() == 1.0
        kinds = flow.by_kind()
        assert "frame" in kinds and "hybrid" in kinds
        # Control traffic is metered on ctl:* kinds, off the data plane.
        ctl = {k for k in kinds if k.startswith("ctl:")}
        assert {"ctl:job", "ctl:resumed", "ctl:done", "ctl:stop"} <= ctl
        # No per-round pacing: the supervisor only listens between the
        # job and the stop; a fleet wired before the fork needs no
        # introductions, address book or trims.
        assert not {
            "ctl:round", "ctl:checkpoint", "ctl:checkpointed",
            "ctl:hello", "ctl:peers", "ctl:trim",
        } & ctl
        assert flow.control_bits > 0
        # Control endpoints are pseudo ids, never real parties.
        assert INFRA not in flow.party_bits()
        assert worker_pseudo_id(0) not in flow.party_bits()
        flow.close()

    def test_srds_aggregate_dominates(self):
        flow = FlowLedger()
        _run(flow=flow)
        by_phase = flow.by_phase()
        assert max(by_phase, key=by_phase.get) == "srds-aggregate"


class TestControlPlaneShape:
    """The supervisor paces nothing: a fault-free job hears from it a
    job and a stop per worker — however many rounds the job runs and
    however many barriers it commits."""

    @staticmethod
    def _sent(n, interval):
        flow = FlowLedger()
        parties, honest, max_rounds = build_phase_king(
            {i: i % 2 for i in range(n)}, (n - 1,)
        )
        result = mesh(
            checkpoint_interval=interval,
            config=ClusterConfig(num_workers=WORKERS, flow=flow),
        ).run(parties, honest, max_rounds)
        sent = Counter()
        for cell in flow.cells():
            if cell.kind.startswith("ctl:") and cell.src == INFRA:
                sent[cell.kind] += cell.frames
        flow.close()
        return result.rounds, dict(sent)

    LIFECYCLE = {"ctl:job": WORKERS, "ctl:stop": WORKERS}

    def test_no_message_per_round(self):
        short_rounds, short = self._sent(8, interval=0)
        long_rounds, long = self._sent(16, interval=0)
        assert short_rounds < long_rounds
        assert short == long == self.LIFECYCLE

    def test_no_message_per_committed_barrier(self):
        rounds, sent = self._sent(16, interval=4)
        assert rounds // 4 >= 2
        assert sent == self.LIFECYCLE

