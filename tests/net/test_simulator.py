"""The lockstep-round contract, stated once and held on every placement.

``TestDelivery``, ``TestAuthentication``, ``TestTermination``,
``TestBudget`` and ``TestReplayAttribution`` are written against
``self.placement`` (see
``tests/placements.py``).  Here they run on the in-process placement,
:class:`~repro.net.simulator.SynchronousNetwork`;
``tests/runtime/test_synchronizer.py`` subclasses them for the ``local``
and ``tcp`` transports and ``tests/cluster/test_engine.py`` for a single
:class:`~repro.cluster.engine.ShardEngine` — the same cases, because all
four step the same :class:`~repro.net.rounds.RoundCore`.
"""

from typing import List, Sequence

import pytest

from repro.net.metrics import CommunicationMetrics
from repro.net.party import Envelope, Party, SilentParty
from repro.net.simulator import SynchronousNetwork
from repro.obs.flow import FlowLedger
from repro.runtime.replay import (
    SizedEnvelope,
    apply_func_ops,
    build_replay_parties,
    tallies_equal,
)
from tests.placements import IN_PROCESS, phase_views, recorded_pi_ba


class EchoParty(Party):
    """Sends 'ping' to a peer in round 0, echoes whatever it receives,
    halts after round 2."""

    def __init__(self, party_id: int, peer: int) -> None:
        super().__init__(party_id)
        self.peer = peer
        self.received: List[bytes] = []

    def step(self, round_index: int, inbox: Sequence[Envelope]) -> List[Envelope]:
        self.received.extend(envelope.payload for envelope in inbox)
        if round_index == 0:
            return [self.send(self.peer, b"ping-%d" % self.party_id)]
        if round_index >= 2:
            return self.halt(len(self.received))
        return [
            self.send(envelope.sender, b"echo:" + envelope.payload)
            for envelope in inbox
        ]


class SpoofingParty(Party):
    """Tries to forge the sender field on its envelopes."""

    def __init__(self, party_id: int, envelope: Envelope) -> None:
        super().__init__(party_id)
        self.envelope = envelope

    def step(self, round_index: int, inbox: Sequence[Envelope]) -> List[Envelope]:
        if round_index == 0:
            return [self.envelope]
        return self.halt()


class RecordingParty(Party):
    """Records who it hears from, and in which rounds it was stepped."""

    def __init__(self, party_id: int) -> None:
        super().__init__(party_id)
        self.senders: List[int] = []
        self.inboxes: List[List[bytes]] = []

    def step(self, round_index: int, inbox: Sequence[Envelope]) -> List[Envelope]:
        self.senders.extend(envelope.sender for envelope in inbox)
        self.inboxes.append([envelope.payload for envelope in inbox])
        if round_index >= 1:
            return self.halt()
        return []


class TestDelivery:
    placement = IN_PROCESS

    def test_round_trip(self):
        a, b = EchoParty(0, 1), EchoParty(1, 0)
        self.placement.run([a, b], max_rounds=10)
        assert b"ping-0" in b.received
        assert b"echo:ping-0" in a.received

    def test_messages_delivered_next_round(self):
        class Pinger(Party):
            def step(self, round_index, inbox):
                if round_index == 0:
                    return [self.send(1, b"x")]
                return self.halt()

        recorder = RecordingParty(1)
        self.placement.run([Pinger(0), recorder], max_rounds=5)
        # Sent in round 0: invisible during round 0, delivered at round 1.
        assert recorder.inboxes == [[], [b"x"]]

    def test_unknown_recipient_rejected(self):
        class Stray(Party):
            def step(self, round_index, inbox):
                return [self.send(42, b"x")]

        with pytest.raises(self.placement.error):
            self.placement.run([Stray(0)], max_rounds=3)

    def test_duplicate_party_id_rejected(self):
        with pytest.raises(self.placement.error):
            self.placement.run([SilentParty(0), SilentParty(0)])


class TestAuthentication:
    placement = IN_PROCESS

    def test_sender_stamped_by_transport(self):
        spoofer = SpoofingParty(
            0, Envelope(sender=999, recipient=1, payload=b"spoofed")
        )
        recorder = RecordingParty(1)
        self.placement.run([spoofer, recorder], until=[1], max_rounds=5)
        assert recorder.senders == [0]  # true sender, not 999

    def test_spoofed_sized_envelope_keeps_bits_and_phase(self):
        # Stamping the true sender must not rebuild the envelope as a
        # plain one: the declared (non-byte-multiple) charge and the
        # recorded phase ride the frame on every placement.
        spoofer = SpoofingParty(
            0,
            SizedEnvelope(
                sender=999, recipient=1, payload=b"\x00\x00",
                bits=11, phase="declared",
            ),
        )
        recorder = RecordingParty(1)
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        self.placement.run(
            [spoofer, recorder], until=[1], max_rounds=5, metrics=metrics
        )
        assert recorder.senders == [0]
        assert metrics.tally_of(0).bits_sent == 11
        assert metrics.tally_of(1).bits_received == 11
        assert [(c.src, c.dst, c.bits, c.phase) for c in flow.cells()] == [
            (0, 1, 11, "declared")
        ]


class TestTermination:
    placement = IN_PROCESS

    def test_run_until_honest(self):
        a = EchoParty(0, 1)
        never_halts = SilentParty(1)
        self.placement.run([a, never_halts], until=[0], max_rounds=10)
        assert a.halted
        assert not never_halts.halted

    def test_nontermination_detected(self):
        with pytest.raises(self.placement.error, match="did not terminate"):
            self.placement.run([SilentParty(0)], max_rounds=5)

    def test_run_until_unknown_target_raises_network_error(self):
        # Regression: this used to surface as a bare KeyError mid-run.
        with pytest.raises(self.placement.error, match="unknown target party"):
            self.placement.run(
                [SilentParty(0), SilentParty(1)], until=[0, 42], max_rounds=5
            )

    def test_run_until_unknown_target_message_lists_ids(self):
        recorder = RecordingParty(3)
        with pytest.raises(self.placement.error, match=r"\[7, 9\]"):
            self.placement.run([recorder], until=[9, 7], max_rounds=5)
        # Validation happens up front, before any round runs.
        assert recorder.inboxes == []

    def test_outputs_collects_halted(self):
        result = self.placement.run(
            [EchoParty(0, 1), SilentParty(1)], until=[0], max_rounds=10
        )
        assert set(result.outputs) == {0}  # halted parties only


class TestReplayAttribution:
    placement = IN_PROCESS

    @pytest.mark.parametrize("scheme_name", ["snark", "owf"])
    def test_replay_reports_the_recorded_phases(self, scheme_name):
        # Every frame carries the phase it was recorded under, and the
        # ledger files it there: the replay's phase breakdown is the
        # live run's, on every placement, whatever spans are open here.
        n = 16
        recorded = recorded_pi_ba(n, scheme_name)
        script = recorded.script()
        metrics = CommunicationMetrics()
        self.placement.run(
            build_replay_parties(script, n), metrics=metrics,
            max_rounds=script.num_rounds + 2,
        )
        apply_func_ops(script, metrics)
        assert tallies_equal(metrics, recorded, range(n))
        assert phase_views(metrics, range(n)) == phase_views(recorded, range(n))
        assert len(metrics.phases) >= 8  # Fig. 3's phases, none unattributed


class TestBudget:
    placement = IN_PROCESS

    def test_budget_enforced(self):
        class Chatty(Party):
            def step(self, round_index, inbox):
                return [self.send(1, b"x") for _ in range(5)]

        with pytest.raises(self.placement.error, match="message budget"):
            self.placement.run(
                [Chatty(0), SilentParty(1)],
                message_budget_per_party=3,
                max_rounds=3,
            )

    def test_budget_allows_under_limit(self):
        class Modest(Party):
            def step(self, round_index, inbox):
                if round_index == 0:
                    return [self.send(1, b"x")]
                return self.halt()

        self.placement.run(
            [Modest(0), SilentParty(1)],
            until=[0],
            message_budget_per_party=3,
            max_rounds=5,
        )


class TestMetricsIntegration:
    def test_traffic_charged(self):
        a, b = EchoParty(0, 1), EchoParty(1, 0)
        network = SynchronousNetwork([a, b])
        network.run(max_rounds=10)
        assert network.round_index == 3
        assert network.metrics.total_bits > 0
        assert network.metrics.tally_of(0).messages_sent >= 1

    def test_envelope_size_bits(self):
        envelope = Envelope(sender=0, recipient=1, payload=b"abc")
        assert envelope.size_bits() == 24
