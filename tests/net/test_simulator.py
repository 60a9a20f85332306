"""The lockstep-round contract, stated once and held on every placement.

``TestDelivery``, ``TestAuthentication``, ``TestTermination``,
``TestFaultPlan``, ``TestNoPolicy``, ``TestTrace`` and
``TestReplayAttribution`` are written against ``self.placement``, a row
of :mod:`repro.runtime.placements`.  Here they run on the in-process
row, :class:`~repro.net.simulator.SynchronousNetwork`;
``tests/runtime/test_synchronizer.py`` subclasses them for the ``local``
and ``tcp`` rows, ``tests/cluster/test_engine.py`` for a single
:class:`~repro.cluster.engine.ShardEngine` and
``tests/cluster/test_mesh_parity.py`` for ``mesh(2)`` — the same cases,
because all of them step the same :class:`~repro.net.rounds.RoundCore`.

A case observes a run only through what the placement returns: on the
mesh the parties live in worker processes, so a party reports what it
saw as its *output*, and every party class lives at module scope where
a worker can unpickle it.
"""

from typing import List, Sequence

import pytest

from repro.net.metrics import CommunicationMetrics
from repro.net.party import Envelope, Frame, Party, SilentParty
from repro.net.simulator import SynchronousNetwork
from repro.obs.flow import FlowLedger
from repro.protocols.gradecast import build_gradecast
from repro.protocols.phase_king import build_phase_king
from repro.runtime.faults import FaultPlan, LinkDelay
from repro.runtime.placements import IN_PROCESS
from repro.runtime.replay import (
    apply_func_ops,
    build_replay_parties,
    tallies_equal,
)
from repro.runtime.trace import TraceRecorder
from repro.utils.randomness import Randomness
from tests.placements import phase_views, recorded_pi_ba


class EchoParty(Party):
    """Sends 'ping' to a peer in round 0, echoes whatever it receives,
    halts after round 2 with everything it received."""

    def __init__(self, party_id: int, peer: int) -> None:
        super().__init__(party_id)
        self.peer = peer
        self.received: List[bytes] = []

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        self.received.extend(envelope.payload for envelope in inbox)
        if round_index == 0:
            return [self.send(self.peer, b"ping-%d" % self.party_id)]
        if round_index >= 2:
            return self.halt(list(self.received))
        return [
            self.send(envelope.sender, b"echo:" + envelope.payload)
            for envelope in inbox
        ]


class SpoofingParty(Party):
    """Tries to forge the sender field on its envelopes."""

    def __init__(self, party_id: int, envelope: Envelope) -> None:
        super().__init__(party_id)
        self.envelope = envelope

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        if round_index == 0:
            return [self.envelope]
        return self.halt()


class RecordingParty(Party):
    """Halts after round ``last_round`` with ``(senders, inboxes)``: who
    it heard from, and the payloads of every inbox it was stepped with."""

    def __init__(self, party_id: int, last_round: int = 1) -> None:
        super().__init__(party_id)
        self.last_round = last_round
        self.senders: List[int] = []
        self.inboxes: List[List[bytes]] = []

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        self.senders.extend(envelope.sender for envelope in inbox)
        self.inboxes.append([envelope.payload for envelope in inbox])
        if round_index >= self.last_round:
            return self.halt((list(self.senders), list(self.inboxes)))
        return []


class SizeRecorder(Party):
    """Halts in round 1 with ``(sender, recipient, size_bits, payload)``
    of every envelope delivered then."""

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        if round_index == 0:
            return []
        return self.halt([
            (envelope.sender, envelope.recipient, envelope.size_bits(),
             envelope.payload)
            for envelope in inbox
        ])


class Pinger(Party):
    """Sends ``count`` one-byte messages to ``peer`` in round 0, then halts."""

    def __init__(self, party_id: int, peer: int, count: int = 1) -> None:
        super().__init__(party_id)
        self.peer = peer
        self.count = count

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        if round_index == 0:
            return [self.send(self.peer, b"x") for _ in range(self.count)]
        return self.halt()


class TestDelivery:
    placement = IN_PROCESS

    def test_round_trip(self):
        result = self.placement.run(
            [EchoParty(0, 1), EchoParty(1, 0)], max_rounds=10
        )
        assert b"ping-0" in result.outputs[1]
        assert b"echo:ping-0" in result.outputs[0]

    def test_messages_delivered_next_round(self):
        result = self.placement.run(
            [Pinger(0, 1), RecordingParty(1)], max_rounds=5
        )
        # Sent in round 0: invisible during round 0, delivered at round 1.
        assert result.outputs[1] == ([0], [[], [b"x"]])

    def test_unknown_recipient_rejected(self):
        with pytest.raises(self.placement.error):
            self.placement.run([Pinger(0, 42), SilentParty(1)], max_rounds=3)

    def test_duplicate_party_id_rejected(self):
        with pytest.raises(self.placement.error):
            self.placement.run([SilentParty(0), SilentParty(0)])


class TestAuthentication:
    placement = IN_PROCESS

    def test_sender_stamped_by_transport(self):
        spoofer = SpoofingParty(
            0, Envelope(sender=999, recipient=1, payload=b"spoofed")
        )
        result = self.placement.run(
            [spoofer, RecordingParty(1)], until=[1], max_rounds=5
        )
        assert result.outputs[1][0] == [0]  # true sender, not 999

    def test_the_recipient_is_handed_the_frame_that_was_charged(self):
        # Frame is what parties receive: the inbox reports the true
        # sender and the size the sender declared (11 bits, not the
        # 16 of its two filler bytes), on every placement.
        spoofer = SpoofingParty(
            0,
            Envelope(
                sender=999, recipient=1, payload=b"\x00\x00", charge_bits=11,
            ),
        )
        result = self.placement.run(
            [spoofer, SizeRecorder(1)], until=[1], max_rounds=5
        )
        assert result.outputs[1] == [(0, 1, 11, b"\x00\x00")]

    def test_spoofed_sized_envelope_keeps_bits_and_phase(self):
        # Stamping the true sender must not rebuild the envelope as a
        # plain one: the declared (non-byte-multiple) charge and the
        # recorded phase ride the frame on every placement.
        spoofer = SpoofingParty(
            0,
            Envelope(
                sender=999, recipient=1, payload=b"\x00\x00",
                charge_bits=11, phase="declared",
            ),
        )
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        result = self.placement.run(
            [spoofer, RecordingParty(1)], until=[1], max_rounds=5,
            metrics=metrics,
        )
        assert result.outputs[1][0] == [0]
        assert metrics.tally_of(0).bits_sent == 11
        assert metrics.tally_of(1).bits_received == 11
        # The party traffic (the mesh also meters its control plane).
        assert [
            (c.src, c.dst, c.bits, c.phase) for c in flow.cells()
            if not c.kind.startswith("ctl:")
        ] == [(0, 1, 11, "declared")]


class TestTermination:
    placement = IN_PROCESS

    def test_run_until_honest(self):
        result = self.placement.run(
            [EchoParty(0, 1), SilentParty(1)], until=[0], max_rounds=10
        )
        assert result.rounds == 3  # stopped as soon as party 0 halted

    def test_nontermination_detected(self):
        with pytest.raises(self.placement.error, match="did not terminate"):
            self.placement.run([SilentParty(0), SilentParty(1)], max_rounds=5)

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


class TestFaultPlan:
    """A :class:`FaultPlan` is the round core's delivery policy on every
    single-process row: the row only holds the frames until they are due."""

    placement = IN_PROCESS

    def test_link_delay_holds_the_frame_but_charges_it_when_sent(self):
        metrics = CommunicationMetrics()
        result = self.placement.run(
            [Pinger(0, 1), RecordingParty(1, last_round=3)],
            metrics=metrics,
            fault_plan=FaultPlan(delays=[LinkDelay(0, 1, rounds=2)]),
        )
        # Sent in round 0, delayed two rounds: delivered at round 3.
        assert result.outputs[1] == ([0], [[], [], [], [b"x"]])
        assert metrics.round_bits[:4] == [8, 0, 0, 0]

    def test_crash_silences_a_party_and_lets_the_run_end(self):
        result = self.placement.run(
            [EchoParty(0, 1), EchoParty(1, 0)],
            max_rounds=10,
            fault_plan=FaultPlan(crashes={1: 1}),
        )
        # Party 1 pinged in round 0 and never stepped again.
        assert result.outputs == {0: [b"ping-1"]}

    def test_duplication_and_reorder_are_seeded(self):
        def run():
            return self.placement.run(
                [Pinger(0, 2, count=4), Pinger(1, 2, count=4),
                 RecordingParty(2)],
                fault_plan=FaultPlan(
                    reorder=True, duplicate_probability=0.5,
                    rng=Randomness(5),
                ),
            ).outputs[2]

        senders, inboxes = run()
        assert (senders, inboxes) == run()
        assert len(senders) > 8 and sorted(set(senders)) == [0, 1]
        assert senders != sorted(senders)  # not the canonical order

    def test_crash_is_traced_the_same_on_every_row(self):
        def traced(placement):
            trace = TraceRecorder()
            placement.run(
                [EchoParty(0, 1), EchoParty(1, 0)],
                max_rounds=10,
                trace=trace,
                fault_plan=FaultPlan(crashes={1: 1}),
            )
            return trace

        trace = traced(self.placement)
        assert "crash" in {e["kind"] for e in trace.events_of(1)}
        assert trace.fingerprint() == traced(IN_PROCESS).fingerprint()


class FrameLog(CommunicationMetrics):
    """A ledger that also keeps every frame it is charged, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.frames: List[Frame] = []

    def record_frames(self, frames, kind=""):
        frames = list(frames)
        self.frames.extend(frames)
        super().record_frames(frames, kind)


def _replayed_pi_ba():
    script = recorded_pi_ba(16, "snark").script()
    return build_replay_parties(script, 16), None, script.num_rounds + 2


#: name -> a fresh ``(parties, until, max_rounds)`` per call.
NO_POLICY_RUNS = {
    "phase-king": lambda: build_phase_king(
        {i: i % 2 for i in range(7)}, [1, 5]
    ),
    "gradecast": lambda: build_gradecast(range(7), 0, 1, byzantine=[3]),
    "pi-ba-replay": _replayed_pi_ba,
}


class TestNoPolicy:
    """No policy is lockstep delivery: a run that skips the policy's
    hooks shows exactly what a run asking a plan that never fires shows."""

    placement = IN_PROCESS

    @pytest.mark.parametrize("traced", [False, True], ids=["bare", "traced"])
    @pytest.mark.parametrize("protocol", sorted(NO_POLICY_RUNS))
    def test_no_policy_is_a_plan_that_never_fires(self, protocol, traced):
        def run(fault_plan):
            parties, until, max_rounds = NO_POLICY_RUNS[protocol]()
            ledger = FrameLog()
            result = self.placement.run(
                parties, until, max_rounds, metrics=ledger,
                trace=TraceRecorder() if traced else None,
                fault_plan=fault_plan,
            )
            return result, ledger

        lockstep, lockstep_ledger = run(None)
        planned, planned_ledger = run(FaultPlan())
        assert lockstep_ledger.frames
        assert lockstep_ledger.frames == planned_ledger.frames
        assert lockstep_ledger.snapshot() == planned_ledger.snapshot()
        assert (
            lockstep_ledger.phase_breakdown()
            == planned_ledger.phase_breakdown()
        )
        assert lockstep.outputs == planned.outputs
        if traced:
            assert lockstep.trace.fingerprint() == planned.trace.fingerprint()
        else:
            assert lockstep.trace is None and planned.trace is None


class TestTrace:
    """The round core emits the trace, so every row records the same one."""

    placement = IN_PROCESS

    def test_trace_is_the_round_cores(self):
        trace = TraceRecorder()
        result = self.placement.run(
            [EchoParty(0, 1), EchoParty(1, 0)], max_rounds=10, trace=trace
        )
        assert result.trace is trace
        reference = TraceRecorder()
        IN_PROCESS.run(
            [EchoParty(0, 1), EchoParty(1, 0)], max_rounds=10,
            trace=reference,
        )
        assert trace.fingerprint() == reference.fingerprint()
        kinds = {
            event["kind"]
            for party in trace.party_ids
            for event in trace.events_of(party)
        }
        assert {"send", "recv", "round-barrier", "halt"} <= kinds


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
