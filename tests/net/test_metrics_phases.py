"""Phase attribution on the communication ledger + tally_of regression."""

from contextlib import ExitStack

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.metrics import CommunicationMetrics, PhaseBreakdown
from repro.net.party import Frame
from repro.obs.flow import FlowLedger
from repro.obs.spans import UNATTRIBUTED, flow_tags, span
from repro.runtime.replay import RecordingLedger

_PHASES = st.sampled_from(["", "kssv", "srds-aggregate", "prf-boost"])
_KINDS = st.sampled_from(["", "frame", "async"])
_PARTIES = st.integers(min_value=0, max_value=5)

#: One charge: the span nesting and ambient kind it is made under, the
#: label it carries itself, and a wire message or a hybrid op.
_CHARGES = st.tuples(
    st.lists(_PHASES.filter(bool), max_size=2),
    _KINDS,
    _PHASES,
    _KINDS,
    st.one_of(
        st.tuples(_PARTIES, _PARTIES, st.integers(0, 4096)),
        st.tuples(
            st.sets(_PARTIES, min_size=1), st.integers(0, 4096),
            st.integers(0, 3),
        ),
    ),
)


class TestPhaseAttribution:
    def test_charges_outside_spans_are_unattributed(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 10)
        assert metrics.bits_by_phase(0) == {UNATTRIBUTED: 10}
        assert metrics.bits_by_phase(1) == {UNATTRIBUTED: 10}

    def test_innermost_span_wins(self):
        metrics = CommunicationMetrics()
        with span("outer"):
            metrics.record_message(0, 1, 8)
            with span("inner"):
                metrics.record_message(0, 1, 4)
        assert metrics.bits_by_phase(0) == {"outer": 8, "inner": 4}
        assert metrics.phases == ["inner", "outer"]

    def test_both_endpoints_charged(self):
        # bits_by_phase follows the bits_total convention: a transfer
        # contributes its size to the sender AND the recipient.
        metrics = CommunicationMetrics()
        with span("p"):
            metrics.record_message(3, 7, 100)
        assert metrics.bits_by_phase(3) == {"p": 100}
        assert metrics.bits_by_phase(7) == {"p": 100}
        assert metrics.tally_of(3).bits_total == 100

    def test_functionality_charges_attributed_per_participant(self):
        metrics = CommunicationMetrics()
        with span("committee-ba"):
            metrics.charge_functionality([0, 1, 2], 64, 2)
        for party in (0, 1, 2):
            assert metrics.bits_by_phase(party) == {"committee-ba": 64}
            assert metrics.tally_of(party).bits_total == 64

    def test_sum_of_phases_equals_bits_total(self):
        metrics = CommunicationMetrics()
        with span("a"):
            metrics.record_message(0, 1, 11)
        with span("b"):
            metrics.record_message(1, 0, 7)
            metrics.charge_functionality([0, 1], 33, 1)
        metrics.record_message(0, 1, 5)
        for party in (0, 1):
            assert sum(metrics.bits_by_phase(party).values()) == (
                metrics.tally_of(party).bits_total
            )

    def test_breakdown_aggregates(self):
        metrics = CommunicationMetrics()
        with span("p"):
            metrics.record_message(0, 1, 10)
            metrics.record_message(0, 2, 30)
        breakdown = metrics.phase_breakdown()
        assert breakdown["p"] == PhaseBreakdown(
            phase="p",
            total_bits=80,  # 40 at party 0, 10 at 1, 30 at 2
            max_bits_per_party=40,
            parties=3,
            messages=2,
        )

    def test_bits_by_phase_returns_a_copy(self):
        metrics = CommunicationMetrics()
        with span("p"):
            metrics.record_message(0, 1, 10)
        view = metrics.bits_by_phase(0)
        view["p"] = 0
        assert metrics.bits_by_phase(0) == {"p": 10}

    def test_unknown_party_has_empty_breakdown(self):
        assert CommunicationMetrics().bits_by_phase(42) == {}

    def test_aggregates_unchanged_by_attribution(self):
        # The phase dimension is additive-only: snapshots of a spanned
        # and an unspanned run of the same traffic are identical.
        def run(with_span_):
            metrics = CommunicationMetrics()
            if with_span_:
                with span("p"):
                    metrics.record_message(0, 1, 10)
            else:
                metrics.record_message(0, 1, 10)
            metrics.end_round()
            return metrics.snapshot()

        assert run(True) == run(False)


class TestTheTwoViewsAgree:
    @given(st.lists(_CHARGES, max_size=30))
    def test_label_dimension_equals_the_flow_cell_view_per_party_and_phase(
        self, charges
    ):
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        for spans, ambient, phase, kind, charge in charges:
            with ExitStack() as stack:
                for name in spans:
                    stack.enter_context(span(name))
                if ambient:
                    stack.enter_context(flow_tags(ambient))
                if isinstance(charge[0], int):
                    metrics.record_message(*charge, phase=phase, kind=kind)
                else:
                    metrics.charge_functionality(
                        sorted(charge[0]), charge[1], charge[2],
                        phase=phase, kind=kind,
                    )
        assert flow.evicted_cells == 0
        from_cells = {}
        for cell in flow.cells():
            for party in {cell.src, cell.dst}:  # a self-send is one cell
                if party >= 0 and cell.bits:
                    per_phase = from_cells.setdefault(party, {})
                    per_phase[cell.phase] = (
                        per_phase.get(cell.phase, 0)
                        + cell.bits * ((cell.src == party) + (cell.dst == party))
                    )
        for party in metrics.party_ids:
            by_phase = metrics.bits_by_phase(party)
            assert {k: v for k, v in by_phase.items() if v} == (
                from_cells.get(party, {})
            )
            assert sum(by_phase.values()) == (
                metrics.tally_of(party).bits_total
            )
        assert flow.verify_against(metrics) == []


#: One multicast: the span nesting and ambient kind it is made under, the
#: label it carries, (sender, recipients — duplicates, the sender itself
#: and none at all included — bits), and what closes the step after it.
_MULTICASTS = st.tuples(
    st.lists(_PHASES.filter(bool), max_size=2),
    _KINDS,
    _PHASES,
    _KINDS,
    st.tuples(
        _PARTIES, st.lists(_PARTIES, max_size=6), st.integers(0, 4096)
    ),
    st.sampled_from(["", "end_round", "functionality"]),
)


def _assert_same_ledger(one, one_flow, many, many_flow):
    """Two ledgers (and their flow ledgers) agree in every view, the
    order of a party's phase keys and of the flow cells included."""
    assert one.snapshot() == many.snapshot()
    assert one.phase_breakdown() == many.phase_breakdown()
    assert list(one.phase_breakdown()) == list(many.phase_breakdown())
    assert one.party_ids == many.party_ids
    for party in many.party_ids:
        assert list(one.bits_by_phase(party).items()) == list(
            many.bits_by_phase(party).items()
        )
        assert one.tally_of(party) == many.tally_of(party)
    assert list(one._phase_messages.items()) == list(
        many._phase_messages.items()
    )
    assert one.round_bits == many.round_bits
    assert one.current_round_bits == many.current_round_bits
    if isinstance(many, RecordingLedger):
        assert one.script() == many.script()
    if many_flow is not None:
        assert list(one_flow._cells.items()) == list(many_flow._cells.items())
        assert one_flow.cells() == many_flow.cells()
        assert one_flow.summary() == many_flow.summary()
        assert one_flow.verify_against(one) == []


class TestMulticastIsNMessages:
    @given(st.lists(_MULTICASTS, max_size=12), st.booleans())
    def test_one_multicast_equals_the_record_message_loop(
        self, steps, with_flow
    ):
        def run(fan_out):
            ledger = RecordingLedger()
            flow = FlowLedger() if with_flow else None
            ledger.attach_flow(flow)
            returned = []
            for spans, ambient, phase, kind, charge, closing in steps:
                sender, recipients, bits = charge
                with ExitStack() as stack:
                    for name in spans:
                        stack.enter_context(span(name))
                    if ambient:
                        stack.enter_context(flow_tags(ambient))
                    returned.append(
                        fan_out(ledger, sender, recipients, bits, phase, kind)
                    )
                    if closing == "end_round":
                        ledger.end_round()
                    elif closing == "functionality":
                        ledger.charge_functionality([0, 1], 64, 1)
            return ledger, flow, returned

        def multicast(ledger, sender, recipients, bits, phase, kind):
            return [
                ledger.record_multicast(
                    sender, recipients, bits, phase=phase, kind=kind
                )
            ] * len(recipients)

        def loop(ledger, sender, recipients, bits, phase, kind):
            return [
                ledger.record_message(
                    sender, recipient, bits, phase=phase, kind=kind
                )
                for recipient in recipients
            ]

        one, one_flow, one_phases = run(multicast)
        many, many_flow, many_phases = run(loop)
        assert one_phases == many_phases
        _assert_same_ledger(one, one_flow, many, many_flow)

    def test_negative_size_is_refused_before_anything_is_charged(self):
        metrics = CommunicationMetrics()
        with pytest.raises(NetworkError):
            metrics.record_multicast(0, [1, 2], -1)
        assert metrics.party_ids == []


#: One exchange: the span nesting and ambient kind it is made under, the
#: label it carries, (senders, recipients, bits) — ids repeated on either
#: side, sides that overlap, empty sides and zero bits included —,
#: whether a party on both sides skips itself, and what closes the step.
_EXCHANGES = st.tuples(
    st.lists(_PHASES.filter(bool), max_size=2),
    _KINDS,
    _PHASES,
    _KINDS,
    st.tuples(
        st.lists(_PARTIES, max_size=6), st.lists(_PARTIES, max_size=6),
        st.sampled_from([0, 0, 1, 13, 64, 4096]),
    ),
    st.booleans(),
    st.sampled_from(["", "end_round", "functionality"]),
)


class TestExchangeIsOneMulticastPerSender:
    @given(
        st.lists(_EXCHANGES, max_size=10),
        st.sampled_from([CommunicationMetrics, RecordingLedger]),
        st.booleans(),
    )
    # Everyone skips everything: no tally, phase key or send may appear.
    @example(
        steps=[([], "", "kssv", "", ([2, 2], [2], 8), True, "")],
        ledger_class=RecordingLedger,
        with_flow=True,
    )
    def test_one_exchange_equals_the_record_multicast_loop(
        self, steps, ledger_class, with_flow
    ):
        def run(charge):
            ledger = ledger_class()
            flow = FlowLedger() if with_flow else None
            ledger.attach_flow(flow)
            returned = []
            for spans, ambient, phase, kind, traffic, skip_self, closing in steps:
                with ExitStack() as stack:
                    for name in spans:
                        stack.enter_context(span(name))
                    if ambient:
                        stack.enter_context(flow_tags(ambient))
                    returned.append(
                        charge(ledger, *traffic, phase, kind, skip_self)
                    )
                    if closing == "end_round":
                        ledger.end_round()
                    elif closing == "functionality":
                        ledger.charge_functionality([0, 1], 64, 1)
            return ledger, flow, returned

        def exchange(
            ledger, senders, recipients, bits, phase, kind, skip_self
        ):
            return [
                ledger.record_exchange(
                    senders, recipients, bits,
                    phase=phase, kind=kind, skip_self=skip_self,
                )
            ] * len(senders)

        def loop(ledger, senders, recipients, bits, phase, kind, skip_self):
            return [
                ledger.record_multicast(
                    sender,
                    [
                        recipient for recipient in recipients
                        if not (skip_self and recipient == sender)
                    ],
                    bits, phase=phase, kind=kind,
                )
                for sender in senders
            ]

        one, one_flow, one_phases = run(exchange)
        many, many_flow, many_phases = run(loop)
        assert one_phases == many_phases
        _assert_same_ledger(one, one_flow, many, many_flow)

    def test_skip_self_keeps_a_peer_known_from_an_earlier_charge(self):
        # Skipping the message to oneself must not forget that an earlier
        # charge did cross that edge.
        metrics = CommunicationMetrics()
        metrics.record_message(0, 0, 8)
        metrics.record_exchange([0, 1], [0, 1], 8, skip_self=True)
        assert metrics.tally_of(0).peers_sent_to == {0, 1}
        assert metrics.tally_of(0).peers_received_from == {0, 1}
        assert metrics.tally_of(1).peers_sent_to == {0}
        assert metrics.tally_of(1).peers_received_from == {0}

    def test_negative_size_is_refused_before_anything_is_charged(self):
        ledger = RecordingLedger()
        flow = FlowLedger()
        ledger.attach_flow(flow)
        with pytest.raises(NetworkError):
            ledger.record_exchange([0, 1], [1, 2], -1, skip_self=True)
        assert ledger.party_ids == [] and ledger.current_round_bits == 0
        assert ledger.script().num_messages == 0 and flow.cells() == []


#: One frame as a lockstep placement charges it: charge_bits=-1 (charge
#: the payload), non-byte-multiple charges, empty and shared phases, and
#: few enough parties that (sender, recipient) pairs and whole fan-outs
#: repeat back to back.
_FRAMES = st.builds(
    Frame,
    sender=_PARTIES,
    recipient=_PARTIES,
    payload=st.binary(max_size=3),
    charge_bits=st.sampled_from([-1, -1, 0, 13, 64]),
    phase=_PHASES,
)

#: One round's batch: the span and ambient kind it is charged under, the
#: caller's kind, the frames, and whether the round closes after it.
_BATCHES = st.tuples(
    st.lists(_PHASES.filter(bool), max_size=2),
    _KINDS,
    _KINDS,
    st.lists(_FRAMES, max_size=12),
    st.booleans(),
)


class TestFramesAreNMessages:
    @given(st.lists(_BATCHES, max_size=6), st.booleans())
    def test_one_batch_equals_the_record_message_loop(self, rounds, with_flow):
        def run(charge):
            ledger = RecordingLedger()
            flow = FlowLedger() if with_flow else None
            ledger.attach_flow(flow)
            for spans, ambient, kind, frames, closes in rounds:
                with ExitStack() as stack:
                    for name in spans:
                        stack.enter_context(span(name))
                    if ambient:
                        stack.enter_context(flow_tags(ambient))
                    charge(ledger, frames, kind)
                    if closes:
                        ledger.end_round()
            return ledger, flow

        def loop(ledger, frames, kind):
            for frame in frames:
                ledger.record_message(
                    frame.sender, frame.recipient, frame.bits(),
                    phase=frame.phase, kind=kind,
                )

        one, one_flow = run(lambda l, frames, kind: l.record_frames(frames, kind))
        many, many_flow = run(loop)
        _assert_same_ledger(one, one_flow, many, many_flow)

    def test_an_empty_batch_charges_nothing(self):
        metrics = CommunicationMetrics()
        metrics.record_frames([])
        assert metrics.party_ids == [] and metrics.current_round_bits == 0


#: One party's fan-out: a run of frames sharing sender, bits and phase.
_FANOUTS = st.builds(
    lambda sender, bits, phase, recipients: [
        Frame(sender, recipient, b"", charge_bits=bits, phase=phase)
        for recipient in recipients
    ],
    _PARTIES,
    st.sampled_from([0, 13, 64]),
    _PHASES,
    st.lists(_PARTIES, min_size=1, max_size=5),
)

#: One round's emissions: fan-outs and lone frames, back to back, so
#: equal (sender, bits, phase) keys both repeat and split runs.
_ROUND_FRAMES = st.lists(
    st.one_of(_FANOUTS, _FRAMES.map(lambda frame: [frame])), max_size=8
).map(lambda groups: [frame for group in groups for frame in group])


class TestDigestRunsAreRecordFrames:
    """A cluster worker ships a round's frames as multicast runs; the
    supervisor validates each run and charges it with one
    ``record_multicast``.  That must be ``record_frames`` to the bit."""

    @given(st.lists(st.tuples(_ROUND_FRAMES, st.booleans()), max_size=5))
    def test_worker_runs_charge_what_record_frames_charges(self, rounds):
        from repro.cluster.job import replay_job
        from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
        from repro.cluster.wire import DONE, Message
        from repro.net.metrics import multicast_runs
        from repro.runtime.replay import ReplayScript

        def run(charge):
            ledger = CommunicationMetrics()
            flow = FlowLedger()
            ledger.attach_flow(flow)
            for frames, closes in rounds:
                charge(ledger, frames)
                if closes:
                    ledger.end_round()
            return ledger, flow

        def through_the_supervisor(ledger, frames):
            # One worker owning all six parties: every sender is its own.
            supervisor = ClusterSupervisor(
                replay_job(ReplayScript(segments=[]), 6),
                ClusterConfig(num_workers=1),
                metrics=ledger,
            )
            digest = list(multicast_runs(frames))
            supervisor._process_done(0, Message(
                DONE, {"round": 0},
                blob=Message.pack_payload({"digest": digest}),
            ))

        runs, runs_flow = run(through_the_supervisor)
        frames, frames_flow = run(
            lambda ledger, batch: ledger.record_frames(batch, kind="frame")
        )
        _assert_same_ledger(runs, runs_flow, frames, frames_flow)


class TestTallyOfRegression:
    def test_unknown_party_phantom_tally_is_disconnected(self):
        # Historically tally_of() for an unknown party returned a fresh
        # mutable PartyTally that was NOT stored in the ledger; mutating
        # it silently changed nothing, while mutating a known party's
        # returned tally corrupted the ledger.  Both are now copies.
        metrics = CommunicationMetrics()
        phantom = metrics.tally_of(9)
        phantom.bits_sent += 1_000
        assert metrics.tally_of(9).bits_sent == 0
        assert metrics.total_bits == 0

    def test_known_party_tally_is_a_defensive_copy(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 10)
        view = metrics.tally_of(0)
        view.bits_sent += 1_000
        view.peers_sent_to.add(99)
        assert metrics.tally_of(0).bits_sent == 10
        assert metrics.tally_of(0).peers_sent_to == {1}
        assert metrics.max_bits_per_party == 10
