"""Tests for the Party base class helpers and the message records."""

import pytest

from repro.net.party import AsyncParty, Envelope, Frame, Party, SilentParty
from repro.net.rounds import RoundCore
from repro.net.trains import decode_train_body, encode_train_body


class MinimalParty(Party):
    def step(self, round_index, inbox):
        if round_index == 0:
            return [self.send(1, b"hello")]
        return self.halt("done")


class TestPartyHelpers:
    def test_send_stamps_own_id(self):
        party = MinimalParty(7)
        envelope = party.send(3, b"payload")
        assert envelope.sender == 7
        assert envelope.recipient == 3
        assert envelope.payload == b"payload"

    def test_halt_sets_state_and_returns_empty(self):
        party = MinimalParty(0)
        result = party.halt({"output": 1})
        assert result == []
        assert party.halted
        assert party.output == {"output": 1}

    def test_initial_state(self):
        party = MinimalParty(0)
        assert not party.halted
        assert party.output is None

    def test_silent_party_never_sends(self):
        silent = SilentParty(5)
        for round_index in range(5):
            assert silent.step(round_index, []) == []
        assert not silent.halted

    def test_envelope_size(self):
        assert Envelope(0, 1, b"").size_bits() == 0
        assert Envelope(0, 1, bytes(10)).size_bits() == 80


class _PhasedAsyncParty(AsyncParty):
    def start(self):
        return [self.send(2, b"vote", phase="aba-bval")]

    def on_message(self, envelope):
        return []


class _SizedSender(Party):
    """Two declared-size, phase-tagged envelopes per round, to party 1."""

    def step(self, round_index, inbox):
        return [
            Envelope(0, 1, b"\x00\x00", phase="declared", charge_bits=11),
            Envelope(0, 1, b"\x00\x00", phase="declared", charge_bits=13),
        ]


def _emitted_frame():
    frames = RoundCore(
        [_SizedSender(0), SilentParty(1)], first_round=3
    ).step_round(3)
    return frames[1]


#: One record per construction path: both sends, emit and decode.
_RECORDS = {
    "Party.send": lambda: MinimalParty(7).send(3, b"payload"),
    "AsyncParty.send": lambda: _PhasedAsyncParty(4).start()[0],
    "RoundCore": _emitted_frame,
    "decode_train_body": lambda: decode_train_body(
        encode_train_body([_emitted_frame()])
    )[0],
}


@pytest.mark.parametrize("source", sorted(_RECORDS))
class TestMessageRepresentation:
    """Every executor's per-message record is one immutable tuple."""

    def test_no_instance_dict(self, source):
        assert not hasattr(_RECORDS[source](), "__dict__")

    def test_attributes_cannot_be_assigned(self, source):
        record = _RECORDS[source]()
        with pytest.raises(AttributeError):
            record.sender = 99
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_replace_sender_keeps_every_other_field(self, source):
        record = _RECORDS[source]()
        moved = record._replace(sender=record.sender + 1)
        assert type(moved) is type(record)
        assert moved.sender == record.sender + 1
        kept = [f for f in record._fields if f != "sender"]
        assert [getattr(moved, f) for f in kept] == [
            getattr(record, f) for f in kept
        ]

    def test_the_record_carries_what_was_declared(self, source):
        frame = Frame(
            sender=0, recipient=1, payload=b"\x00\x00",
            sent_round=3, deliver_round=4, charge_bits=13, seq=1,
            phase="declared",
        )
        expected = {
            "Party.send": Envelope(7, 3, b"payload", "", -1),
            "AsyncParty.send": Envelope(4, 2, b"vote", "aba-bval", -1),
            "RoundCore": frame,
            "decode_train_body": frame,
        }[source]
        record = _RECORDS[source]()
        assert type(record) is type(expected)
        assert record == expected
