"""Control-channel and mesh data-plane codecs, plus socket behavior."""

from __future__ import annotations

import socket
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.meshwire import (
    _HEADER,
    MESH_MAGIC,
    MESH_VERSION,
    decode_train,
    encode_header,
)
from repro.cluster.wire import (
    _MAX_MESSAGE,
    DONE,
    HEARTBEAT,
    KINDS,
    ChannelClosed,
    Message,
    MessageChannel,
)
from repro.errors import (
    MALFORMED_INPUT_ERRORS,
    ClusterError,
    SerializationError,
)
from repro.net.party import Frame
from repro.net.trains import (
    MAX_RECORD,
    PREFIX_BYTES,
    decode_train_body,
    encode_train_body,
    length_prefix,
    split_records,
)
from repro.utils.serialization import encode_bytes, encode_sequence
from tests.strategies import bit_flips, truncations

json_fields = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
    ).filter(lambda k: k != "kind"),
    st.one_of(
        st.integers(min_value=-(1 << 31), max_value=1 << 31),
        st.booleans(),
        st.text(max_size=16),
    ),
    max_size=4,
)

messages = st.builds(
    Message,
    kind=st.sampled_from(KINDS),
    fields=json_fields,
    blob=st.binary(max_size=128),
)


@given(messages)
def test_message_round_trip(message):
    decoded = Message.decode(message.encode()[PREFIX_BYTES:])
    assert decoded.kind == message.kind
    assert decoded.fields == message.fields
    assert decoded.blob == message.blob


def test_unknown_kind_rejected_on_encode():
    with pytest.raises(ClusterError, match="kind"):
        Message("gremlin").encode()


def test_the_supervisor_has_no_per_round_message():
    """Workers step on the mesh alone: the control kinds that paced or
    checkpointed a round are gone, and a peer still speaking them is
    refused."""
    assert {"round", "checkpoint", "checkpointed", "peerdown"}.isdisjoint(
        KINDS
    )
    for kind in ("round", "checkpoint", "checkpointed"):
        header = b'{"kind":"%s","round":3}' % kind.encode()
        body = encode_bytes(header) + encode_bytes(b"")
        with pytest.raises(ClusterError, match="unknown control message"):
            Message.decode(body)


def test_a_wired_fleet_needs_no_introductions():
    """The channels exist before the fork: no worker names itself, no
    address book is brokered, no retained train is trimmed — five kinds
    are left, and a peer speaking a retired one is refused."""
    assert KINDS == ("job", "resumed", "done", "heartbeat", "stop")
    for kind in ("hello", "peers", "trim"):
        header = b'{"kind":"%s"}' % kind.encode()
        body = encode_bytes(header) + encode_bytes(b"")
        with pytest.raises(ClusterError, match="unknown control message"):
            Message.decode(body)


@given(st.integers(min_value=0, max_value=1 << 31))
def test_done_round_trip(round_index):
    message = Message(DONE, {"round": round_index, "checkpoint": 8})
    assert Message.decode(message.encode()[PREFIX_BYTES:]) == message


def test_corrupt_body_rejected():
    with pytest.raises(ClusterError):
        Message.decode(b"\x07garbage-that-is-not-a-message")


def test_old_format_body_with_a_frames_segment_is_rejected():
    """A format-1 record carried ``seq frame_encodings`` after the blob
    (an empty sequence is one count byte); the decoder refuses it."""
    body = Message(DONE, {"round": 3}).encode()[PREFIX_BYTES:]
    assert Message.decode(body).fields == {"round": 3}
    with pytest.raises(ClusterError, match="trailing bytes"):
        Message.decode(body + encode_sequence([]))


def test_payload_round_trip():
    payload = {"outputs": {0: 1}, "trace": {0: [{"seq": 0}]}}
    message = Message(DONE, blob=Message.pack_payload(payload))
    assert message.payload() == payload
    assert Message(DONE).payload() is None


def _channel_pair():
    a, b = socket.socketpair()
    return MessageChannel(a), MessageChannel(b)


class TestMessageChannel:
    def test_send_recv(self):
        left, right = _channel_pair()
        try:
            left.send(Message(DONE, {"round": 3}, blob=b"x"))
            got = right.recv(timeout=5.0)
            assert got.kind == DONE
            assert got.fields == {"round": 3}
            assert got.blob == b"x"
        finally:
            left.close()
            right.close()

    def test_timeout_preserves_framing(self):
        """A deadline mid-message must not lose partial bytes."""
        left, right = _channel_pair()
        try:
            data = Message(HEARTBEAT).encode()
            # Dribble the first half, let the recv time out, then finish.
            left._sock.sendall(data[:3])
            with pytest.raises(TimeoutError):
                right.recv(timeout=0.05)
            left._sock.sendall(data[3:])
            assert right.recv(timeout=5.0).kind == HEARTBEAT
        finally:
            left.close()
            right.close()

    def test_zero_timeout_polls_and_keeps_partial_bytes(self):
        """The supervisor's drain: ``recv(timeout=0)`` returns what
        already arrived and raises ``TimeoutError`` otherwise, holding
        a partial message in ``buffered`` for the next call."""
        left, right = _channel_pair()
        try:
            with pytest.raises(TimeoutError):
                right.recv(timeout=0)
            data = Message(DONE, {"round": 4}).encode()
            left._sock.sendall(data[:5])
            with pytest.raises(TimeoutError):
                right.recv(timeout=0)
            assert right.buffered == 5
            left._sock.sendall(data[5:])
            assert right.recv(timeout=0).fields == {"round": 4}
            assert right.buffered == 0
        finally:
            left.close()
            right.close()

    def test_a_recv_deadline_leaves_the_socket_blocking(self):
        """A deadline is a ``select``, not a socket timeout: after a
        polling ``recv(timeout=0)`` a body far larger than a socketpair's
        buffer still leaves whole, blocking until the reader drains it,
        as a worker's DONE must while its main loop polls for ``stop``."""
        left, right = _channel_pair()
        try:
            with pytest.raises(TimeoutError):
                right.recv(timeout=0)
            big = Message(DONE, {"round": 1}, blob=b"z" * (4 << 20))
            sender = threading.Thread(target=right.send, args=(big,))
            sender.start()
            sender.join(0.2)
            assert sender.is_alive(), "the send failed on a full buffer"
            got = left.recv(timeout=10.0)
            sender.join(10.0)
            assert not sender.is_alive()
            assert got.blob == big.blob
            assert right.data_bytes_sent == len(big.encode())
        finally:
            left.close()
            right.close()

    def test_messages_arriving_together_come_out_one_per_recv(self):
        """Two whole records in one read: the first ``recv`` returns the
        first, and the second is already in hand for a polling one."""
        left, right = _channel_pair()
        try:
            left._sock.sendall(
                Message(DONE, {"round": 1}).encode()
                + Message(DONE, {"round": 2}).encode()
            )
            assert right.recv(timeout=5.0).fields == {"round": 1}
            assert right.recv(timeout=0).fields == {"round": 2}
            assert right.buffered == 0
            with pytest.raises(TimeoutError):
                right.recv(timeout=0)
        finally:
            left.close()
            right.close()

    def test_clean_eof_raises_channel_closed(self):
        left, right = _channel_pair()
        left.close()
        with pytest.raises(ChannelClosed):
            right.recv(timeout=5.0)
        right.close()

    def test_release_drops_one_descriptor_and_leaves_the_connection(self):
        """What a forked worker does with a sibling's channel: the
        duplicate descriptor goes, the owner's connection carries on —
        ``close`` on the duplicate would have shut it down for both."""
        left, right = _channel_pair()
        try:
            inherited = MessageChannel(left._sock.dup())
            inherited.release()
            inherited.release()  # idempotent
            with pytest.raises(ClusterError, match="closed control channel"):
                inherited.send(Message(HEARTBEAT))
            left.send(Message(DONE, {"round": 1}))
            assert right.recv(timeout=5.0).fields == {"round": 1}

            MessageChannel(left._sock.dup()).close()
            with pytest.raises(ChannelClosed):
                right.recv(timeout=5.0)
        finally:
            left.close()
            right.close()

    def test_eof_mid_message_is_a_torn_stream(self):
        left, right = _channel_pair()
        data = Message(HEARTBEAT).encode()
        left._sock.sendall(data[:-2])
        left.close()
        with pytest.raises(ClusterError, match="mid-message"):
            right.recv(timeout=5.0)
        right.close()

    def test_an_oversized_length_prefix_is_refused_on_arrival(self):
        """A peer announcing a body past the cap is a corrupt stream at
        once, not a 256 MiB read the channel waits for."""
        left, right = _channel_pair()
        try:
            left._sock.sendall(length_prefix(_MAX_MESSAGE + 1))
            with pytest.raises(ClusterError, match="oversized control"):
                right.recv(timeout=0.5)
        finally:
            left.close()
            right.close()

    def test_oversized_message_is_refused_before_anything_is_written(
        self, monkeypatch
    ):
        """No chunking on the control channel: a body past the cap is a
        ``ClusterError`` on the sending side, and the stream stays
        framed for whatever is sent next."""
        import repro.cluster.wire as wire

        assert wire._MAX_MESSAGE == 256 << 20
        assert "part" not in wire.KINDS
        monkeypatch.setattr(wire, "_MAX_MESSAGE", 64)
        left, right = _channel_pair()
        try:
            with pytest.raises(ClusterError, match="exceeds 64"):
                left.send(Message(DONE, {"round": 9}, blob=b"y" * 300))
            assert left.data_bytes_sent == 0
            left.send(Message(HEARTBEAT))
            assert right.recv(timeout=5.0).kind == HEARTBEAT
        finally:
            left.close()
            right.close()

    def test_concurrent_sends_stay_framed(self):
        """Heartbeat-thread + main-loop interleaving never tears frames."""
        left, right = _channel_pair()
        per_thread = 50

        def blast(kind):
            for _ in range(per_thread):
                left.send(Message(kind))

        threads = [
            threading.Thread(target=blast, args=(HEARTBEAT,)),
            threading.Thread(target=blast, args=(DONE,)),
        ]
        try:
            for t in threads:
                t.start()
            got = [right.recv(timeout=5.0).kind for _ in range(2 * per_thread)]
            assert sorted(got).count(HEARTBEAT) == per_thread
            assert sorted(got).count(DONE) == per_thread
        finally:
            for t in threads:
                t.join()
            left.close()
            right.close()


# -- mesh data-plane codec ----------------------------------------------------

#: Frames as the mesh ships them: obs ``phase`` labels ride the train's
#: string table, and ``charge_bits=-1`` (the "charge payload size"
#: sentinel) must survive the signed header field.
@st.composite
def mesh_frames(draw):
    sent_round = draw(st.integers(min_value=0, max_value=500))
    delay = draw(st.integers(min_value=1, max_value=16))
    return Frame(
        sender=draw(st.integers(min_value=0, max_value=1 << 16)),
        recipient=draw(st.integers(min_value=0, max_value=1 << 16)),
        payload=draw(st.binary(max_size=48)),
        sent_round=sent_round,
        deliver_round=sent_round + delay,
        charge_bits=draw(st.integers(min_value=-1, max_value=1 << 30)),
        seq=draw(st.integers(min_value=0, max_value=1 << 16)),
        phase=draw(st.sampled_from(
            ["", "setup", "vote", "κ/graded-consensus"]
        )),
    )


trains = st.lists(mesh_frames(), max_size=8)

rounds = st.integers(min_value=0, max_value=(1 << 32) - 1)

#: An empty train's body: the round barrier a peer owes every round.
EMPTY = encode_train_body([])


def _record(round_index, body, halted=False, src=3, dst=5):
    """One train record as a link carries it, without its prefix."""
    return encode_header(src, dst, round_index, halted) + body


class TestTrainBodyCodec:
    @given(trains)
    def test_round_trip(self, train):
        assert decode_train_body(encode_train_body(train)) == train

    def test_empty_train_round_trips(self):
        assert decode_train_body(encode_train_body([])) == []

    @given(trains.filter(bool).flatmap(
        lambda t: truncations(encode_train_body(t))
    ))
    def test_truncation_raises_not_hangs(self, cut):
        with pytest.raises(MALFORMED_INPUT_ERRORS):
            decode_train_body(cut)

    @given(trains.flatmap(lambda t: bit_flips(encode_train_body(t))))
    def test_bit_flip_never_crashes(self, corrupted):
        """A flipped bit either decodes to well-typed frames (payload
        bytes are opaque) or raises a library error — never an
        unhandled crash."""
        try:
            for frame in decode_train_body(corrupted):
                assert isinstance(frame, Frame)
        except MALFORMED_INPUT_ERRORS:
            pass

    def test_trailing_bytes_rejected(self):
        body = encode_train_body([Frame(0, 1, b"x")])
        with pytest.raises(SerializationError, match="trailing"):
            decode_train_body(body + b"\x00")

    def test_unknown_phase_id_rejected(self):
        body = bytearray(encode_train_body([Frame(0, 1, b"x", phase="p")]))
        # One phase in the table; point the frame header at id 7.
        offset = 4 + 2 + 1 + 4 + (4 + 4 + 4 + 4 + 8 + 4)
        body[offset:offset + 2] = (7).to_bytes(2, "big")
        with pytest.raises(SerializationError, match="phase id"):
            decode_train_body(bytes(body))


class TestTrainRecord:
    @given(trains, rounds)
    def test_round_trip(self, train, round_index):
        record = _record(round_index, encode_train_body(train))
        assert decode_train(record, 3, 5, round_index) == (train, False)

    @given(trains, rounds, st.booleans())
    def test_halted_flag_round_trips(self, train, round_index, halted):
        record = _record(round_index, encode_train_body(train), halted)
        assert decode_train(record, 3, 5, round_index) == (train, halted)

    def test_an_empty_train_is_one_barrier_record(self):
        """The round barrier: no frames is still one record, header and
        an empty body behind one length prefix."""
        record = _record(7, EMPTY)
        buffer = bytearray(length_prefix(len(record)) + record)
        assert split_records(buffer, 64) == [record]
        assert len(record) == _HEADER.size + len(EMPTY)
        assert decode_train(record, 3, 5, 7) == ([], False)

    @given(st.binary(max_size=40).flatmap(
        lambda b: truncations(_record(3, encode_train_body([Frame(3, 5, b)])))
    ))
    def test_truncated_record_raises(self, cut):
        with pytest.raises(MALFORMED_INPUT_ERRORS):
            decode_train(cut, 3, 5, 3)

    @given(st.binary(max_size=40).flatmap(
        lambda b: bit_flips(_record(3, encode_train_body([Frame(3, 5, b)])))
    ))
    def test_bit_flipped_record_never_crashes(self, corrupted):
        try:
            frames, halted = decode_train(corrupted, 3, 5, 3)
            assert isinstance(halted, bool)
            assert all(isinstance(frame, Frame) for frame in frames)
        except MALFORMED_INPUT_ERRORS:
            pass

    def test_bad_magic_rejected(self):
        record = bytearray(_record(3, EMPTY))
        record[:4] = b"NOPE"
        with pytest.raises(SerializationError, match="magic"):
            decode_train(bytes(record), 3, 5, 3)
        assert MESH_MAGIC != b"NOPE"

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_halted_flag_outside_zero_one_refused(self, flag):
        record = bytearray(_record(3, EMPTY))
        record[5] = flag  # magic(4) version(1) halted(1)
        with pytest.raises(SerializationError, match="halted flag"):
            decode_train(bytes(record), 3, 5, 3)

    def test_the_retired_hello_kind_is_refused(self):
        """Format v2's link handshake was a record of kind 2; its
        version byte refuses it."""
        hello = MESH_MAGIC + bytes([2, 2, 0]) + bytes(24)
        with pytest.raises(SerializationError, match="version 2"):
            decode_train(hello, 0, 1, 5)

    def test_a_v3_record_is_refused_by_version(self):
        """v4 dropped v3's record kind, chunk coordinates and payload
        length: a v3 chunk record's header is thirteen bytes longer and
        decodes to a version error, not a mis-framed train."""
        assert MESH_VERSION == 4 and _HEADER.size == 14
        v3_empty_train = (
            MESH_MAGIC + bytes([3, 1, 0]) + (3).to_bytes(2, "big")
            + (5).to_bytes(2, "big") + (7).to_bytes(4, "big") + bytes(4)
            + (1).to_bytes(4, "big") + len(EMPTY).to_bytes(4, "big") + EMPTY
        )
        with pytest.raises(SerializationError, match="version 3"):
            decode_train(v3_empty_train, 3, 5, 7)


    def test_a_record_past_what_a_u32_states_is_refused_by_its_sender(self):
        """The mesh's cap is the prefix's own range, 4 GiB - 1: a longer
        train fails loudly where it is written, never as a wrapped
        length."""
        assert length_prefix(MAX_RECORD) == b"\xff" * 4
        with pytest.raises(SerializationError, match="exceeds"):
            length_prefix(MAX_RECORD + 1)


class TestLinkOrder:
    """A link is one ordered stream: a receiver decodes each record
    against the next round the link owes (``MeshRouter`` keeps only that
    counter)."""

    def test_consecutive_rounds_decode_in_order(self):
        body_a = encode_train_body([Frame(0, 1, b"a" * 24)])
        body_b = encode_train_body([Frame(0, 1, b"b" * 40)])
        records = [_record(10, body_a, src=0, dst=1),
                   _record(11, body_b, True, src=0, dst=1)]
        buffer = bytearray(
            b"".join(length_prefix(len(r)) + r for r in records)
        )
        decoded = [
            decode_train(record, 0, 1, 10 + offset)
            for offset, record in enumerate(split_records(buffer, 1 << 10))
        ]
        assert decoded == [
            (decode_train_body(body_a), False),
            (decode_train_body(body_b), True),
        ]

    def test_interleaved_rounds_refused(self):
        """Round 11's train where the link owes round 10."""
        with pytest.raises(SerializationError, match="owes round 10"):
            decode_train(_record(11, EMPTY, src=0, dst=1), 0, 1, 10)

    @pytest.mark.parametrize("round_index", [0, 4, 6, 1 << 31])
    def test_a_round_other_than_the_next_is_refused(self, round_index):
        """A repeated round (4), one skipped ahead (6), or one from any
        other run: the link owes exactly round 5."""
        assert decode_train(_record(4, EMPTY, src=0, dst=1), 0, 1, 4)
        with pytest.raises(SerializationError, match="owes round 5"):
            decode_train(_record(round_index, EMPTY, src=0, dst=1), 0, 1, 5)

    @pytest.mark.parametrize("src, dst", [(2, 1), (0, 2), (1, 0), (0, 0)])
    def test_a_train_of_another_link_is_refused(self, src, dst):
        with pytest.raises(SerializationError,
                           match="arrived on the link from worker 0"):
            decode_train(_record(3, EMPTY, src=src, dst=dst), 0, 1, 3)

    def test_size_cap_enforced(self):
        """The cap is read off the prefix: a record past it is refused
        before a byte of its body arrives."""
        buffer = bytearray(length_prefix(33))
        with pytest.raises(SerializationError, match="exceeds 32"):
            split_records(buffer, 32)
