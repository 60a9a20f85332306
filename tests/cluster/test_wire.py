"""Control-channel and mesh data-plane codecs, plus socket behavior."""

from __future__ import annotations

import socket
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.meshwire import (
    _CHUNK,
    MESH_CHUNK_BYTES,
    MESH_MAGIC,
    MESH_VERSION,
    MeshChunk,
    TrainAssembler,
    decode_chunk,
    split_train,
)
from repro.cluster.wire import (
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
from repro.net.trains import _LENGTH, decode_train_body, encode_train_body
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
    decoded = Message.decode(message.encode()[_LENGTH.size:])
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
    assert Message.decode(message.encode()[_LENGTH.size:]) == message


def test_corrupt_body_rejected():
    with pytest.raises(ClusterError):
        Message.decode(b"\x07garbage-that-is-not-a-message")


def test_old_format_body_with_a_frames_segment_is_rejected():
    """A format-1 record carried ``seq frame_encodings`` after the blob
    (an empty sequence is one count byte); the decoder refuses it."""
    body = Message(DONE, {"round": 3}).encode()[_LENGTH.size:]
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

#: (round, chunk size) coordinates for split/reassemble runs.
coords = st.tuples(
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=1, max_value=64),
)


def _assemble(records, assembler=None):
    """Feed chunk records to an assembler (by default one expecting the
    first record's round); return the completed ``(round, body,
    halted)`` trains."""
    if assembler is None:
        assembler = TrainAssembler(decode_chunk(records[0]).round_index)
    completed = []
    for record in records:
        done = assembler.add(decode_chunk(record))
        if done is not None:
            completed.append(done)
    return completed


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


class TestChunkCodec:
    @given(trains, coords)
    def test_split_reassemble_round_trip(self, train, coordinates):
        round_index, chunk_bytes = coordinates
        body = encode_train_body(train)
        records = split_train(3, 5, round_index, body,
                              chunk_bytes=chunk_bytes)
        completed = _assemble(records)
        assert completed == [(round_index, body, False)]
        assert decode_train_body(completed[0][1]) == train

    @given(trains, coords, st.booleans())
    def test_halted_flag_rides_every_chunk(self, train, coordinates, halted):
        round_index, chunk_bytes = coordinates
        body = encode_train_body(train)
        records = split_train(3, 5, round_index, body, halted,
                              chunk_bytes=chunk_bytes)
        assert all(decode_chunk(r).halted is halted for r in records)
        assert _assemble(records) == [(round_index, body, halted)]

    @given(trains.filter(bool), coords, st.data())
    def test_reordered_or_repeated_chunk_refused(self, train, coordinates,
                                                data):
        """A link is one ordered stream: a chunk delivered out of order,
        or twice, is a broken link, never a train."""
        round_index, chunk_bytes = coordinates
        body = encode_train_body(train)
        records = split_train(3, 5, round_index, body,
                              chunk_bytes=min(chunk_bytes, len(body) // 2))
        position = data.draw(st.integers(0, len(records) - 2))
        swapped = list(records)
        swapped[position], swapped[position + 1] = (
            swapped[position + 1], swapped[position]
        )
        repeated = [*records[:position + 1], *records[position:]]
        for noisy in (swapped, repeated):
            with pytest.raises(SerializationError, match="next"):
                _assemble(noisy, TrainAssembler(round_index))

    def test_empty_body_yields_one_barrier_chunk(self):
        records = split_train(0, 1, 7, b"")
        assert len(records) == 1
        assert _assemble(records) == [(7, b"", False)]

    def test_oversized_body_splits_at_chunk_threshold(self):
        """A >32 MiB body rides as multiple records and reassembles —
        the heavy OWF gossip rounds depend on it."""
        body = b"\xab" * (MESH_CHUNK_BYTES + 1024)
        records = split_train(0, 1, 2, body)
        assert len(records) == 2
        assert _assemble(records) == [(2, body, False)]

    @given(st.binary(max_size=40).flatmap(
        lambda b: truncations(split_train(1, 2, 3, b, chunk_bytes=16)[0])
    ))
    def test_truncated_record_raises(self, cut):
        with pytest.raises(MALFORMED_INPUT_ERRORS):
            decode_chunk(cut)

    @given(st.binary(max_size=40).flatmap(
        lambda b: bit_flips(split_train(1, 2, 3, b, chunk_bytes=16)[0])
    ))
    def test_bit_flipped_record_never_crashes(self, corrupted):
        try:
            assert isinstance(decode_chunk(corrupted), MeshChunk)
        except MALFORMED_INPUT_ERRORS:
            pass

    def test_bad_magic_rejected(self):
        record = bytearray(split_train(1, 2, 3, b"x")[0])
        record[:4] = b"NOPE"
        with pytest.raises(SerializationError, match="magic"):
            decode_chunk(bytes(record))
        assert MESH_MAGIC != b"NOPE"

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_halted_flag_outside_zero_one_refused(self, flag):
        record = bytearray(split_train(1, 2, 3, b"x")[0])
        record[6] = flag  # magic(4) version(1) kind(1) halted(1)
        with pytest.raises(SerializationError, match="halted flag"):
            decode_chunk(bytes(record))

    def test_the_retired_hello_kind_is_refused(self):
        record = bytearray(split_train(0, 1, 5, b"")[0])
        record[5] = 2  # the link-handshake kind of format v2
        with pytest.raises(SerializationError, match="kind 2"):
            decode_chunk(bytes(record))

    def test_a_v2_record_is_refused_by_version(self):
        """v3 dropped ``train_seq``: a v2 header is four bytes longer and
        decodes to a version error, not a mis-framed train."""
        assert MESH_VERSION == 3 and _CHUNK.size == 27
        v2_empty_train = (
            MESH_MAGIC + bytes([2, 1, 0]) + (0).to_bytes(2, "big")
            + (1).to_bytes(2, "big") + bytes(12)
            + (1).to_bytes(4, "big") + bytes(4)
        )
        with pytest.raises(SerializationError, match="version 2"):
            decode_chunk(v2_empty_train)


class TestTrainAssembler:
    def test_consecutive_rounds_complete_in_order(self):
        body_a, body_b = b"a" * 24, b"b" * 40
        records = (
            split_train(0, 1, 10, body_a, chunk_bytes=8)
            + split_train(0, 1, 11, body_b, True, chunk_bytes=8)
        )
        assembler = TrainAssembler(10)
        assert _assemble(records, assembler) == [
            (10, body_a, False), (11, body_b, True),
        ]
        assert assembler.next_round == 12

    def test_interleaved_rounds_refused(self):
        recs_a = split_train(0, 1, 10, b"a" * 24, chunk_bytes=8)
        recs_b = split_train(0, 1, 11, b"b" * 40, chunk_bytes=8)
        assembler = TrainAssembler(10)
        assembler.add(decode_chunk(recs_a[0]))
        with pytest.raises(SerializationError, match="owes round 10"):
            assembler.add(decode_chunk(recs_b[0]))

    @pytest.mark.parametrize("round_index", [0, 4, 6, 1 << 31])
    def test_a_round_other_than_the_next_is_refused(self, round_index):
        """A repeated round (4), one skipped ahead (6), or one from any
        other run: the link owes exactly round 5."""
        assembler = TrainAssembler(4)
        assert _assemble(split_train(0, 1, 4, b"x"), assembler)
        with pytest.raises(SerializationError, match="owes round 5"):
            assembler.add(decode_chunk(split_train(0, 1, round_index, b"")[0]))

    def test_geometry_contradiction_raises(self):
        a = split_train(0, 1, 5, b"x" * 20, chunk_bytes=8)
        b = split_train(0, 1, 5, b"x" * 60, chunk_bytes=8)
        assembler = TrainAssembler(5)
        assembler.add(decode_chunk(a[0]))
        with pytest.raises(SerializationError, match="chunks"):
            assembler.add(decode_chunk(b[1]))

    def test_halted_flag_contradiction_raises(self):
        a = split_train(0, 1, 5, b"x" * 20, False, chunk_bytes=8)
        b = split_train(0, 1, 5, b"x" * 20, True, chunk_bytes=8)
        assembler = TrainAssembler(5)
        assembler.add(decode_chunk(a[0]))
        with pytest.raises(SerializationError, match="halted"):
            assembler.add(decode_chunk(b[1]))

    def test_size_cap_enforced(self):
        assembler = TrainAssembler(5, max_bytes=32)
        records = split_train(0, 1, 5, b"z" * 64, chunk_bytes=16)
        with pytest.raises(SerializationError, match="exceeds"):
            _assemble(records, assembler)
