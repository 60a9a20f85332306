"""Unit tests for the runtime transport layer."""

import asyncio
import socket

import pytest

from repro.cluster.drivers import record_balanced_ba_script
from repro.errors import NetworkError
from repro.net.adversary import prefix_corruption
from repro.net.metrics import CommunicationMetrics
from repro.net.trains import decode_train_body, encode_train_body
from repro.obs.flow import FlowLedger
from repro.params import ProtocolParameters
from repro.runtime.replay import (
    apply_func_ops,
    build_replay_parties,
    replay_over_simulator,
    tallies_equal,
)
from repro.runtime.synchronizer import run_parties_async
from repro.runtime.transport import (
    _HELLO,
    _LENGTH,
    _MAX_RECORD,
    _TRAIN,
    AsyncLocalTransport,
    Frame,
    TcpTransport,
    _open_train,
    _record,
    _split_records,
    make_transport,
)
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(scope="module")
def script16():
    """A recorded n=16 pi_ba script: a round of real fan-outs."""
    _, script = record_balanced_ba_script(
        {i: i % 2 for i in range(16)}, prefix_corruption(16, 2),
        SnarkSRDS(HashRegistryBase()), ProtocolParameters(),
        Randomness(5),
    )
    return script


class CountingMetrics(CommunicationMetrics):
    """A ledger that counts its :meth:`record_exchange` calls."""

    exchanges = 0

    def record_exchange(self, *args, **kwargs):
        self.exchanges += 1
        return super().record_exchange(*args, **kwargs)


class TestFrameEncoding:
    """The TCP record around a train body (``repro.net.trains``)."""

    def test_roundtrip(self):
        train = [
            Frame(
                sender=3, recipient=9, payload=b"hello", sent_round=4,
                deliver_round=7, charge_bits=41, seq=12, phase="vote",
            ),
            Frame(sender=3, recipient=9, payload=b"", sent_round=4,
                  deliver_round=5, seq=13),
        ]
        wire = _record(_TRAIN, 9, encode_train_body(train))
        length = int.from_bytes(wire[:4], "big")
        assert length == len(wire) - 4
        # Two records and half a third: only the complete ones come off.
        buffer = bytearray(_record(_HELLO, 3) + wire + wire[:7])
        assert _split_records(buffer) == [
            (_HELLO, 3, b""), (_TRAIN, 9, encode_train_body(train)),
        ]
        assert bytes(buffer) == wire[:7]
        assert _open_train(9, 3, wire[9:]) == train

    def test_default_charge_is_payload_bits(self):
        frame = Frame(sender=0, recipient=1, payload=b"abc")
        assert frame.bits() == 24
        # The -1 sentinel itself crosses the wire, not the derived size.
        (decoded,) = decode_train_body(encode_train_body([frame]))
        assert decoded.charge_bits == -1 and decoded.bits() == 24

    def test_charge_override(self):
        frame = Frame(sender=0, recipient=1, payload=b"abc", charge_bits=17)
        assert frame.bits() == 17
        (decoded,) = _open_train(1, 0, encode_train_body([frame]))
        assert decoded.bits() == 17

    def test_short_frame_rejected(self):
        with pytest.raises(NetworkError, match="malformed train from 0"):
            _open_train(1, 0, b"\x01\x02")
        with pytest.raises(NetworkError, match="bad record length"):
            _split_records(bytearray(_LENGTH.pack(2) + b"\x01\x02"))

    def test_oversized_length_rejected_before_the_body_arrives(
        self, monkeypatch
    ):
        with pytest.raises(NetworkError, match="bad record length"):
            _split_records(bytearray(_LENGTH.pack(_MAX_RECORD + 1)))
        monkeypatch.setattr("repro.runtime.transport._MAX_RECORD", 64)
        with pytest.raises(NetworkError, match="record exceeds"):
            _record(_TRAIN, 0, bytes(64))

    def test_unknown_record_kind_rejected(self):
        with pytest.raises(NetworkError, match="unknown record kind 7"):
            _split_records(bytearray(_LENGTH.pack(5) + b"\x07" + bytes(4)))

    def test_train_for_someone_else_rejected(self):
        body = encode_train_body([Frame(sender=0, recipient=2, payload=b"x")])
        with pytest.raises(NetworkError, match="carries a frame for 2"):
            _open_train(1, 0, body)


class TestAsyncLocalTransport:
    def test_send_collect_and_charge(self):
        async def main():
            metrics = CommunicationMetrics()
            transport = AsyncLocalTransport([0, 1, 2], metrics)
            await transport.start()
            await transport.send(0, Frame(sender=0, recipient=1, payload=b"xy"))
            await transport.flush()
            frames = transport.collect(1)
            assert [f.payload for f in frames] == [b"xy"]
            assert transport.collect(1) == []  # drained
            assert metrics.tally_of(0).bits_sent == 16
            assert metrics.tally_of(1).bits_received == 16
            await transport.stop()

        run(main())

    def test_sender_stamped(self):
        async def main():
            transport = AsyncLocalTransport([0, 1])
            await transport.start()
            # Party 0 claims to be party 1: the transport stamps the truth.
            await transport.send(0, Frame(sender=1, recipient=1, payload=b"z"))
            assert transport.collect(1)[0].sender == 0
            await transport.stop()

        run(main())

    def test_unknown_ids_rejected(self):
        async def main():
            transport = AsyncLocalTransport([0, 1])
            await transport.start()
            with pytest.raises(NetworkError):
                await transport.send(5, Frame(sender=5, recipient=0, payload=b""))
            with pytest.raises(NetworkError):
                await transport.send(0, Frame(sender=0, recipient=9, payload=b""))
            with pytest.raises(NetworkError):
                transport.collect(9)
            await transport.stop()

        run(main())

    def test_duplicate_party_ids_rejected(self):
        with pytest.raises(NetworkError):
            AsyncLocalTransport([0, 0, 1])


class TestTcpTransport:
    def test_frames_cross_real_sockets(self):
        async def main():
            metrics = CommunicationMetrics()
            transport = TcpTransport([0, 1, 2], metrics)
            await transport.start()
            assert transport.port is not None and transport.port > 0
            await transport.send(0, Frame(sender=0, recipient=2, payload=b"abc"))
            await transport.send(1, Frame(sender=1, recipient=2, payload=b"defg"))
            await transport.flush()
            assert transport.in_flight == 0
            frames = sorted(transport.collect(2), key=lambda f: f.sender)
            assert [f.payload for f in frames] == [b"abc", b"defg"]
            assert metrics.tally_of(2).bits_received == 8 * 7
            await transport.stop()

        run(main())

    def test_router_stamps_connection_identity(self):
        async def main():
            transport = TcpTransport([0, 1])
            await transport.start()
            # A frame claiming sender=1 sent over party 0's connection is
            # re-stamped by the router from the connection identity.
            await transport.send(0, Frame(sender=1, recipient=1, payload=b"!"))
            await transport.flush()
            assert transport.collect(1)[0].sender == 0
            await transport.stop()

        run(main())

    def test_charge_bits_survive_the_wire(self):
        async def main():
            metrics = CommunicationMetrics()
            transport = TcpTransport([0, 1], metrics)
            await transport.start()
            await transport.send(
                0, Frame(sender=0, recipient=1, payload=b"\x00\x00", charge_bits=13)
            )
            await transport.flush()
            assert metrics.tally_of(0).bits_sent == 13
            await transport.stop()

        run(main())


    def test_train_claiming_another_sender_arrives_under_router_identity(self):
        async def main():
            metrics = CommunicationMetrics()
            transport = TcpTransport([0, 1, 2], metrics)
            await transport.start()
            # Party 0's endpoint writes a train whose every frame says
            # "from party 2": what the receiver sees and what the ledger
            # charges is the connection's identity, not the body's claim.
            forged = [
                Frame(sender=2, recipient=1, payload=b"!", seq=k)
                for k in range(3)
            ]
            transport._sent += len(forged)
            transport._idle.clear()
            transport._endpoints[0].writer.write(
                _record(_TRAIN, 1, encode_train_body(forged))
            )
            await asyncio.wait_for(transport.flush(), 5.0)
            assert [f.sender for f in transport.collect(1)] == [0, 0, 0]
            assert metrics.tally_of(0).messages_sent == 3
            assert metrics.tally_of(2).messages_sent == 0
            await transport.stop()

        run(main())

    def test_a_round_is_one_write_per_endpoint(self, script16):
        # A replayed n=16 pi_ba script over TCP: however many frames a
        # party emits in a round, its endpoint writes once.
        n, script = 16, script16
        writes_per_round = []

        class CountingTransport(TcpTransport):
            writes = 0

            async def _connect_endpoint(self, party_id):
                endpoint = await super()._connect_endpoint(party_id)
                write = endpoint.writer.write

                def counted(data):
                    self.writes += 1
                    write(data)

                endpoint.writer.write = counted
                return endpoint

            async def ship(self, frames):
                before = self.writes
                await super().ship(frames)
                writes_per_round.append((self.writes - before, len(frames)))

        async def main():
            metrics = CommunicationMetrics()
            await run_parties_async(
                build_replay_parties(script, n),
                transport=CountingTransport(list(range(n)), metrics),
            )
            return metrics

        metrics = run(main())
        assert sum(frames for _, frames in writes_per_round) == script.num_messages
        assert max(frames for _, frames in writes_per_round) > n
        assert all(writes <= n for writes, _ in writes_per_round)
        apply_func_ops(script, metrics)
        assert tallies_equal(metrics, replay_over_simulator(script, n), range(n))

    def test_a_round_is_one_write_per_router_target(self, script16):
        # The same script: however many trains reach the router in a
        # round, it writes each target endpoint once.
        n, script = 16, script16

        class CountingTransport(TcpTransport):
            router_writes = 0

            async def _router_accept(self, reader, writer):
                write = writer.write

                def counted(data):
                    self.router_writes += 1
                    write(data)

                writer.write = counted
                await super()._router_accept(reader, writer)

        async def main():
            transport = CountingTransport(list(range(n)))
            result = await run_parties_async(
                build_replay_parties(script, n), transport=transport
            )
            return transport, result

        transport, result = run(main())
        assert 0 < transport.router_writes <= result.rounds * n
        apply_func_ops(script, result.metrics)
        assert tallies_equal(
            result.metrics, replay_over_simulator(script, n), range(n)
        )

    def test_a_backlogged_target_is_drained(self):
        # Router sockets with tiny send buffers: an outbox cannot leave in
        # one send, so the flush must wait on its targets, one drainer
        # per target at a time (Python 3.9's streams assert that), and
        # every byte still arrives.
        class TinyBuffers(TcpTransport):
            backlogged = 0
            concurrent = 0

            async def _router_accept(self, reader, writer):
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                drain, draining = writer.drain, []

                async def counted():
                    if writer.transport.get_write_buffer_size():
                        self.backlogged += 1
                    self.concurrent = max(self.concurrent, len(draining) + 1)
                    draining.append(None)
                    try:
                        await drain()
                    finally:
                        draining.pop()

                writer.drain = counted
                await super()._router_accept(reader, writer)

        async def main():
            metrics = CommunicationMetrics()
            transport = TinyBuffers([0, 1, 2], metrics)
            await transport.start()
            payload = bytes(range(256)) * 1024
            frames = [
                Frame(sender, recipient, payload, seq=recipient)
                for sender in range(3) for recipient in range(3)
            ]
            for _ in range(2):
                await transport.ship(frames)
                await asyncio.wait_for(transport.flush(), 10.0)
                for party in range(3):
                    assert [f.payload for f in transport.collect(party)] == [
                        payload
                    ] * 3
            assert transport.backlogged > 0
            assert transport.concurrent == 1
            assert metrics.tally_of(0).bits_sent == 2 * 3 * 8 * len(payload)
            await transport.stop()

        run(main())

    def test_tcp_charges_like_local(self, script16):
        # The barrier charges a round in the core's order on both
        # transports: the same multicast runs, whatever the sockets did.
        n, script = 16, script16
        runs = {}
        for kind in ("local", "tcp"):
            metrics, flow = CountingMetrics(), FlowLedger()
            metrics.attach_flow(flow)
            run(run_parties_async(
                build_replay_parties(script, n), transport=kind,
                metrics=metrics,
            ))
            runs[kind] = metrics, flow
        (local, local_flow), (tcp, tcp_flow) = runs["local"], runs["tcp"]
        assert 0 < tcp.exchanges == local.exchanges < script.num_messages
        assert tallies_equal(local, tcp, range(n))
        assert tcp.phase_breakdown() == local.phase_breakdown()
        assert tcp_flow.cells() == local_flow.cells()


class TestDeadTaskFailsTheBarrier:
    """A router or pump task killed by a bad record must not hang flush()."""

    @staticmethod
    async def _raw(transport, *records):
        _, writer = await asyncio.open_connection("127.0.0.1", transport.port)
        writer.write(b"".join(records))
        await writer.drain()
        return writer

    @staticmethod
    async def _flush_until_failure(transport):
        while True:
            await transport.flush()
            await asyncio.sleep(0.005)

    def _assert_fails(self, records, match, in_flight=None, endpoint=None):
        """``records`` go out on a fresh raw connection, or on party
        ``endpoint``'s own registered one."""

        async def main():
            transport = TcpTransport([0, 1, 2])
            await transport.start()
            if endpoint is None:
                raw = await self._raw(transport, *records)
            else:
                raw = transport._endpoints[endpoint].writer
                raw.write(b"".join(records))
                await raw.drain()
            try:
                if in_flight is not None:
                    await transport.ship([in_flight])
                with pytest.raises(NetworkError, match=match):
                    await asyncio.wait_for(
                        self._flush_until_failure(transport), 5.0
                    )
            finally:
                raw.close()
                with pytest.raises(NetworkError, match=match):
                    await asyncio.wait_for(transport.stop(), 5.0)

        run(main())

    def test_data_before_hello(self):
        train = _record(_TRAIN, 1, encode_train_body([Frame(0, 1, b"x")]))
        self._assert_fails([train], "data record before HELLO")

    def test_truncated_train_kills_the_pump_not_the_barrier(self):
        # The record's length prefix is honest; the train inside it stops
        # mid-frame.  The router forwards it unopened, party 1's pump dies
        # decoding it — and the frame then shipped to party 1 can never
        # arrive, which used to leave flush() waiting forever.
        body = encode_train_body([Frame(2, 1, b"payload")])[:-3]
        self._assert_fails(
            [_record(_TRAIN, 1, body)],
            "malformed train from 2: truncated",
            in_flight=Frame(0, 1, b"never delivered"),
            endpoint=2,
        )

    def test_oversized_length(self):
        self._assert_fails(
            [_LENGTH.pack(_MAX_RECORD + 1)], "bad record length", endpoint=2
        )

    def test_unknown_recipient(self):
        self._assert_fails(
            [_record(_TRAIN, 9, encode_train_body([]))],
            "unknown party 9",
            endpoint=2,
        )

    def test_second_hello_fails_the_barrier(self):
        # An impostor introducing itself as party 2 used to take over
        # party 2's router writer: the frame then shipped to party 2
        # went to the impostor and flush() waited forever.
        self._assert_fails(
            [_record(_HELLO, 2)],
            "HELLO for party 2, already registered",
            in_flight=Frame(0, 2, b"for the real party 2"),
        )

    def test_second_hello_on_one_connection(self):
        self._assert_fails(
            [_record(_HELLO, 2)],
            "second HELLO on party 2's connection",
            endpoint=2,
        )


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_transport("local", [0]), AsyncLocalTransport)
        assert isinstance(make_transport("tcp", [0]), TcpTransport)

    def test_unknown_kind(self):
        with pytest.raises(NetworkError):
            make_transport("carrier-pigeon", [0])
