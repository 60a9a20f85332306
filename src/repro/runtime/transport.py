"""Transport abstractions for the event-driven runtime.

The synchronous simulator (:mod:`repro.net.simulator`) moves envelopes by
appending to in-memory lists inside one big loop.  The runtime replaces
that with a :class:`Transport`: an asyncio message-moving layer with two
implementations —

* :class:`AsyncLocalTransport` — in-process delivery over per-party
  buffers guarded by the event loop (the fast path for experiments);
* :class:`TcpTransport` — real loopback TCP sockets carrying
  length-prefixed *trains* (one sender's frames for one recipient in
  one round) through a central authenticated router (the fidelity
  path: every message crosses a kernel socket twice).

The unit of work is the round, as in the paper's model: the round core
hands :meth:`Transport.ship` everything the parties emitted, and both
implementations charge the delivered frames a batch at a time to the
same :class:`~repro.net.metrics.CommunicationMetrics` ledger the
synchronous simulator uses, so the paper's headline quantity (max bits
per party) is measured identically regardless of execution substrate.

Authentication is a *transport* property, exactly as in the simulator:
the round core stamps the true sender on every frame and the TCP router
re-stamps each train from its connection's identity, so a Byzantine
party may lie in its payload but cannot spoof the channel.
"""

from __future__ import annotations

import abc
import asyncio
import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError, SerializationError
from repro.net.metrics import CommunicationMetrics
from repro.net.party import Frame
from repro.net.trains import _LENGTH, decode_train_body, encode_train_body
from repro.obs.registry import MetricsRegistry

#: One TCP record behind its u32 length prefix: ``kind, peer`` and, for a
#: train, a :mod:`repro.net.trains` body.  ``peer`` is the party a HELLO
#: introduces; on a train it is the recipient on the way to the router
#: and the router-stamped sender on the way out.
_RECORD = struct.Struct(">BI")
_HELLO = 0
_TRAIN = 1
_MAX_RECORD = 1 << 28
_READ_BYTES = 1 << 18
_HOST = "127.0.0.1"


class Transport(abc.ABC):
    """Moves frames between party endpoints, charging the shared ledger.

    Lifecycle: ``await start()`` → any number of ``await ship(...)`` /
    ``collect(...)`` cycles (with ``await flush()`` between a round's
    ship and the collect that must observe it) → ``await stop()``.
    """

    def __init__(
        self,
        party_ids: Sequence[int],
        metrics: Optional[CommunicationMetrics] = None,
    ) -> None:
        self.party_ids = sorted(set(party_ids))
        if len(self.party_ids) != len(list(party_ids)):
            raise NetworkError("duplicate party id in transport registry")
        self.metrics = metrics if metrics is not None else CommunicationMetrics()
        self._arrived: Dict[int, List[Frame]] = {p: [] for p in self.party_ids}
        self._sent = 0
        self._delivered = 0
        self._registry: Optional[MetricsRegistry] = None

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Feed operational gauges/counters into an obs registry.

        Registers ``repro_transport_frames_sent_total``,
        ``repro_transport_frames_delivered_total``,
        ``repro_transport_in_flight`` and
        ``repro_transport_queue_depth_max`` (high-water arrived-buffer
        depth per party, labeled).
        """
        self._registry = registry
        self._frames_sent = registry.counter(
            "repro_transport_frames_sent_total",
            "Frames accepted by the transport for delivery",
        )
        self._frames_delivered = registry.counter(
            "repro_transport_frames_delivered_total",
            "Frames that reached their destination buffer",
        )
        self._in_flight_gauge = registry.gauge(
            "repro_transport_in_flight",
            "Frames sent but not yet delivered",
        )
        self._queue_depth = registry.gauge(
            "repro_transport_queue_depth_max",
            "High-water mark of one party's arrived-frame buffer",
            ("party",),
        )

    def _note_sent(self, count: int) -> None:
        """Subclasses call this instead of mutating ``_sent`` directly."""
        self._sent += count
        if self._registry is not None:
            self._frames_sent.inc(count)
            self._in_flight_gauge.set(self.in_flight)

    # -- hooks ---------------------------------------------------------------

    async def start(self) -> None:
        """Bring the transport up (open sockets, spawn pumps)."""

    async def stop(self) -> None:
        """Tear the transport down."""

    @abc.abstractmethod
    async def ship(self, frames: Sequence[Frame]) -> None:
        """Ship a round's emitted frames, in the round core's order.

        ``frame.sender`` is the true sender (the round core stamped it).
        """

    async def send(self, true_sender: int, frame: Frame) -> None:
        """Ship one frame under ``true_sender``: :meth:`ship`'s one-frame case."""
        if frame.sender != true_sender:
            frame = replace(frame, sender=true_sender)
        await self.ship([frame])

    async def flush(self) -> None:
        """Wait until every sent frame has arrived at its destination."""

    # -- shared delivery plumbing -------------------------------------------

    def _check_known(self, frames: Sequence[Frame]) -> None:
        """Refuse a batch that names a party outside the registry."""
        for frame in frames:
            if frame.recipient not in self._arrived:
                raise NetworkError(f"unknown recipient {frame.recipient}")
            if frame.sender not in self._arrived:
                raise NetworkError(f"unknown sender {frame.sender}")

    def _deliver(self, frames: Sequence[Frame]) -> None:
        """Accept checked frames at their destinations; charge the ledger."""
        # The phase stamped at ship time rides the frame, so it survives
        # the TCP transport's cross-task (cross-contextvar) delivery.
        self.metrics.record_frames(frames, kind="frame")
        arrived = self._arrived
        for frame in frames:
            arrived[frame.recipient].append(frame)
        self._delivered += len(frames)
        if self._registry is not None:
            self._frames_delivered.inc(len(frames))
            self._in_flight_gauge.set(self.in_flight)
            for party_id in {frame.recipient for frame in frames}:
                self._queue_depth.set_max(
                    len(arrived[party_id]), party=party_id
                )

    def collect(self, party_id: int) -> List[Frame]:
        """Drain (and return) all frames that have arrived for a party."""
        if party_id not in self._arrived:
            raise NetworkError(f"unknown party {party_id}")
        frames = self._arrived[party_id]
        self._arrived[party_id] = []
        return frames

    @property
    def in_flight(self) -> int:
        """Frames sent but not yet arrived (0 after a successful flush)."""
        return self._sent - self._delivered


class AsyncLocalTransport(Transport):
    """In-process transport: frames hop through the event loop only.

    Delivery is immediate (``ship`` completes once the frames are staged
    at their recipients), so :meth:`flush` is trivially satisfied.  This
    is the default substrate for differential tests and large-n
    experiments.
    """

    async def ship(self, frames: Sequence[Frame]) -> None:
        self._check_known(frames)
        self._note_sent(len(frames))
        self._deliver(frames)


@dataclass
class _Endpoint:
    """One party's TCP connection: its writer and its receive pump."""

    writer: asyncio.StreamWriter
    pump: Optional[asyncio.Task] = None


class TcpTransport(Transport):
    """Loopback-TCP transport with an authenticated central router.

    Topology: one asyncio server (the router) on ``127.0.0.1``; each
    party endpoint opens a single connection and introduces itself with a
    HELLO record.  A round's frames travel endpoint → router → endpoint
    as *trains* — one length-prefixed record per (sender → recipient)
    holding a :mod:`repro.net.trains` body — and every endpoint writes
    its whole round in one ``write`` + ``drain``.  The router never
    opens a train: it checks the destination, replaces the record's
    ``peer`` field with the connection's registered identity
    (authenticated channels, mirroring the simulator's sender-stamping)
    and forwards the body bytes untouched; the receiving pump decodes
    strictly and delivers the train's frames under that identity,
    whatever sender the body claims.

    The router intentionally does *not* reorder or drop: scheduling
    adversaries live in :class:`~repro.runtime.faults.FaultPlan`, at the
    delivery layer, where they are seeded and reproducible.

    Failure is loud, never retried: a round write that hits a torn
    endpoint connection raises :class:`~repro.errors.NetworkError`
    naming the party.  The router listens on an OS-assigned port.  A
    malformed record (data before HELLO,
    oversized length, unknown party, undecodable train) ends the task
    that read it; the first such error is re-raised by :meth:`flush`
    and :meth:`stop`, so the barrier fails instead of waiting forever.
    """

    def __init__(
        self,
        party_ids: Sequence[int],
        metrics: Optional[CommunicationMetrics] = None,
    ) -> None:
        super().__init__(party_ids, metrics)
        self._server: Optional[asyncio.base_events.Server] = None
        self._endpoints: Dict[int, _Endpoint] = {}
        self._router_writers: Dict[int, asyncio.StreamWriter] = {}
        self._router_tasks: List[asyncio.Task] = []
        self._idle = asyncio.Event()
        self._idle.set()
        self._hello_count = 0
        #: The first error that killed a router or pump task.
        self._failure: Optional[NetworkError] = None
        self.port: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._failure = None
        self._server = await asyncio.start_server(
            self._router_accept, _HOST, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for party_id in self.party_ids:
            await self._connect_endpoint(party_id)
        # Wait until the router has registered every endpoint, so sends
        # cannot race ahead of their HELLOs.
        while self._hello_count < len(self.party_ids):
            await asyncio.sleep(0)

    async def _connect_endpoint(self, party_id: int) -> _Endpoint:
        """Dial the router, introduce the party, start its pump."""
        assert self.port is not None
        reader, writer = await asyncio.open_connection(_HOST, self.port)
        # Registered before the HELLO so that `stop()` closes it (and the
        # router handler it woke) even if the introduction fails.
        endpoint = _Endpoint(writer)
        self._endpoints[party_id] = endpoint
        writer.write(_record(_HELLO, party_id))
        await writer.drain()
        endpoint.pump = asyncio.create_task(
            self._endpoint_pump(party_id, reader)
        )
        return endpoint

    async def stop(self) -> None:
        # Close the endpoint sides first; EOF then propagates through the
        # router handlers and receive pumps, which all exit cleanly (no
        # task cancellation — cancelling server-owned handler tasks makes
        # asyncio's connection_made callback log spurious errors).
        for endpoint in self._endpoints.values():
            endpoint.writer.close()
        for endpoint in self._endpoints.values():
            try:
                await endpoint.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        pumps = [e.pump for e in self._endpoints.values() if e.pump is not None]
        for task in (*pumps, *self._router_tasks):
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._router_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._endpoints.clear()
        self._router_writers.clear()
        if self._failure is not None:
            raise self._failure

    # -- sending ------------------------------------------------------------

    async def ship(self, frames: Sequence[Frame]) -> None:
        self._check_known(frames)
        # sender -> recipient -> that train's frames, all in core order.
        writes: Dict[int, Dict[int, List[Frame]]] = {}
        for frame in frames:
            writes.setdefault(frame.sender, {}).setdefault(
                frame.recipient, []
            ).append(frame)
        self._note_sent(len(frames))
        self._idle.clear()
        for sender, trains in writes.items():
            payload = b"".join(
                _record(_TRAIN, recipient, encode_train_body(train))
                for recipient, train in trains.items()
            )
            writer = self._endpoints[sender].writer
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError) as exc:
                raise NetworkError(
                    f"party {sender}'s connection to the router is torn: "
                    f"{exc}"
                ) from exc

    async def flush(self) -> None:
        while self._failure is None and self._sent != self._delivered:
            self._idle.clear()
            await self._idle.wait()
        if self._failure is not None:
            raise self._failure

    def _fail(self, error: NetworkError) -> None:
        """Keep the first task-killing error and wake the barrier."""
        self._failure = self._failure or error
        self._idle.set()

    # -- router side --------------------------------------------------------

    async def _router_accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._router_tasks.append(task)
        identity: Optional[int] = None
        buffer = bytearray()
        try:
            while not reader.at_eof():
                # No name for the chunk: an idle task would keep it alive.
                buffer += await reader.read(_READ_BYTES)
                forwarded: Dict[int, asyncio.StreamWriter] = {}
                for kind, peer, body in _split_records(buffer):
                    if peer not in self._arrived:
                        raise NetworkError(f"record names unknown party {peer}")
                    if kind == _HELLO:
                        identity = peer
                        self._router_writers[peer] = writer
                        self._hello_count += 1
                        continue
                    if identity is None:
                        raise NetworkError("data record before HELLO")
                    target = self._router_writers.get(peer)
                    if target is None:
                        raise NetworkError(
                            f"router has no endpoint for {peer}"
                        )
                    # Authenticated channels: the train leaves under this
                    # connection's identity; its body is never opened.
                    target.write(_record(_TRAIN, identity, body))
                    forwarded[peer] = target
                for target in forwarded.values():
                    await target.drain()
        except ConnectionError:
            return
        except NetworkError as exc:
            self._fail(exc)
        finally:
            writer.close()

    # -- endpoint receive pump ----------------------------------------------

    async def _endpoint_pump(
        self, party_id: int, reader: asyncio.StreamReader
    ) -> None:
        buffer = bytearray()
        try:
            while not reader.at_eof():
                buffer += await reader.read(_READ_BYTES)
                frames: List[Frame] = []
                for kind, sender, body in _split_records(buffer):
                    if kind != _TRAIN:
                        raise NetworkError("router sent a non-train record")
                    frames += _open_train(party_id, sender, body)
                self._deliver(frames)
                if self._sent == self._delivered:
                    self._idle.set()
        except ConnectionError:
            return
        except NetworkError as exc:
            self._fail(exc)


def _record(kind: int, peer: int, body: bytes = b"") -> bytes:
    """One length-prefixed TCP record."""
    length = _RECORD.size + len(body)
    if length > _MAX_RECORD:
        raise NetworkError(f"record exceeds {_MAX_RECORD} bytes")
    return _LENGTH.pack(length) + _RECORD.pack(kind, peer) + body


def _split_records(buffer: bytearray) -> List[Tuple[int, int, bytes]]:
    """Cut the complete ``(kind, peer, body)`` records off ``buffer``'s front."""
    records: List[Tuple[int, int, bytes]] = []
    offset, size = 0, len(buffer)
    while size - offset >= _LENGTH.size:
        (length,) = _LENGTH.unpack_from(buffer, offset)
        if not _RECORD.size <= length <= _MAX_RECORD:
            raise NetworkError(f"bad record length {length}")
        body_start = offset + _LENGTH.size + _RECORD.size
        end = offset + _LENGTH.size + length
        if end > size:
            break
        kind, peer = _RECORD.unpack_from(buffer, offset + _LENGTH.size)
        if kind not in (_HELLO, _TRAIN):
            raise NetworkError(f"unknown record kind {kind}")
        records.append((kind, peer, bytes(buffer[body_start:end])))
        offset = end
    del buffer[:offset]
    return records


def _open_train(party_id: int, sender: int, body: bytes) -> List[Frame]:
    """Strictly decode a train the router forwarded to ``party_id``.

    The frames come back under the router-stamped ``sender`` — never
    under a sender field the sending endpoint wrote.
    """
    try:
        frames = decode_train_body(body)
    except SerializationError as exc:
        raise NetworkError(f"malformed train from {sender}: {exc}") from exc
    for index, frame in enumerate(frames):
        if frame.recipient != party_id:
            raise NetworkError(
                f"train for {party_id} carries a frame for {frame.recipient}"
            )
        if frame.sender != sender:
            frames[index] = replace(frame, sender=sender)
    return frames


def make_transport(
    kind: str,
    party_ids: Sequence[int],
    metrics: Optional[CommunicationMetrics] = None,
) -> Transport:
    """Factory: ``"local"`` → :class:`AsyncLocalTransport`, ``"tcp"`` →
    :class:`TcpTransport`."""
    if kind == "local":
        return AsyncLocalTransport(party_ids, metrics)
    if kind == "tcp":
        return TcpTransport(party_ids, metrics)
    raise NetworkError(f"unknown transport kind {kind!r}")
