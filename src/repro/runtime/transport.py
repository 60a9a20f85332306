"""Transport abstractions for the event-driven runtime.

The in-process row (:func:`repro.net.rounds.run_in_process`) hands each
round's frames straight back to the round core.  The runtime moves them
through a :class:`Transport` instead: an asyncio message-moving layer
with two implementations —

* :class:`AsyncLocalTransport` — in-process delivery over per-party
  buffers guarded by the event loop (the fast path for experiments);
* :class:`TcpTransport` — real loopback TCP sockets carrying
  length-prefixed *trains* (one sender's frames for one recipient in
  one round) through a central authenticated router that forwards a
  round with one write per endpoint (the fidelity path: every message
  crosses a kernel socket twice).

The unit of work is the round, as in the paper's model: the round core
hands :meth:`Transport.ship` everything the parties emitted, and the
barrier, :meth:`Transport.flush`, charges the round's landed frames in
the core's ``(sender, seq)`` order to the same
:class:`~repro.net.metrics.CommunicationMetrics` ledger the in-process
row charges.  Both implementations reach the ledger through that one
site, so the paper's headline quantity (max bits per party) is measured
identically — charge for charge — regardless of execution substrate.

Authentication is a *transport* property, exactly as in-process:
the round core stamps the true sender on every frame and the TCP router
re-stamps each train from its connection's identity, so a Byzantine
party may lie in its payload but cannot spoof the channel.
"""

from __future__ import annotations

import abc
import asyncio
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError, SerializationError
from repro.net.metrics import CommunicationMetrics
from repro.net.party import Frame
from repro.net.rounds import CANONICAL_ORDER
from repro.net.trains import _LENGTH, decode_train_body, encode_train_body

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
    Frames are charged at the barrier: ``flush()`` is the one place a
    transport reaches the ledger.
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
        #: Frames delivered since the last barrier, not yet charged.
        self._landed: List[Frame] = []
        self._sent = 0
        self._delivered = 0

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
            frame = frame._replace(sender=true_sender)
        await self.ship([frame])

    async def flush(self) -> None:
        """The round barrier: wait until every sent frame has arrived at
        its destination, then charge the landed frames to the ledger.

        The charge runs in the core's canonical order (a barrier's
        frames share one ``sent_round``, so sender, then seq), so a
        party's fan-out is one multicast run on every transport.
        """
        await self._await_landed()
        landed, self._landed = self._landed, []
        landed.sort(key=CANONICAL_ORDER)
        # The phase stamped at ship time rides the frame, so it survives
        # the TCP transport's cross-task (cross-contextvar) delivery.
        self.metrics.record_frames(landed, kind="frame")

    async def _await_landed(self) -> None:
        """Wait until ``sent == delivered`` (delivery may be immediate)."""

    # -- shared delivery plumbing -------------------------------------------

    def _check_known(self, frames: Sequence[Frame]) -> None:
        """Refuse a batch that names a party outside the registry."""
        for frame in frames:
            if frame.recipient not in self._arrived:
                raise NetworkError(f"unknown recipient {frame.recipient}")
            if frame.sender not in self._arrived:
                raise NetworkError(f"unknown sender {frame.sender}")

    def _deliver(self, frames: Sequence[Frame]) -> None:
        """Accept checked frames at their destinations (charged at the
        next barrier)."""
        arrived = self._arrived
        for frame in frames:
            arrived[frame.recipient].append(frame)
        self._landed += frames
        self._delivered += len(frames)

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
    at their recipients), so :meth:`flush` only charges them.  This
    is the default substrate for differential tests and large-n
    experiments.
    """

    async def ship(self, frames: Sequence[Frame]) -> None:
        self._check_known(frames)
        self._sent += len(frames)
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
    (authenticated channels, mirroring the round core's sender-stamping)
    and appends the record, body bytes untouched, to the target's
    outbox.  One flush task, run once every ready sender connection has
    been read, writes each target's outbox in one ``write`` and drains
    it; the handlers that fed it await it before reading on.  So a round
    the router reads in one pass costs it at most one write per
    endpoint, too.  The
    receiving pump decodes strictly and delivers the train's frames
    under the router's stamp, whatever sender the body claims; the
    barrier charges them (:meth:`Transport.flush`).

    The router intentionally does *not* reorder or drop: scheduling
    adversaries live in :class:`~repro.runtime.faults.FaultPlan`, at the
    delivery layer, where they are seeded and reproducible.

    Failure is loud, never retried: a round write that hits a torn
    endpoint connection raises :class:`~repro.errors.NetworkError`
    naming the party.  The router listens on an OS-assigned port.  A
    malformed record (data before HELLO, a second HELLO, a HELLO for a
    party already registered, oversized length, unknown party,
    undecodable train) ends the task that read it; the first such error
    is re-raised by :meth:`flush` and :meth:`stop`, so the barrier fails
    instead of waiting forever.
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
        #: Target writer -> the records forwarded to it since the last
        #: router flush started; ``_router_flush`` is the flush task that
        #: will write them, ``_router_flush_last`` the latest one begun.
        self._outboxes: Dict[asyncio.StreamWriter, List[bytes]] = {}
        self._router_flush: Optional[asyncio.Task] = None
        self._router_flush_last: Optional[asyncio.Task] = None
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
        self._sent += len(frames)
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

    async def _await_landed(self) -> None:
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
                forwarding = False
                for kind, peer, body in _split_records(buffer):
                    if peer not in self._arrived:
                        raise NetworkError(f"record names unknown party {peer}")
                    if kind == _HELLO:
                        if identity is not None:
                            raise NetworkError(
                                f"second HELLO on party {identity}'s connection"
                            )
                        if peer in self._router_writers:
                            raise NetworkError(
                                f"HELLO for party {peer}, already registered"
                            )
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
                    self._outboxes.setdefault(target, []).append(
                        _record(_TRAIN, identity, body)
                    )
                    forwarding = True
                if forwarding:
                    await self._router_flush_soon()
        except ConnectionError:
            return
        except NetworkError as exc:
            self._fail(exc)
        finally:
            writer.close()

    def _router_flush_soon(self) -> "asyncio.Task[None]":
        """The pending router flush task, scheduled if none is.

        A new task's first step is queued behind the handler wake-ups
        already ready, so it runs once every ready sender connection has
        been read.
        """
        if self._router_flush is None:
            self._router_flush = asyncio.get_running_loop().create_task(
                self._flush_outboxes(self._router_flush_last)
            )
            self._router_flush_last = self._router_flush
        return self._router_flush

    async def _flush_outboxes(self, previous: Optional[asyncio.Task]) -> None:
        """Write each target's outbox in one ``write``, then drain them.

        Flushes drain one after another, so a target writer never has
        two drainers (Python 3.9's stream protocol allows only one).
        """
        self._router_flush = None
        outboxes, self._outboxes = self._outboxes, {}
        for target, records in outboxes.items():
            target.write(b"".join(records))
        if previous is not None and not previous.done():
            await asyncio.wait((previous,))
        for target in outboxes:
            await target.drain()

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
            frames[index] = frame._replace(sender=sender)
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
