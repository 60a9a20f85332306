"""Transport abstractions for the event-driven runtime.

The synchronous simulator (:mod:`repro.net.simulator`) moves envelopes by
appending to in-memory lists inside one big loop.  The runtime replaces
that with a :class:`Transport`: an asyncio message-moving layer with two
implementations —

* :class:`AsyncLocalTransport` — in-process delivery over per-party
  buffers guarded by the event loop (the fast path for experiments);
* :class:`TcpTransport` — real loopback TCP sockets with length-prefixed
  frames routed through a central authenticated router (the fidelity
  path: every message crosses a kernel socket twice).

Both implementations charge every delivered frame to the same
:class:`~repro.net.metrics.CommunicationMetrics` ledger the synchronous
simulator uses, so the paper's headline quantity (max bits per party) is
measured identically regardless of execution substrate.

Authentication is a *transport* property, exactly as in the simulator:
the sending endpoint/router stamps the true sender id on every frame, so
a Byzantine party may lie in its payload but cannot spoof the channel.
"""

from __future__ import annotations

import abc
import asyncio
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.errors import NetworkError
from repro.net.bind import start_asyncio_server
from repro.net.metrics import CommunicationMetrics
from repro.net.party import _HEADER, _LENGTH, _MAX_FRAME, _TYPE_HELLO, Frame
from repro.obs.registry import MetricsRegistry
from repro.utils.randomness import Randomness


def backoff_schedule(
    attempts: int,
    base: float,
    cap: float,
    rng: Randomness,
) -> List[float]:
    """Bounded exponential backoff with seeded jitter.

    Attempt ``i`` waits ``min(cap, base * 2**i)`` scaled by a jitter
    factor drawn uniformly from ``[0.5, 1.5)`` — seeded through the
    repo's :class:`~repro.utils.randomness.Randomness` wrapper, so a
    retry storm replays identically under the same seed.  Returns the
    full list of delays (empty when ``attempts <= 0``).
    """
    if base < 0 or cap < 0:
        raise NetworkError("backoff delays cannot be negative")
    delays: List[float] = []
    for attempt in range(max(0, attempts)):
        nominal = min(cap, base * (2 ** attempt))
        jitter = 0.5 + rng.random_int(1000) / 1000.0
        delays.append(nominal * jitter)
    return delays


class Transport(abc.ABC):
    """Moves frames between party endpoints, charging the shared ledger.

    Lifecycle: ``await start()`` → any number of ``await send(...)`` /
    ``collect(...)`` cycles (with ``await flush()`` between a send burst
    and the collect that must observe it) → ``await stop()``.
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
        #: Successful endpoint re-dials (only the TCP transport moves it).
        self.reconnects = 0

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Feed operational gauges/counters into an obs registry.

        Registers ``repro_transport_frames_sent_total``,
        ``repro_transport_frames_delivered_total``,
        ``repro_transport_in_flight``,
        ``repro_transport_queue_depth_max`` (high-water arrived-buffer
        depth per party, labeled) and
        ``repro_transport_reconnects_total`` (successful endpoint
        re-dials after a lost router connection — always 0 on the local
        transport).
        """
        self._registry = registry
        self._frames_sent = registry.counter(
            "repro_transport_frames_sent_total",
            "Frames accepted by the transport for delivery",
        )
        self._reconnects_counter = registry.counter(
            "repro_transport_reconnects_total",
            "Endpoint reconnects after a lost router connection",
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

    def _note_sent(self) -> None:
        """Subclasses call this instead of mutating ``_sent`` directly."""
        self._sent += 1
        if self._registry is not None:
            self._frames_sent.inc()
            self._in_flight_gauge.set(self.in_flight)

    def _note_reconnect(self) -> None:
        """Record one successful endpoint re-dial."""
        self.reconnects += 1
        if self._registry is not None:
            self._reconnects_counter.inc()

    # -- hooks ---------------------------------------------------------------

    @abc.abstractmethod
    async def start(self) -> None:
        """Bring the transport up (open sockets, spawn pumps)."""

    @abc.abstractmethod
    async def stop(self) -> None:
        """Tear the transport down."""

    @abc.abstractmethod
    async def send(self, true_sender: int, frame: Frame) -> None:
        """Ship one frame; the transport stamps ``true_sender`` on it."""

    async def flush(self) -> None:
        """Wait until every sent frame has arrived at its destination."""

    # -- shared delivery plumbing -------------------------------------------

    def _deliver(self, frame: Frame) -> None:
        """Accept a frame at its destination and charge the ledger."""
        if frame.recipient not in self._arrived:
            raise NetworkError(f"unknown recipient {frame.recipient}")
        # The phase stamped at ship time rides the frame, so it survives
        # the TCP transport's cross-task (cross-contextvar) delivery.
        self.metrics.record_message(
            frame.sender, frame.recipient, frame.bits(),
            phase=frame.phase, kind="frame",
        )
        self._arrived[frame.recipient].append(frame)
        self._delivered += 1
        if self._registry is not None:
            self._frames_delivered.inc()
            self._in_flight_gauge.set(self.in_flight)
            self._queue_depth.set_max(
                len(self._arrived[frame.recipient]), party=frame.recipient
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

    Delivery is immediate (``send`` completes once the frame is staged at
    the recipient), so :meth:`flush` is trivially satisfied.  This is the
    default substrate for differential tests and large-n experiments.
    """

    async def start(self) -> None:  # pragma: no cover - trivial
        return None

    async def stop(self) -> None:  # pragma: no cover - trivial
        return None

    async def send(self, true_sender: int, frame: Frame) -> None:
        if true_sender not in self._arrived:
            raise NetworkError(f"unknown sender {true_sender}")
        if frame.sender != true_sender:
            frame = replace(frame, sender=true_sender)
        self._note_sent()
        self._deliver(frame)


@dataclass
class _Endpoint:
    """One party's TCP connection pair (reader pump + writer)."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    pump: Optional[asyncio.Task] = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class TcpTransport(Transport):
    """Loopback-TCP transport with an authenticated central router.

    Topology: one asyncio server (the router) on ``127.0.0.1``; each
    party endpoint opens a single connection and introduces itself with a
    HELLO frame.  Data frames travel endpoint → router → endpoint as
    length-prefixed byte strings; the router overwrites the sender field
    with the connection's registered identity (authenticated channels),
    mirroring the simulator's sender-stamping.

    The router intentionally does *not* reorder or drop: scheduling
    adversaries live in :class:`~repro.runtime.faults.FaultPlan`, at the
    delivery layer, where they are seeded and reproducible.

    Resilience: a send that hits a torn endpoint connection re-dials the
    router on a bounded, seeded :func:`backoff_schedule` (re-HELLO, then
    retry the write); successful re-dials are counted in
    :attr:`~Transport.reconnects` and surfaced through the obs registry
    as ``repro_transport_reconnects_total``.  A preferred ``port`` that
    is already in use is retried on the same schedule before falling
    back to an OS-assigned port.
    """

    def __init__(
        self,
        party_ids: Sequence[int],
        metrics: Optional[CommunicationMetrics] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        reconnect_attempts: int = 4,
        reconnect_base: float = 0.05,
        reconnect_cap: float = 1.0,
        rng: Optional[Randomness] = None,
    ) -> None:
        super().__init__(party_ids, metrics)
        self._host = host
        self._preferred_port = port
        self._reconnect_attempts = reconnect_attempts
        self._reconnect_base = reconnect_base
        self._reconnect_cap = reconnect_cap
        self._rng = rng if rng is not None else Randomness(0x7C9)
        self._server: Optional[asyncio.base_events.Server] = None
        self._endpoints: Dict[int, _Endpoint] = {}
        self._router_writers: Dict[int, asyncio.StreamWriter] = {}
        self._router_tasks: List[asyncio.Task] = []
        self._retired_pumps: List[asyncio.Task] = []
        self._idle = asyncio.Event()
        self._idle.set()
        self._hello_count = 0
        self._stopping = False
        self.port: Optional[int] = None
        #: Preferred-port bind attempts that hit ``EADDRINUSE``.
        self.bind_retries = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._stopping = False
        self._server = await self._open_server()
        self.port = self._server.sockets[0].getsockname()[1]
        for party_id in self.party_ids:
            await self._connect_endpoint(party_id)
        # Wait until the router has registered every endpoint, so sends
        # cannot race ahead of their HELLOs.
        while self._hello_count < len(self.party_ids):
            await asyncio.sleep(0)

    async def _open_server(self) -> "asyncio.base_events.Server":
        """Bind the router listener via the shared bind policy.

        A preferred port that is busy (``EADDRINUSE``) is retried on the
        seeded backoff schedule; when every retry loses the race the
        transport falls back to an OS-assigned ephemeral port rather
        than failing the run (:mod:`repro.net.bind`).
        """
        delays: List[float] = []
        if self._preferred_port is not None:
            delays = backoff_schedule(
                self._reconnect_attempts,
                self._reconnect_base,
                self._reconnect_cap,
                self._rng.fork("bind"),
            )
        server, busy_retries = await start_asyncio_server(
            self._router_accept, self._host, self._preferred_port, delays
        )
        self.bind_retries += busy_retries
        return server

    async def _connect_endpoint(self, party_id: int) -> _Endpoint:
        """Dial the router, introduce the party, start its pump."""
        assert self.port is not None
        reader, writer = await asyncio.open_connection(self._host, self.port)
        # Registered before the HELLO so that `stop()` closes it (and the
        # router handler it woke) even if the introduction fails.
        endpoint = _Endpoint(reader=reader, writer=writer)
        self._endpoints[party_id] = endpoint
        hello = _HEADER.pack(_TYPE_HELLO, party_id, 0, 0, 0, 0)
        writer.write(_LENGTH.pack(len(hello)) + hello)
        await writer.drain()
        endpoint.pump = asyncio.create_task(self._endpoint_pump(endpoint))
        return endpoint

    async def stop(self) -> None:
        self._stopping = True
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
        for endpoint in self._endpoints.values():
            if endpoint.pump is not None:
                try:
                    await endpoint.pump
                except asyncio.CancelledError:
                    pass
        for pump in self._retired_pumps:
            try:
                await pump
            except asyncio.CancelledError:
                pass
        self._retired_pumps.clear()
        for task in self._router_tasks:
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

    # -- sending ------------------------------------------------------------

    async def send(self, true_sender: int, frame: Frame) -> None:
        endpoint = self._endpoints.get(true_sender)
        if endpoint is None:
            raise NetworkError(f"unknown sender {true_sender}")
        if frame.recipient not in self._arrived:
            raise NetworkError(f"unknown recipient {frame.recipient}")
        if frame.sender != true_sender:
            # Pre-stamp; the router re-stamps from connection identity, so
            # even a raw-socket spoofer could not forge this.
            frame = replace(frame, sender=true_sender)
        self._note_sent()
        self._idle.clear()
        try:
            async with endpoint.lock:
                endpoint.writer.write(frame.encode())
                await endpoint.writer.drain()
        except (ConnectionError, OSError):
            await self._resend_with_reconnect(true_sender, frame)

    async def _resend_with_reconnect(
        self, party_id: int, frame: Frame
    ) -> None:
        """Re-dial the router on the backoff schedule and retry the write.

        Each attempt sleeps its jittered delay, opens a fresh endpoint
        connection, re-HELLOs, waits for the router to register the new
        identity, and retries the frame.  Exhausting the schedule raises
        :class:`~repro.errors.NetworkError` — a dead router is a run
        failure, not a silent drop.
        """
        delays = backoff_schedule(
            self._reconnect_attempts,
            self._reconnect_base,
            self._reconnect_cap,
            self._rng.fork(f"reconnect-{party_id}-{self.reconnects}"),
        )
        last_error: Optional[BaseException] = None
        for delay in delays:
            await asyncio.sleep(delay)
            try:
                endpoint = await self._redial(party_id)
                async with endpoint.lock:
                    endpoint.writer.write(frame.encode())
                    await endpoint.writer.drain()
            except (ConnectionError, OSError) as exc:
                last_error = exc
                continue
            self._note_reconnect()
            return
        raise NetworkError(
            f"party {party_id} could not reach the router after "
            f"{len(delays)} reconnect attempts: {last_error}"
        )

    async def _redial(self, party_id: int) -> _Endpoint:
        """Replace a torn endpoint connection with a fresh one."""
        stale = self._endpoints.get(party_id)
        if stale is not None:
            stale.writer.close()
            # The stale pump exits on its own at EOF; awaiting it here
            # could deadlock if the router side is wedged, so the task is
            # retained for `stop()` to reap (never dropped mid-flight).
            if stale.pump is not None:
                self._retired_pumps.append(stale.pump)
        target = self._hello_count + 1
        endpoint = await self._connect_endpoint(party_id)
        while self._hello_count < target:
            await asyncio.sleep(0)
        return endpoint

    async def flush(self) -> None:
        while self._sent != self._delivered:
            self._idle.clear()
            await self._idle.wait()

    # -- router side --------------------------------------------------------

    async def _router_accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._router_tasks.append(task)
        identity: Optional[int] = None
        try:
            while True:
                body = await _read_frame(reader)
                if body is None:
                    return
                kind = body[0]
                if kind == _TYPE_HELLO:
                    (_, claimed, _, _, _, _) = _HEADER.unpack_from(body)
                    identity = claimed
                    self._router_writers[claimed] = writer
                    self._hello_count += 1
                    continue
                if identity is None:
                    raise NetworkError("data frame before HELLO")
                frame = Frame.decode(body)
                if frame.sender != identity:
                    frame = replace(frame, sender=identity)
                target = self._router_writers.get(frame.recipient)
                if target is None:
                    raise NetworkError(
                        f"router has no endpoint for {frame.recipient}"
                    )
                target.write(frame.encode())
                await target.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            return

    # -- endpoint receive pump ----------------------------------------------

    async def _endpoint_pump(self, endpoint: _Endpoint) -> None:
        try:
            while True:
                body = await _read_frame(endpoint.reader)
                if body is None:
                    return
                self._deliver(Frame.decode(body))
                if self._sent == self._delivered:
                    self._idle.set()
        except (asyncio.IncompleteReadError, ConnectionError):
            return


async def _read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one length-prefixed frame body, or ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > _MAX_FRAME:
        raise NetworkError(f"oversized frame ({length} bytes)")
    return await reader.readexactly(length)


def make_transport(
    kind: str,
    party_ids: Sequence[int],
    metrics: Optional[CommunicationMetrics] = None,
    port: Optional[int] = None,
) -> Transport:
    """Factory: ``"local"`` → :class:`AsyncLocalTransport`, ``"tcp"`` →
    :class:`TcpTransport`.

    ``port`` is the TCP router's *preferred* listen port: busy ports are
    retried on the seeded backoff schedule and then fall back to an
    OS-assigned ephemeral port (``None`` skips straight to OS-assigned).
    The local transport ignores it.
    """
    if kind == "local":
        return AsyncLocalTransport(party_ids, metrics)
    if kind == "tcp":
        return TcpTransport(party_ids, metrics, port=port)
    raise NetworkError(f"unknown transport kind {kind!r}")
