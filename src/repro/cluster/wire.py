"""The supervisor⇄worker control channel.

All cluster control traffic — job dispatch, heartbeats and the worker's
per-round results — travels as length-prefixed :class:`Message` records
over one connected socket per worker, a socketpair the supervisor makes
before it forks the worker.  The supervisor sends no per-round message:
workers step rounds back to back, synchronised by the mesh alone
(:mod:`repro.cluster.mesh`, wire format in
:mod:`repro.cluster.meshwire`), and stream a one-way ``done`` home per
round carrying a charge digest, never a party frame.

Message layout (everything length-prefixed with the transport's 4-byte
big-endian ``_LENGTH`` prefix or :mod:`repro.utils.serialization`
varints)::

    u32 total | bytes json_header | bytes blob

* ``json_header`` — ``{"kind": ..., **fields}``, sorted keys: the small
  structured part (round numbers, worker ids, shard assignments);
* ``blob`` — opaque bytes for payloads that are not JSON: a pickle
  (party outputs, the charge digest) or, on ``job``, an encoded
  :class:`~repro.cluster.checkpoint.ClusterCheckpoint`.

Kinds (see ``docs/cluster.md`` for the full state machine):

===============  ======  =======================================================
kind             dir     meaning
===============  ======  =======================================================
``job``          s → w   shard assignment; blob: the shard's round-0
                         checkpoint (``encode_checkpoint`` bytes) when
                         ``resume_round`` is 0, empty otherwise — a
                         later barrier's is the worker's own file;
                         fields: ``shard`` (party ids), ``shards`` (the
                         whole fleet's), ``resume_round``,
                         ``checkpoint_dir``, ``checkpoint_stem``,
                         ``targets``, ``max_rounds``,
                         ``checkpoint_interval``, ``kill_round``,
                         ``traced`` (record trace events or not)
``resumed``      w → s   checkpoint loaded; fields: ``next_round``
``done``         w → s   round finished (one-way); fields: ``round``,
                         and ``checkpoint`` (the barrier) when the
                         worker wrote its checkpoint after this round;
                         blob: pickled ``{"outputs": {...}, "trace":
                         {...}, "digest": [(sender, bits, phase,
                         [recipient, ...]), ...]}`` — one digest row
                         per multicast run, and ``trace`` empty unless
                         the job is traced
``heartbeat``    w → s   liveness beacon (worker-side timer thread);
                         fields: ``progress`` (moved-bytes counter, so
                         the supervisor can tell dead from slow)
``stop``         s → w   run over; worker exits 0
===============  ======  =======================================================

:class:`MessageChannel` wraps one socket with a send lock (the worker's
heartbeat thread and main loop share the connection) and a receive
buffer that survives timeouts: a ``recv`` interrupted by its deadline
(``0`` polls) keeps any partial bytes and resumes cleanly on the next
call, so the supervisor can ``select`` over every worker's channel and
drain whatever arrived without ever losing framing.
"""

from __future__ import annotations

import json
import pickle
import select
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import ClusterError
from repro.net.trains import _LENGTH
from repro.utils.serialization import decode_bytes, encode_bytes

# Hard cap on one message: a sender refuses to write a larger body, and
# a receiver refuses a larger length prefix (which bounds the damage of
# a corrupt one).  The largest bodies are the JOB blob (the shard's
# pickled parties) and a traced DONE (charge digest + drained trace
# events); at n=64 both stay under 1 MiB (measured, docs/cluster.md), so
# nothing is chunked here — the mesh, whose trains reach a gigabyte per
# link per round, chunks in :mod:`repro.cluster.meshwire`.
_MAX_MESSAGE = 1 << 28

JOB = "job"
RESUMED = "resumed"
DONE = "done"
HEARTBEAT = "heartbeat"
STOP = "stop"

KINDS = (JOB, RESUMED, DONE, HEARTBEAT, STOP)

#: Control-plane byte meter: ``(direction, kind, num_bytes)`` with
#: direction ``"send"`` or ``"recv"``.  Installed by the supervisor so
#: the flow ledger can account control overhead separately from the
#: party traffic (which is charged per digest row, not here).
ChannelMeter = Callable[[str, str, int], None]


@dataclass
class Message:
    """One control-channel message."""

    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)
    blob: bytes = b""

    def encode(self) -> bytes:
        """Length-prefixed wire encoding; :class:`ClusterError` for a
        body above ``_MAX_MESSAGE``."""
        if self.kind not in KINDS:
            raise ClusterError(f"unknown control message kind {self.kind!r}")
        header = json.dumps(
            {"kind": self.kind, **self.fields},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        body = encode_bytes(header) + encode_bytes(self.blob)
        if len(body) > _MAX_MESSAGE:
            raise ClusterError(
                f"{self.kind!r} control message of {len(body)} bytes "
                f"exceeds {_MAX_MESSAGE}"
            )
        return _LENGTH.pack(len(body)) + body

    @staticmethod
    def decode(body: bytes) -> "Message":
        """Inverse of :meth:`encode` (without the length prefix)."""
        try:
            header_bytes, offset = decode_bytes(body, 0)
            blob, offset = decode_bytes(body, offset)
            header = json.loads(header_bytes.decode("utf-8"))
        except Exception as exc:  # framing or JSON garbage
            raise ClusterError(f"corrupt control message: {exc}") from exc
        if offset != len(body):
            raise ClusterError(
                f"{len(body) - offset} trailing bytes in control message"
            )
        if not isinstance(header, dict) or "kind" not in header:
            raise ClusterError("control message header has no kind")
        kind = header.pop("kind")
        if kind not in KINDS:
            raise ClusterError(f"unknown control message kind {kind!r}")
        return Message(kind=kind, fields=header, blob=blob)

    # -- blob helpers ---------------------------------------------------------

    def payload(self) -> Any:
        """Unpickle the opaque blob (``None`` when empty)."""
        if not self.blob:
            return None
        try:
            return pickle.loads(self.blob)
        except Exception as exc:
            raise ClusterError(f"corrupt message payload: {exc}") from exc

    @staticmethod
    def pack_payload(obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class ChannelClosed(ClusterError):
    """The peer closed the connection at a message boundary."""


class MessageChannel:
    """A blocking socket carrying :class:`Message` records.

    Sends are serialized by a lock (heartbeat thread vs. main loop);
    receives keep a persistent buffer so a deadline expiring mid-message
    never loses framing — the next ``recv`` resumes where the last one
    stopped.
    """

    def __init__(self, sock: socket.socket,
                 meter: Optional[ChannelMeter] = None) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._buffer = bytearray()
        self._closed = False
        self._meter = meter
        #: Raw bytes pulled off the socket, bumped per ``recv`` call —
        #: a supervisor watching this counter across a recv timeout can
        #: tell "mid-way through a large message" from "nothing
        #: arriving at all".
        self.bytes_received = 0
        #: Bytes shipped, excluding heartbeat beacons — the worker's
        #: control-plane contribution to its progress report.
        self.data_bytes_sent = 0

    def send(self, message: Message) -> None:
        """Ship one message (thread-safe); an oversized body raises
        :class:`ClusterError` before anything is written."""
        record = message.encode()
        with self._send_lock:
            if self._closed:
                raise ClusterError("send on a closed control channel")
            try:
                self._sock.sendall(record)
            except OSError as exc:
                raise ClusterError(
                    f"control channel send failed: {exc}"
                ) from exc
            if message.kind != HEARTBEAT:
                self.data_bytes_sent += len(record)
        if self._meter is not None:
            self._meter("send", message.kind, len(record))

    def recv(self, timeout: Optional[float] = None) -> Message:
        """Receive one message.

        Blocks up to ``timeout`` seconds (``None`` = forever, ``0`` =
        only what already arrived).  Raises :class:`TimeoutError` when
        the deadline expires (partial bytes are kept),
        :class:`ChannelClosed` on clean EOF at a message boundary, and
        :class:`ClusterError` on a torn or corrupt stream.
        """
        while True:
            message = self._try_parse()
            if message is not None:
                return message
            # The deadline is a select, never a socket timeout: the
            # socket stays blocking, so a send racing this recv on
            # another thread (the heartbeat) never meets a full buffer
            # in non-blocking mode and tears the stream.
            if timeout is not None and not select.select(
                [self._sock], [], [], timeout
            )[0]:
                raise TimeoutError("control channel recv timed out")
            try:
                chunk = self._sock.recv(1 << 16)
            except OSError as exc:
                raise ClusterError(
                    f"control channel recv failed: {exc}"
                ) from exc
            if not chunk:
                if self._buffer:
                    raise ClusterError(
                        "peer closed the control channel mid-message"
                    )
                raise ChannelClosed("control channel closed by peer")
            self.bytes_received += len(chunk)
            self._buffer.extend(chunk)

    @property
    def buffered(self) -> int:
        """Bytes of a partly received message held for the next recv."""
        return len(self._buffer)

    def fileno(self) -> int:
        """The socket's descriptor, so a channel can be ``select``-ed."""
        return self._sock.fileno()

    def _try_parse(self) -> Optional[Message]:
        if len(self._buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(bytes(self._buffer[:_LENGTH.size]))
        if length > _MAX_MESSAGE:
            raise ClusterError(f"oversized control message ({length} bytes)")
        end = _LENGTH.size + length
        if len(self._buffer) < end:
            return None
        body = bytes(self._buffer[_LENGTH.size:end])
        del self._buffer[:end]
        message = Message.decode(body)
        if self._meter is not None:
            self._meter("recv", message.kind, end)
        return message

    def close(self) -> None:
        """Shut the connection down and close the socket (idempotent)."""
        if self._closed:
            return
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.release()

    def release(self) -> None:
        """Close this process's descriptor only (idempotent), as the
        process dying would — no ``shutdown``."""
        if self._closed:
            return
        self._closed = True
        self._sock.close()

    def __enter__(self) -> "MessageChannel":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

