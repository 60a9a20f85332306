"""The worker↔worker mesh data plane.

Hub-and-spoke relaying made n=64 pi_ba *anti-scale* (2.0s on one
worker, 2.8s on four): every party frame crossed the supervisor twice
as a pickled control message, so that path was deleted and this is the
cluster's only data plane.  :class:`MeshRouter` moves party traffic
point-to-point over one connected socket per peer — a socketpair the
supervisor made before it forked the fleet — and ships each round's
frames for each peer as one binary **train**
(:mod:`repro.cluster.meshwire`), chunked above 32 MiB.

The router owns exactly the properties the differential suite pins:

* **barrier** — an empty train is still a train; ``wait_round`` blocks
  until every peer's train for the round arrived, so round lockstep
  needs no coordinator at all, and each train's *halted* flag tells the
  receiver whether the sender's shard is done (every worker therefore
  stops at the same round);
* **in order** — a link is one ordered stream, so each peer's next
  train must be the next round's; a malformed chunk or any other round
  is a :class:`~repro.errors.SerializationError` that ``wait_round``
  raises, and the crash-naked worker exits nonzero;
* **liveness signal** — ``progress()`` exposes a moved-bytes counter
  the heartbeat ships home so the supervisor can tell "dead" from "slow
  shipping a huge body".

A peer's EOF ends only that link's receiver thread: a dead peer is the
supervisor's to notice (its control channel closes), and the
supervisor then relaunches the whole fleet.  No wall-clock reads: all
pacing uses event waits.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster.meshwire import (
    MESH_CHUNK_BYTES,
    TrainAssembler,
    decode_chunk,
    split_train,
)
from repro.errors import SerializationError
from repro.net.party import Frame
from repro.net.trains import _LENGTH, decode_train_body, encode_train_body

#: One framed record is one chunk; anything larger is garbage framing.
_MAX_RECORD = MESH_CHUNK_BYTES + 4096


def _read_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` if the link dies first."""
    pieces = []
    remaining = count
    while remaining:
        try:
            piece = sock.recv(min(remaining, 1 << 20))
        except OSError:
            return None
        if not piece:
            return None
        pieces.append(piece)
        remaining -= len(piece)
    return b"".join(pieces)


def _read_record(sock: socket.socket) -> Optional[bytes]:
    """Read one length-prefixed mesh record; ``None`` on link death."""
    prefix = _read_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > _MAX_RECORD:
        raise SerializationError(
            f"mesh record length {length} exceeds {_MAX_RECORD}"
        )
    return _read_exact(sock, length)


class MeshRouter:
    """Point-to-point frame transport between cluster workers.

    ``links`` maps each peer to this worker's end of their connected
    socket.  One receiver thread per link; all shared state lives under
    one condition variable.  Sends run on the caller's thread.
    """

    def __init__(
        self,
        worker_id: int,
        links: Dict[int, socket.socket],
        first_round: int = 0,
        chunk_bytes: int = MESH_CHUNK_BYTES,
    ) -> None:
        self.worker_id = worker_id
        self._links = dict(links)
        self._chunk_bytes = chunk_bytes
        self._cond = threading.Condition()
        #: (peer, round) -> (frames, the peer's halted flag)
        self._inbox: Dict[Tuple[int, int], Tuple[List[Frame], bool]] = {}
        #: The error that ended a link, raised by ``wait_round``.
        self._failure: Optional[SerializationError] = None
        self._progress = 0
        for peer, sock in sorted(self._links.items()):
            threading.Thread(
                target=self._receive_loop, args=(peer, sock, first_round),
                name=f"mesh-recv-{worker_id}-{peer}", daemon=True,
            ).start()

    def _bump_progress(self, count: int) -> None:
        with self._cond:
            self._progress += count

    # -- public API ----------------------------------------------------------

    def send_train(self, peer: int, round_index: int,
                   frames: List[Frame], halted: bool = False) -> None:
        """Ship one round's train to ``peer``.

        A dead peer's closed end fails the write; that is not this
        worker's death to report, so the train is dropped and the
        supervisor, which sees the peer's control channel close,
        relaunches the fleet.
        """
        records = split_train(
            self.worker_id, peer, round_index, encode_train_body(frames),
            halted, chunk_bytes=self._chunk_bytes,
        )
        sock = self._links[peer]
        try:
            for record in records:
                sock.sendall(_LENGTH.pack(len(record)) + record)
                self._bump_progress(len(record) + _LENGTH.size)
        except OSError:
            return

    def wait_round(self, round_index: int, peers: Iterable[int],
                   timeout: Optional[float] = None) -> bool:
        """Block until every peer's train for ``round_index`` arrived;
        ``False`` on timeout.  Raises the
        :class:`~repro.errors.SerializationError` that ended a link."""
        keys = [(peer, round_index) for peer in peers]
        with self._cond:
            arrived = self._cond.wait_for(
                lambda: self._failure is not None
                or all(key in self._inbox for key in keys),
                timeout=timeout,
            )
            if self._failure is not None:
                raise self._failure
            return arrived

    def collect_round(self, round_index: int,
                      peers: Iterable[int]) -> Tuple[List[Frame], bool]:
        """Pop the round's trains: their frames in sorted-peer order, and
        whether every one of those peers flagged its shard halted."""
        frames: List[Frame] = []
        halted = True
        for peer in sorted(peers):
            with self._cond:
                entry = self._inbox.pop((peer, round_index))
            frames.extend(entry[0])
            halted = halted and entry[1]
        return frames, halted

    def progress(self) -> int:
        """Monotonic moved-bytes counter (sent + received)."""
        with self._cond:
            return self._progress

    def close(self) -> None:
        """Shut every link down (idempotent); each receiver sees EOF."""
        for sock in self._links.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    # -- data movement -------------------------------------------------------

    def _receive_loop(self, peer: int, sock: socket.socket,
                      first_round: int) -> None:
        """Deliver ``peer``'s trains until its end of the link closes."""
        assembler = TrainAssembler(first_round)
        while True:
            try:
                record = _read_record(sock)
                if record is None:
                    return  # the peer is gone: only this link is over
                self._bump_progress(len(record) + _LENGTH.size)
                chunk = decode_chunk(record)
                if (chunk.src_worker, chunk.dst_worker) != (
                    peer, self.worker_id
                ):
                    raise SerializationError(
                        f"train from worker {chunk.src_worker} to "
                        f"{chunk.dst_worker} arrived on the link from "
                        f"worker {peer} at worker {self.worker_id}"
                    )
                train = assembler.add(chunk)
                if train is None:
                    continue
                round_index, body, halted = train
                frames = decode_train_body(body)
            except SerializationError as exc:
                with self._cond:
                    self._failure = exc
                    self._cond.notify_all()
                return
            with self._cond:
                self._inbox[(peer, round_index)] = (frames, halted)
                self._cond.notify_all()


__all__ = ["MeshRouter"]
