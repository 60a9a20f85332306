"""The worker↔worker mesh data plane.

Hub-and-spoke relaying made n=64 pi_ba *anti-scale* (2.0s on one
worker, 2.8s on four): every party frame crossed the supervisor twice
as a pickled control message, so that path was deleted and this is the
cluster's only data plane.  :class:`MeshRouter` moves party traffic
point-to-point over one connected socket per peer — a socketpair the
supervisor made before it forked the fleet — and ships each round's
frames for each peer as one binary **train**
(:mod:`repro.cluster.meshwire`): one length-prefixed record, written
and read a mebibyte at a time.

The router owns exactly the properties the differential suite pins:

* **barrier** — an empty train is still a train; ``wait_round`` blocks
  until every peer's train for the round arrived, so round lockstep
  needs no coordinator at all, and each train's *halted* flag tells the
  receiver whether the sender's shard is done (every worker therefore
  stops at the same round);
* **in order** — a link is one ordered stream, so each peer's next
  train must be the next round's; a malformed record or any other round
  is a :class:`~repro.errors.SerializationError` that ``wait_round``
  raises, and the crash-naked worker exits nonzero;
* **liveness signal** — ``progress()`` exposes a moved-bytes counter,
  bumped after every socket write and read, that the heartbeat ships
  home so the supervisor can tell "dead" from "slow shipping a huge
  body".

A peer's EOF ends only that link's receiver thread: a dead peer is the
supervisor's to notice (its control channel closes), and the
supervisor then relaunches the whole fleet.  Receiver threads share no
container with the stepping thread: each puts what its link delivered
on one queue, and only the stepping thread takes from it.  Pacing is
the queue's own timed wait, against the monotonic clock.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cluster.meshwire import decode_train, encode_header
from repro.errors import SerializationError
from repro.net.party import Frame
from repro.net.trains import (
    MAX_RECORD,
    encode_train_body,
    length_prefix,
    split_records,
)

#: The most bytes one socket call writes or reads: a large train moves
#: ``progress()`` every mebibyte instead of once.
_IO_BYTES = 1 << 20

#: What a receiver thread hands the stepping thread: one train as
#: ``(peer, round, frames, halted)``, or the error that ended its link.
_Arrival = Union[Tuple[int, int, List[Frame], bool], SerializationError]


class MeshRouter:
    """Point-to-point frame transport between cluster workers.

    ``links`` maps each peer to this worker's end of their connected
    socket.  One receiver thread per link puts each train it reads,
    or the error that ended the link, on ``_arrivals``; only the
    stepping thread (``wait_round`` / ``collect_round``) takes from it
    and files trains in ``_inbox``.  Sends run on the caller's thread.
    """

    def __init__(
        self,
        worker_id: int,
        links: Dict[int, socket.socket],
        first_round: int = 0,
    ) -> None:
        self.worker_id = worker_id
        self._links = dict(links)
        self._arrivals: "queue.SimpleQueue[_Arrival]" = queue.SimpleQueue()
        #: (peer, round) -> (frames, the peer's halted flag); the
        #: stepping thread's alone.
        self._inbox: Dict[Tuple[int, int], Tuple[List[Frame], bool]] = {}
        #: The first error that ended a link; every later ``wait_round``
        #: raises it.
        self._failure: Optional[SerializationError] = None
        self._progress = 0
        self._progress_lock = threading.Lock()
        for peer, sock in sorted(self._links.items()):
            threading.Thread(
                target=self._receive_loop, args=(peer, sock, first_round),
                name=f"mesh-recv-{worker_id}-{peer}", daemon=True,
            ).start()

    def _bump_progress(self, count: int) -> None:
        with self._progress_lock:
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
        body = encode_train_body(frames)
        header = encode_header(self.worker_id, peer, round_index, halted)
        head = length_prefix(len(header) + len(body)) + header
        view = memoryview(body)
        sock = self._links[peer]
        try:
            sock.sendall(head)
            self._bump_progress(len(head))
            for offset in range(0, len(body), _IO_BYTES):
                piece = view[offset:offset + _IO_BYTES]
                sock.sendall(piece)
                self._bump_progress(len(piece))
        except OSError:
            return

    def wait_round(self, round_index: int, peers: Iterable[int],
                   timeout: Optional[float] = None) -> bool:
        """Block until every peer's train for ``round_index`` arrived;
        ``False`` on timeout.  Raises the
        :class:`~repro.errors.SerializationError` that ended a link."""
        keys = [(peer, round_index) for peer in peers]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            while not self._arrivals.empty():
                self._file(self._arrivals.get())
            if self._failure is not None:
                raise self._failure
            if all(key in self._inbox for key in keys):
                return True
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            try:
                self._file(self._arrivals.get(timeout=remaining))
            except queue.Empty:
                return False

    def collect_round(self, round_index: int,
                      peers: Iterable[int]) -> Tuple[List[Frame], bool]:
        """Pop the round's trains: their frames in sorted-peer order, and
        whether every one of those peers flagged its shard halted."""
        frames: List[Frame] = []
        halted = True
        for peer in sorted(peers):
            entry = self._inbox.pop((peer, round_index))
            frames.extend(entry[0])
            halted = halted and entry[1]
        return frames, halted

    def progress(self) -> int:
        """Monotonic moved-bytes counter (sent + received)."""
        with self._progress_lock:
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

    def _file(self, arrival: _Arrival) -> None:
        """File one receiver-thread arrival (stepping thread only)."""
        if isinstance(arrival, SerializationError):
            if self._failure is None:
                self._failure = arrival
        else:
            peer, round_index, frames, halted = arrival
            self._inbox[(peer, round_index)] = (frames, halted)

    def _receive_loop(self, peer: int, sock: socket.socket,
                      first_round: int) -> None:
        """Deliver ``peer``'s trains until its end of the link closes.

        Each train is decoded where it arrived, in the receive buffer,
        so a train's bytes are held twice at most: the buffer, and the
        payloads copied out of it.
        """
        rounds = itertools.count(first_round)

        def decode(record: memoryview) -> _Arrival:
            round_index = next(rounds)
            frames, halted = decode_train(
                record, peer, self.worker_id, round_index
            )
            return peer, round_index, frames, halted

        buffer = bytearray()
        while True:
            try:
                data = sock.recv(_IO_BYTES)
            except OSError:
                return
            if not data:
                return  # the peer is gone: only this link is over
            self._bump_progress(len(data))
            buffer += data
            try:
                arrivals = split_records(buffer, MAX_RECORD, decode)
            except SerializationError as exc:
                self._arrivals.put(exc)
                return
            for arrival in arrivals:
                self._arrivals.put(arrival)


__all__ = ["MeshRouter"]
