"""The worker↔worker mesh data plane.

Hub-and-spoke relaying made n=64 pi_ba *anti-scale* (2.0s on one
worker, 2.8s on four): every party frame crossed the supervisor twice
as a pickled control message, so that path was deleted and this is the
cluster's only data plane.  :class:`MeshRouter` moves party traffic
point-to-point — each worker opens a listener via
:func:`repro.net.bind.open_listener`, learns its peers' addresses from
a supervisor-brokered ``peers`` broadcast, and ships each round's
frames for each peer as one binary **train**
(:mod:`repro.cluster.meshwire`), chunked above 32 MiB.

The router owns exactly the properties the differential suite pins:

* **barrier** — an empty train is still a train; ``wait_round`` blocks
  until every peer's train for the round arrived, so round lockstep
  needs no coordinator at all, and each train's *halted* flag tells the
  receiver whether the sender's shard is done (every worker therefore
  stops at the same round);
* **dedup by send-seq** — every send attempt bumps a per-link
  ``train_seq``; receivers keep at most one train per (peer, round),
  and the assembler discards stale attempts and supersedes torn
  half-trains, so a link drop mid-train followed by a redial never
  duplicates (or double-charges) a frame;
* **retained-train replay** — senders retain each round's encoded body
  until the supervisor's ``trim`` after a committed barrier; the link
  handshake exchanges consumed-round watermarks and resends everything
  the other side is missing, which transparently covers startup
  ordering, redials, *and* a SIGKILLed worker rejoining from its RPCK3
  checkpoint;
* **liveness signal** — ``progress()`` exposes a moved-bytes counter
  the heartbeat ships home so the supervisor can tell "dead" from "slow
  shipping a huge body" (a dead peer is the supervisor's to notice: its
  control channel closes).

Dial direction is fixed — worker *i* dials every peer *j < i* and
accepts from every *j > i* — so reconnection responsibility is never
ambiguous.  No wall-clock reads: all pacing uses event waits.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ClusterError, SerializationError
from repro.net.bind import open_listener
from repro.net.party import Frame
from repro.net.trains import _LENGTH, decode_train_body, encode_train_body
from repro.cluster.meshwire import (
    KIND_HELLO,
    KIND_TRAIN,
    MESH_CHUNK_BYTES,
    TrainAssembler,
    decode_chunk,
    encode_hello,
    split_train,
)

#: One framed record is one chunk; anything larger is garbage framing.
_MAX_RECORD = MESH_CHUNK_BYTES + 4096

#: Redial pacing (seconds) after a link drops: immediate, then backoff.
_DIAL_DELAYS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
_DIAL_TIMEOUT = 10.0


@dataclass
class _Link:
    """One live TCP connection to a peer."""

    sock: socket.socket
    send_lock: threading.Lock = field(default_factory=threading.Lock)


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

    Thread model: one accept thread, one receiver thread per live link,
    short-lived dial threads.  All shared state lives under one
    condition variable; per-peer locks serialize sends against
    handshake resends so a train is never interleaved with its own
    replay.
    """

    def __init__(
        self,
        worker_id: int,
        host: str = "127.0.0.1",
        first_round: int = 0,
        chunk_bytes: int = MESH_CHUNK_BYTES,
    ) -> None:
        self.worker_id = worker_id
        self._host = host
        self._first_round = first_round
        self._chunk_bytes = chunk_bytes
        self._closed = threading.Event()

        self._cond = threading.Condition()
        self._links: Dict[int, _Link] = {}
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._consumed: Dict[int, int] = {}
        #: (peer, round) -> (frames, the peer's halted flag)
        self._inbox: Dict[Tuple[int, int], Tuple[List[Frame], bool]] = {}
        #: peer -> round -> (encoded body, halted flag)
        self._retained: Dict[int, Dict[int, Tuple[bytes, bool]]] = {}
        self._assemblers: Dict[int, TrainAssembler] = {}
        self._train_seq: Dict[int, int] = {}
        self._peer_locks: Dict[int, threading.Lock] = {}
        self._dialing: Set[int] = set()
        self._progress = 0

        listener, port = open_listener(host=host, port=0)
        self._listener = listener
        self.address: Tuple[str, int] = (host, port)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"mesh-accept-{worker_id}",
            daemon=True,
        )
        self._accept_thread.start()

    # -- shared-state helpers ------------------------------------------------

    def _peer_lock(self, peer: int) -> threading.Lock:
        with self._cond:
            lock = self._peer_locks.get(peer)
            if lock is None:
                lock = self._peer_locks[peer] = threading.Lock()
            return lock

    def _watermark(self, peer: int) -> int:
        with self._cond:
            return self._consumed.setdefault(peer, self._first_round - 1)

    def _bump_progress(self, count: int) -> None:
        with self._cond:
            self._progress += count

    # -- public API ----------------------------------------------------------

    def update_peers(self, addresses: Dict[int, Tuple[str, int]]) -> None:
        """Absorb a supervisor ``peers`` broadcast and (re)dial.

        Only peers with an id *below* ours are dialed; higher peers dial
        us.  A changed address (a respawned worker's fresh listener)
        drops the stale link so the dial thread reconnects and the
        handshake replays whatever the respawn is missing.
        """
        if self._closed.is_set():
            return
        to_dial: List[int] = []
        with self._cond:
            for peer, address in addresses.items():
                if peer == self.worker_id:
                    continue
                known = self._peers.get(peer)
                self._peers[peer] = address
                self._consumed.setdefault(peer, self._first_round - 1)
                if peer >= self.worker_id:
                    continue
                link = self._links.get(peer)
                if known is not None and known != address and link:
                    del self._links[peer]
                    _close_quietly(link.sock)
                    link = None
                if link is None and peer not in self._dialing:
                    self._dialing.add(peer)
                    to_dial.append(peer)
        for peer in to_dial:
            thread = threading.Thread(
                target=self._dial_loop, args=(peer,),
                name=f"mesh-dial-{self.worker_id}-{peer}", daemon=True,
            )
            thread.start()

    def send_train(self, peer: int, round_index: int,
                   frames: List[Frame], halted: bool = False) -> None:
        """Retain and (if the link is up) ship one round's train.

        Retention happens unconditionally *before* any socket write, so
        a crash mid-send leaves the train replayable; the handshake's
        watermark exchange delivers it after any reconnect.
        """
        body = encode_train_body(frames)
        with self._peer_lock(peer):
            with self._cond:
                retained = self._retained.setdefault(peer, {})
                retained[round_index] = (body, halted)
                link = self._links.get(peer)
            if link is not None:
                self._ship(peer, link, round_index, body, halted)

    def wait_round(self, round_index: int, peers: Iterable[int],
                   timeout: Optional[float] = None) -> bool:
        """Block until every peer's train for ``round_index`` arrived."""
        keys = [(peer, round_index) for peer in peers]
        with self._cond:
            return self._cond.wait_for(
                lambda: all(key in self._inbox for key in keys),
                timeout=timeout,
            )

    def collect_round(self, round_index: int,
                      peers: Iterable[int]) -> Tuple[List[Frame], bool]:
        """Pop the round's trains: their frames in sorted-peer order, and
        whether every one of those peers flagged its shard halted."""
        frames: List[Frame] = []
        halted = True
        with self._cond:
            for peer in sorted(peers):
                entry = self._inbox.pop((peer, round_index), None)
                if entry is None:
                    raise ClusterError(
                        f"collect_round({round_index}): no train from "
                        f"peer {peer}"
                    )
                self._consumed[peer] = round_index
                frames.extend(entry[0])
                halted = halted and entry[1]
        return frames, halted

    def trim(self, below: int) -> None:
        """Drop retained trains for rounds below a durable barrier."""
        with self._cond:
            for rounds in self._retained.values():
                for round_index in [r for r in rounds if r < below]:
                    del rounds[round_index]
            for assembler in self._assemblers.values():
                assembler.trim_below(below)

    def progress(self) -> int:
        """Monotonic moved-bytes counter (sent + received)."""
        with self._cond:
            return self._progress

    def close(self) -> None:
        self._closed.set()
        _close_quietly(self._listener)
        with self._cond:
            links = list(self._links.values())
            self._links.clear()
            self._cond.notify_all()
        for link in links:
            _close_quietly(link.sock)

    # -- link establishment --------------------------------------------------

    def _dial_loop(self, peer: int) -> None:
        for delay in _DIAL_DELAYS:
            # close() wakes the pacer: a stopped worker must not redial
            # a peer that merely left first.
            if self._closed.wait(delay):
                return
            with self._cond:
                address = self._peers.get(peer)
                if self._links.get(peer) is not None:
                    self._dialing.discard(peer)
                    return
            if address is None:
                continue
            try:
                sock = socket.create_connection(
                    address, timeout=_DIAL_TIMEOUT
                )
            except OSError:
                continue
            try:
                self._handshake(peer, sock, dialer=True)
                return
            except (OSError, SerializationError, ClusterError):
                _close_quietly(sock)
        # Out of attempts: a peer this long unreachable is dead or hung,
        # and the supervisor respawns it (its new address re-dials).
        with self._cond:
            self._dialing.discard(peer)

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            try:
                sock.settimeout(_DIAL_TIMEOUT)
                record = _read_record(sock)
                if record is None:
                    _close_quietly(sock)
                    continue
                hello = decode_chunk(record)
                if hello.kind != KIND_HELLO:
                    raise SerializationError(
                        "mesh connection did not open with a hello"
                    )
                self._bump_progress(len(record) + _LENGTH.size)
                self._handshake(
                    hello.src_worker, sock, dialer=False,
                    peer_have=hello.hello_have(),
                )
            except (OSError, SerializationError, ClusterError):
                _close_quietly(sock)

    def _handshake(
        self,
        peer: int,
        sock: socket.socket,
        dialer: bool,
        peer_have: Optional[int] = None,
    ) -> None:
        """Exchange hellos, install the link, replay missing trains."""
        sock.settimeout(_DIAL_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = encode_hello(
            self.worker_id, peer, self._watermark(peer)
        )
        with self._peer_lock(peer):
            sock.sendall(_LENGTH.pack(len(hello)) + hello)
            self._bump_progress(len(hello) + _LENGTH.size)
            if dialer:
                record = _read_record(sock)
                if record is None:
                    raise ClusterError(
                        f"peer {peer} closed during handshake"
                    )
                reply = decode_chunk(record)
                if reply.kind != KIND_HELLO or reply.src_worker != peer:
                    raise SerializationError(
                        "mesh handshake reply is not the peer's hello"
                    )
                self._bump_progress(len(record) + _LENGTH.size)
                peer_have = reply.hello_have()
            assert peer_have is not None
            sock.settimeout(None)
            link = _Link(sock=sock)
            with self._cond:
                stale = self._links.get(peer)
                self._links[peer] = link
                if dialer:
                    self._dialing.discard(peer)
                retained = sorted(
                    (r, body, halted)
                    for r, (body, halted) in self._retained.get(
                        peer, {}
                    ).items()
                    if r > peer_have
                )
            if stale is not None and stale is not link:
                _close_quietly(stale.sock)
            receiver = threading.Thread(
                target=self._receive_loop, args=(peer, link),
                name=f"mesh-recv-{self.worker_id}-{peer}", daemon=True,
            )
            receiver.start()
            for round_index, body, halted in retained:
                self._ship(peer, link, round_index, body, halted)

    # -- data movement -------------------------------------------------------

    def _ship(self, peer: int, link: _Link, round_index: int,
              body: bytes, halted: bool) -> None:
        """Send one train (caller holds the peer lock)."""
        with self._cond:
            seq = self._train_seq.get(peer, 0) + 1
            self._train_seq[peer] = seq
        records = split_train(
            self.worker_id, peer, round_index, seq, body, halted,
            chunk_bytes=self._chunk_bytes,
        )
        try:
            with link.send_lock:
                for record in records:
                    link.sock.sendall(_LENGTH.pack(len(record)) + record)
                    self._bump_progress(len(record) + _LENGTH.size)
        except OSError:
            self._on_link_dead(peer, link)

    def _receive_loop(self, peer: int, link: _Link) -> None:
        with self._cond:
            assembler = self._assemblers.get(peer)
            if assembler is None:
                assembler = self._assemblers[peer] = TrainAssembler()
        while True:
            try:
                record = _read_record(link.sock)
            except SerializationError:
                record = None  # bad framing: the link is unusable
            if record is None:
                self._on_link_dead(peer, link)
                return
            self._bump_progress(len(record) + _LENGTH.size)
            try:
                chunk = decode_chunk(record)
                if chunk.kind != KIND_TRAIN:
                    continue  # late hello after link replacement
                if chunk.dst_worker != self.worker_id:
                    raise SerializationError(
                        f"train addressed to worker {chunk.dst_worker} "
                        f"arrived at worker {self.worker_id}"
                    )
                with self._cond:
                    done = assembler.add(chunk)
                if done is None:
                    continue
                round_index, body, halted = done
                frames = decode_train_body(body)
            except SerializationError:
                self._on_link_dead(peer, link)
                return
            with self._cond:
                if (
                    round_index > self._consumed.setdefault(
                        peer, self._first_round - 1
                    )
                    and (peer, round_index) not in self._inbox
                ):
                    self._inbox[(peer, round_index)] = (frames, halted)
                    self._cond.notify_all()

    def _on_link_dead(self, peer: int, link: _Link) -> None:
        if self._closed.is_set():
            return
        redial = False
        with self._cond:
            if self._links.get(peer) is link:
                del self._links[peer]
                redial = (
                    peer < self.worker_id and peer not in self._dialing
                )
                if redial:
                    self._dialing.add(peer)
        _close_quietly(link.sock)
        if redial:
            thread = threading.Thread(
                target=self._dial_loop, args=(peer,),
                name=f"mesh-redial-{self.worker_id}-{peer}", daemon=True,
            )
            thread.start()


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


__all__ = ["MeshRouter"]
