"""The mesh data-plane wire format: chunk records around frame trains.

Party frames travel in a purpose-built binary format spoken directly
between worker processes (:mod:`repro.cluster.mesh`) — the supervisor
never sees them, and nothing on this hot path is pickled:

* a **train** is one worker's batch of frames for one peer in one round
  — the unit of the per-round barrier (an *empty* train is still sent:
  "I finished this round and emitted nothing for you");
* every train header carries a **halted** byte: "every target party in
  my shard has halted".  All workers read the same flags after the same
  round, so all of them stop at the same round with no coordinator;
* a train body is the repo's one frame wire format,
  :mod:`repro.net.trains` (shared with the runtime's TCP transport);
* oversized bodies are **chunked**: each chunk record carries the full
  train coordinates (``src``, ``dst``, ``round``,
  ``chunk_index``/``num_chunks``).  A link is one ordered stream and its
  sender ships rounds in order, so a receiver accepts exactly the next
  chunk of the next round (:class:`TrainAssembler`).

Decoders are strict: truncated or corrupted headers raise
:class:`~repro.errors.SerializationError` (a member of
:data:`~repro.errors.MALFORMED_INPUT_ERRORS`) — never hang, never
silently mis-frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import SerializationError

#: Chunk record magic + format version (bump on layout changes).
MESH_MAGIC = b"RPMW"
MESH_VERSION = 3

#: The one record kind.
KIND_TRAIN = 1

#: magic, version, kind, halted, src_worker, dst_worker, round,
#: chunk_index, num_chunks, payload_len
_CHUNK = struct.Struct(">4sBBBHHIIII")

#: Train bodies above this are split across multiple chunk records, so
#: a heavy round never materializes as one unbounded wire record.
MESH_CHUNK_BYTES = 32 << 20
#: Sanity bound on one reassembled train body.
_MAX_TRAIN = 1 << 33


@dataclass(frozen=True)
class MeshChunk:
    """One decoded chunk record (a slice of a train)."""

    src_worker: int
    dst_worker: int
    round_index: int
    chunk_index: int
    num_chunks: int
    payload: bytes
    #: The sender's "every target in my shard has halted" flag.
    halted: bool


# -- chunk records ------------------------------------------------------------


def split_train(
    src_worker: int,
    dst_worker: int,
    round_index: int,
    body: bytes,
    halted: bool = False,
    chunk_bytes: int = MESH_CHUNK_BYTES,
) -> List[bytes]:
    """Split one encoded train body into self-describing chunk records.

    An empty body still yields one (empty-payload) chunk — the empty
    train is the mesh's round barrier.  Every record repeats the train
    coordinates and the halted flag.
    """
    if chunk_bytes <= 0:
        raise SerializationError("chunk size must be positive")
    pieces = [
        body[offset:offset + chunk_bytes]
        for offset in range(0, len(body), chunk_bytes)
    ] or [b""]
    return [
        _CHUNK.pack(
            MESH_MAGIC, MESH_VERSION, KIND_TRAIN, int(halted), src_worker,
            dst_worker, round_index, index, len(pieces), len(piece),
        ) + piece
        for index, piece in enumerate(pieces)
    ]


def decode_chunk(record: bytes) -> MeshChunk:
    """Decode one chunk record (strict header validation).

    Raises :class:`~repro.errors.SerializationError` — a member of
    ``MALFORMED_INPUT_ERRORS`` — on any truncation or corruption.
    """
    if len(record) < _CHUNK.size:
        raise SerializationError(
            f"short mesh record ({len(record)} bytes, "
            f"header is {_CHUNK.size})"
        )
    (magic, version, kind, halted, src_worker, dst_worker, round_index,
     chunk_index, num_chunks, payload_len) = _CHUNK.unpack_from(record)
    if magic != MESH_MAGIC:
        raise SerializationError(
            f"bad mesh magic {magic!r} (want {MESH_MAGIC!r})"
        )
    if version != MESH_VERSION:
        raise SerializationError(
            f"mesh format version {version}, this build speaks "
            f"{MESH_VERSION}"
        )
    if kind != KIND_TRAIN:
        raise SerializationError(f"unknown mesh record kind {kind}")
    if halted > 1:
        raise SerializationError(f"mesh halted flag {halted} is not 0 or 1")
    if src_worker == dst_worker:
        raise SerializationError(
            f"mesh record addressed from worker {src_worker} to itself"
        )
    if num_chunks < 1:
        raise SerializationError("mesh record claims zero chunks")
    if chunk_index >= num_chunks:
        raise SerializationError(
            f"chunk index {chunk_index} out of range "
            f"(num_chunks={num_chunks})"
        )
    if payload_len != len(record) - _CHUNK.size:
        raise SerializationError(
            f"mesh record payload length {payload_len} does not match "
            f"record size {len(record) - _CHUNK.size}"
        )
    return MeshChunk(
        src_worker=src_worker,
        dst_worker=dst_worker,
        chunk_index=chunk_index,
        num_chunks=num_chunks,
        payload=record[_CHUNK.size:],
        halted=bool(halted),
        round_index=round_index,  # lint: allow[TRU001] reason=TrainAssembler.add refuses any round but the next one expected on the link
    )


class TrainAssembler:
    """Reassembles one link's chunk records into train bodies, in order.

    The only chunk a link may deliver next is the next index of the
    train in progress, or index 0 of the next round's train.  A chunk
    out of order, a round other than the next, a chunk contradicting its
    train's geometry or halted flag, and a body past the size cap each
    raise :class:`~repro.errors.SerializationError`.
    """

    def __init__(
        self, first_round: int = 0, max_bytes: int = _MAX_TRAIN
    ) -> None:
        #: The round whose train the link owes next.
        self.next_round = first_round
        self._max_bytes = max_bytes
        self._pieces: List[bytes] = []
        self._size = 0
        self._geometry = (1, False)

    def add(self, chunk: MeshChunk) -> Optional[Tuple[int, bytes, bool]]:
        """Absorb one chunk; returns ``(round, body, halted)`` when the
        train completes, else ``None``."""
        if chunk.round_index != self.next_round:
            raise SerializationError(
                f"train for round {chunk.round_index} from worker "
                f"{chunk.src_worker}; the link owes round {self.next_round}"
            )
        if chunk.chunk_index != len(self._pieces):
            raise SerializationError(
                f"round {chunk.round_index}: chunk {chunk.chunk_index} "
                f"arrived, chunk {len(self._pieces)} is next"
            )
        geometry = (chunk.num_chunks, chunk.halted)
        if not self._pieces:
            self._geometry = geometry
        elif geometry != self._geometry:
            raise SerializationError(
                f"train round {chunk.round_index}: chunk claims "
                f"{chunk.num_chunks} chunks (halted={chunk.halted}), train "
                f"started with {self._geometry[0]} "
                f"(halted={self._geometry[1]})"
            )
        self._size += len(chunk.payload)
        if self._size > self._max_bytes:
            raise SerializationError(f"train exceeds {self._max_bytes} bytes")
        self._pieces.append(chunk.payload)
        num_chunks, halted = self._geometry
        if len(self._pieces) < num_chunks:
            return None
        body = b"".join(self._pieces)
        self._pieces, self._size = [], 0
        self.next_round += 1
        return chunk.round_index, body, halted


__all__ = [
    "KIND_TRAIN",
    "MESH_CHUNK_BYTES",
    "MESH_MAGIC",
    "MESH_VERSION",
    "MeshChunk",
    "TrainAssembler",
    "decode_chunk",
    "split_train",
]
