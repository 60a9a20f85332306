"""The mesh data-plane wire format: chunk records around frame trains.

Party frames travel in a purpose-built binary format spoken directly
between worker processes (:mod:`repro.cluster.mesh`) — the supervisor
never sees them, and nothing on this hot path is pickled:

* a **train** is one worker's batch of frames for one peer in one round
  — the unit of dedup, resend, and the per-round barrier (an *empty*
  train is still sent: "I finished this round and emitted nothing for
  you");
* every train header carries a **halted** byte: "every target party in
  my shard has halted".  All workers read the same flags after the same
  round, so all of them stop at the same round with no coordinator;
* a train body is the repo's one frame wire format,
  :mod:`repro.net.trains` (shared with the runtime's TCP transport);
* oversized bodies are **chunked**: each chunk record carries the full
  train coordinates (``src``, ``dst``, ``round``, ``train_seq``,
  ``chunk_index``/``num_chunks``) so a receiver can reassemble out of
  order, drop duplicates, and discard a torn half-train superseded by a
  redial's resend (``train_seq`` is the per-link send-attempt counter).

Decoders are strict: truncated or corrupted headers raise
:class:`~repro.errors.SerializationError` (a member of
:data:`~repro.errors.MALFORMED_INPUT_ERRORS`) — never hang, never
silently mis-frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SerializationError

#: Chunk record magic + format version (bump on layout changes; v1
#: records had no halted byte and are refused by name).
MESH_MAGIC = b"RPMW"
MESH_VERSION = 2

#: Record kinds.
KIND_TRAIN = 1
KIND_HELLO = 2

#: magic, version, kind, halted, src_worker, dst_worker, round,
#: train_seq, chunk_index, num_chunks, payload_len
_CHUNK = struct.Struct(">4sBBBHHIIIII")
_HAVE = struct.Struct(">q")

#: Train bodies above this are split across multiple chunk records, so
#: a heavy round never materializes as one unbounded wire record.  The
#: same 32 MiB threshold as the control channel's ``part`` trains.
MESH_CHUNK_BYTES = 32 << 20
#: Sanity bound on one reassembled train body.
_MAX_TRAIN = 1 << 33


@dataclass(frozen=True)
class MeshChunk:
    """One decoded chunk record (a slice of a train, or a hello)."""

    kind: int
    src_worker: int
    dst_worker: int
    round_index: int
    train_seq: int
    chunk_index: int
    num_chunks: int
    payload: bytes
    #: The sender's "every target in my shard has halted" flag.
    halted: bool

    def hello_have(self) -> int:
        """The peer's consumed-round watermark carried by a hello."""
        if self.kind != KIND_HELLO:
            raise SerializationError("hello_have on a non-hello chunk")
        return _HAVE.unpack(self.payload)[0]


# -- chunk records ------------------------------------------------------------


def split_train(
    src_worker: int,
    dst_worker: int,
    round_index: int,
    train_seq: int,
    body: bytes,
    halted: bool = False,
    chunk_bytes: int = MESH_CHUNK_BYTES,
) -> List[bytes]:
    """Split one encoded train body into self-describing chunk records.

    An empty body still yields one (empty-payload) chunk — the empty
    train is the mesh's round barrier.  Every record repeats the train
    coordinates and the halted flag, so chunks tolerate reordering and
    duplication.
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
            dst_worker, round_index, train_seq, index, len(pieces),
            len(piece),
        ) + piece
        for index, piece in enumerate(pieces)
    ]


def encode_hello(src_worker: int, dst_worker: int, have_round: int) -> bytes:
    """The link handshake record: ``have_round`` is the sender's
    consumed-round watermark for this peer (``-1`` = nothing yet); the
    receiver resends every retained train above it."""
    payload = _HAVE.pack(have_round)
    return _CHUNK.pack(
        MESH_MAGIC, MESH_VERSION, KIND_HELLO, 0, src_worker, dst_worker,
        0, 0, 0, 1, len(payload),
    ) + payload


def decode_chunk(record: bytes) -> MeshChunk:
    """Decode one chunk record (strict header validation).

    Raises :class:`~repro.errors.SerializationError` — a member of
    ``MALFORMED_INPUT_ERRORS`` — on any truncation or corruption.
    """
    if record[:4] == MESH_MAGIC and record[4:5] == b"\x01":
        raise SerializationError(
            "mesh record is format v1 (no halted byte); this build "
            f"speaks v{MESH_VERSION}"
        )
    if len(record) < _CHUNK.size:
        raise SerializationError(
            f"short mesh record ({len(record)} bytes, "
            f"header is {_CHUNK.size})"
        )
    (magic, version, kind, halted, src_worker, dst_worker, round_index,
     train_seq, chunk_index, num_chunks, payload_len) = _CHUNK.unpack_from(
        record
    )
    if magic != MESH_MAGIC:
        raise SerializationError(
            f"bad mesh magic {magic!r} (want {MESH_MAGIC!r})"
        )
    if version != MESH_VERSION:
        raise SerializationError(
            f"mesh format version {version}, this build speaks "
            f"{MESH_VERSION}"
        )
    if kind not in (KIND_TRAIN, KIND_HELLO):
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
    if kind == KIND_HELLO and (
        payload_len != _HAVE.size or num_chunks != 1 or halted
    ):
        raise SerializationError("malformed mesh hello record")
    return MeshChunk(
        kind=kind,
        src_worker=src_worker,
        dst_worker=dst_worker,
        chunk_index=chunk_index,
        num_chunks=num_chunks,
        payload=record[_CHUNK.size:],
        halted=bool(halted),
        round_index=round_index,  # lint: allow[TRU001] reason=round is validated contextually by the consumed-round watermark in MeshRouter
        train_seq=train_seq,  # lint: allow[TRU001] reason=train_seq supersede/stale logic in TrainAssembler tolerates arbitrary values by design
    )


class TrainAssembler:
    """Reassembles chunk records into train bodies, per link.

    Tolerates duplicated and reordered chunks *within* a train; a chunk
    carrying a **newer** ``train_seq`` for the same round supersedes any
    partial state (a torn half-train from before a redial never mixes
    with its resend); an older ``train_seq`` is discarded.  Chunks that
    contradict an in-flight train's geometry raise
    :class:`~repro.errors.SerializationError`.
    """

    def __init__(self, max_bytes: int = _MAX_TRAIN) -> None:
        self._max_bytes = max_bytes
        #: round -> (train_seq, num_chunks, halted, {chunk_index: payload})
        self._partial: Dict[int, Tuple[int, int, bool, Dict[int, bytes]]] = {}
        #: round -> highest train_seq already emitted, so a fully
        #: duplicated chunk set (e.g. a resend racing its original over
        #: a healed link) cannot re-complete the same train.
        self._completed: Dict[int, int] = {}

    def pending_rounds(self) -> List[int]:
        """Rounds with an incomplete train (diagnostics)."""
        return sorted(self._partial)

    def add(self, chunk: MeshChunk) -> Optional[Tuple[int, bytes, bool]]:
        """Absorb one train chunk; returns ``(round, body, halted)`` when
        the train completes, else ``None``."""
        if chunk.kind != KIND_TRAIN:
            raise SerializationError(
                "assembler fed a non-train mesh record"
            )
        done_seq = self._completed.get(chunk.round_index)
        if done_seq is not None and chunk.train_seq <= done_seq:
            return None  # duplicate of an already-delivered train
        state = self._partial.get(chunk.round_index)
        if state is not None:
            seq = state[0]
            if chunk.train_seq < seq:
                return None  # stale resend attempt
            if chunk.train_seq > seq:
                state = None  # newer attempt supersedes the torn train
        if state is None:
            state = (chunk.train_seq, chunk.num_chunks, chunk.halted, {})
            self._partial[chunk.round_index] = state
        seq, num_chunks, halted, pieces = state
        if (chunk.num_chunks, chunk.halted) != (num_chunks, halted):
            raise SerializationError(
                f"train round {chunk.round_index} seq {seq}: chunk claims "
                f"{chunk.num_chunks} chunks (halted={chunk.halted}), train "
                f"started with {num_chunks} (halted={halted})"
            )
        if chunk.chunk_index in pieces:
            return None  # duplicate chunk
        pieces[chunk.chunk_index] = chunk.payload
        if sum(len(piece) for piece in pieces.values()) > self._max_bytes:
            del self._partial[chunk.round_index]
            raise SerializationError(
                f"train exceeds {self._max_bytes} bytes"
            )
        if len(pieces) < num_chunks:
            return None
        del self._partial[chunk.round_index]
        self._completed[chunk.round_index] = seq
        body = b"".join(pieces[index] for index in range(num_chunks))
        return chunk.round_index, body, halted

    def trim_below(self, below: int) -> None:
        """Forget completion watermarks for rounds below a durable
        barrier (mirrors the router's retained-train trim)."""
        for round_index in [r for r in self._completed if r < below]:
            del self._completed[round_index]


__all__ = [
    "KIND_HELLO",
    "KIND_TRAIN",
    "MESH_CHUNK_BYTES",
    "MESH_MAGIC",
    "MESH_VERSION",
    "MeshChunk",
    "TrainAssembler",
    "decode_chunk",
    "encode_hello",
    "split_train",
]
