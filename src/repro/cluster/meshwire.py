"""The mesh data-plane wire format: compact binary frame trains.

Party frames travel in a purpose-built binary format spoken directly
between worker processes (:mod:`repro.cluster.mesh`) — the supervisor
never sees them, and nothing on this hot path is pickled:

* a **train** is one worker's batch of frames for one peer in one round
  — the unit of dedup, resend, and the per-round barrier (an *empty*
  train is still sent: "I emitted nothing for you this round");
* a train body is a struct-packed frame table behind a small string
  table for obs phases (``round``/``src``/``dst``/``seq``/``phase-id``
  headers + length-prefixed payloads — no pickle anywhere);
* oversized bodies are **chunked**: each chunk record carries the full
  train coordinates (``src``, ``dst``, ``round``, ``train_seq``,
  ``chunk_index``/``num_chunks``) so a receiver can reassemble out of
  order, drop duplicates, and discard a torn half-train superseded by a
  redial's resend (``train_seq`` is the per-link send-attempt counter).

Decoders are strict: truncated or corrupted headers raise
:class:`~repro.errors.SerializationError` (a member of
:data:`~repro.errors.MALFORMED_INPUT_ERRORS`) — never hang, never
silently mis-frame.  ``charge_bits`` survives exactly (signed: ``-1``
means "charge the payload size"), so a received frame is field-for-
field the frame its sender emitted and digested.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SerializationError
from repro.net.party import Frame

#: Chunk record magic + format version (bump on layout changes).
MESH_MAGIC = b"RPMW"
MESH_VERSION = 1

#: Record kinds.
KIND_TRAIN = 1
KIND_HELLO = 2

#: magic, version, kind, src_worker, dst_worker, round, train_seq,
#: chunk_index, num_chunks, payload_len
_CHUNK = struct.Struct(">4sBBHHIIIII")
#: sender, recipient, sent_round, deliver_round, charge_bits (signed),
#: seq, phase_id, payload_len
_FRAME = struct.Struct(">IIIIqIHI")
_U32 = struct.Struct(">I")
_HAVE = struct.Struct(">q")

#: Train bodies above this are split across multiple chunk records, so
#: a heavy round never materializes as one unbounded wire record.  The
#: same 32 MiB threshold as the control channel's ``part`` trains.
MESH_CHUNK_BYTES = 32 << 20
#: Sanity bound on one reassembled train body.
_MAX_TRAIN = 1 << 33
#: Sanity bound on one frame payload inside a train.
_MAX_PAYLOAD = 1 << 31


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

    def hello_have(self) -> int:
        """The peer's consumed-round watermark carried by a hello."""
        if self.kind != KIND_HELLO:
            raise SerializationError("hello_have on a non-hello chunk")
        return _HAVE.unpack(self.payload)[0]


# -- train body ---------------------------------------------------------------


def encode_train_body(frames: List[Frame]) -> bytes:
    """Encode one round's frames for one peer (no chunking, no prefix).

    Layout: ``u32 num_phases | (u16 len, utf8)* | u32 num_frames |
    (frame_header, payload)*`` — the phase string table keeps repeated
    obs phases to two bytes per frame.
    """
    phase_ids: Dict[str, int] = {}
    for frame in frames:
        if frame.phase not in phase_ids:
            phase_ids[frame.phase] = len(phase_ids)
    if len(phase_ids) > 0xFFFF:
        raise SerializationError("train carries more than 65535 phases")
    parts = [_U32.pack(len(phase_ids))]
    for phase in phase_ids:  # insertion order == id order
        blob = phase.encode("utf-8")
        if len(blob) > 0xFFFF:
            raise SerializationError("phase label exceeds 65535 bytes")
        parts.append(struct.pack(">H", len(blob)))
        parts.append(blob)
    parts.append(_U32.pack(len(frames)))
    for frame in frames:
        if len(frame.payload) > _MAX_PAYLOAD:
            raise SerializationError(
                f"frame payload exceeds {_MAX_PAYLOAD} bytes"
            )
        parts.append(
            _FRAME.pack(
                frame.sender,
                frame.recipient,
                frame.sent_round,
                frame.deliver_round,
                frame.charge_bits,
                frame.seq,
                phase_ids[frame.phase],
                len(frame.payload),
            )
        )
        parts.append(frame.payload)
    return b"".join(parts)


def decode_train_body(body: bytes) -> List[Frame]:
    """Inverse of :func:`encode_train_body` (strict, no trailing bytes)."""
    view = memoryview(body)
    offset = 0

    def need(count: int) -> int:
        nonlocal offset
        if offset + count > len(body):
            raise SerializationError(
                f"truncated train body at offset {offset} "
                f"({count} bytes wanted, {len(body) - offset} left)"
            )
        start = offset
        offset += count
        return start

    (num_phases,) = _U32.unpack_from(view, need(_U32.size))
    phases: List[str] = []
    for _ in range(num_phases):
        (length,) = struct.unpack_from(">H", view, need(2))
        start = need(length)
        try:
            phases.append(bytes(view[start:start + length]).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise SerializationError(
                f"train phase table is not UTF-8: {exc}"
            ) from exc
    (num_frames,) = _U32.unpack_from(view, need(_U32.size))
    frames: List[Frame] = []
    for _ in range(num_frames):
        header = _FRAME.unpack_from(view, need(_FRAME.size))
        (sender, recipient, sent_round, deliver_round,
         charge_bits, seq, phase_id, payload_len) = header
        if deliver_round <= sent_round:
            raise SerializationError(
                f"frame claims delivery round {deliver_round} on or "
                f"before its send round {sent_round}"
            )
        if charge_bits < -1:
            raise SerializationError(
                f"frame charge {charge_bits} below the -1 "
                "charge-by-payload sentinel"
            )
        if phase_id >= num_phases and not (phase_id == 0 and num_phases == 0):
            raise SerializationError(
                f"frame names phase id {phase_id}, table holds {num_phases}"
            )
        if payload_len > _MAX_PAYLOAD:
            raise SerializationError(
                f"frame payload length {payload_len} exceeds {_MAX_PAYLOAD}"
            )
        start = need(payload_len)
        frames.append(
            Frame(
                # lint: allow[TRU001] reason=party ids are checked against the staged routing table by the router/supervisor before any delivery or ledger charge
                sender=sender,
                recipient=recipient,  # lint: allow[TRU001] reason=recipient is checked against the staged routing table before any delivery or ledger charge
                payload=bytes(view[start:start + payload_len]),
                sent_round=sent_round,
                deliver_round=deliver_round,
                charge_bits=charge_bits,
                seq=seq,  # lint: allow[TRU001] reason=seq is an opaque dedup tag; the reconnect replay consumer tolerates arbitrary values
                phase=phases[phase_id] if phase_id < num_phases else "",
            )
        )
    if offset != len(body):
        raise SerializationError(
            f"{len(body) - offset} trailing bytes after train body"
        )
    return frames


# -- chunk records ------------------------------------------------------------


def split_train(
    src_worker: int,
    dst_worker: int,
    round_index: int,
    train_seq: int,
    body: bytes,
    chunk_bytes: int = MESH_CHUNK_BYTES,
) -> List[bytes]:
    """Split one encoded train body into self-describing chunk records.

    An empty body still yields one (empty-payload) chunk — the empty
    train is the mesh's round barrier.  Every record repeats the train
    coordinates, so chunks tolerate reordering and duplication.
    """
    if chunk_bytes <= 0:
        raise SerializationError("chunk size must be positive")
    pieces = [
        body[offset:offset + chunk_bytes]
        for offset in range(0, len(body), chunk_bytes)
    ] or [b""]
    return [
        _CHUNK.pack(
            MESH_MAGIC, MESH_VERSION, KIND_TRAIN, src_worker, dst_worker,
            round_index, train_seq, index, len(pieces), len(piece),
        ) + piece
        for index, piece in enumerate(pieces)
    ]


def encode_hello(src_worker: int, dst_worker: int, have_round: int) -> bytes:
    """The link handshake record: ``have_round`` is the sender's
    consumed-round watermark for this peer (``-1`` = nothing yet); the
    receiver resends every retained train above it."""
    payload = _HAVE.pack(have_round)
    return _CHUNK.pack(
        MESH_MAGIC, MESH_VERSION, KIND_HELLO, src_worker, dst_worker,
        0, 0, 0, 1, len(payload),
    ) + payload


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
    (magic, version, kind, src_worker, dst_worker, round_index,
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
        payload_len != _HAVE.size or num_chunks != 1
    ):
        raise SerializationError("malformed mesh hello record")
    return MeshChunk(
        kind=kind,
        src_worker=src_worker,
        dst_worker=dst_worker,
        chunk_index=chunk_index,
        num_chunks=num_chunks,
        payload=record[_CHUNK.size:],
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
        #: round -> (train_seq, num_chunks, {chunk_index: payload})
        self._partial: Dict[int, Tuple[int, int, Dict[int, bytes]]] = {}
        #: round -> highest train_seq already emitted, so a fully
        #: duplicated chunk set (e.g. a resend racing its original over
        #: a healed link) cannot re-complete the same train.
        self._completed: Dict[int, int] = {}

    def pending_rounds(self) -> List[int]:
        """Rounds with an incomplete train (diagnostics)."""
        return sorted(self._partial)

    def add(self, chunk: MeshChunk) -> Optional[Tuple[int, bytes]]:
        """Absorb one train chunk; returns ``(round, body)`` when the
        train completes, else ``None``."""
        if chunk.kind != KIND_TRAIN:
            raise SerializationError(
                "assembler fed a non-train mesh record"
            )
        done_seq = self._completed.get(chunk.round_index)
        if done_seq is not None and chunk.train_seq <= done_seq:
            return None  # duplicate of an already-delivered train
        state = self._partial.get(chunk.round_index)
        if state is not None:
            seq, num_chunks, pieces = state
            if chunk.train_seq < seq:
                return None  # stale resend attempt
            if chunk.train_seq > seq:
                state = None  # newer attempt supersedes the torn train
        if state is None:
            state = (chunk.train_seq, chunk.num_chunks, {})
            self._partial[chunk.round_index] = state
        seq, num_chunks, pieces = state
        if chunk.num_chunks != num_chunks:
            raise SerializationError(
                f"train round {chunk.round_index} seq {seq}: chunk claims "
                f"{chunk.num_chunks} chunks, train started with {num_chunks}"
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
        return chunk.round_index, body

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
    "decode_train_body",
    "encode_hello",
    "encode_train_body",
    "split_train",
]
