"""The mesh data-plane wire format: one record per frame train.

Party frames travel in a purpose-built binary format spoken directly
between worker processes (:mod:`repro.cluster.mesh`) — the supervisor
never sees them, and nothing on this hot path is pickled:

* a **train** is one worker's batch of frames for one peer in one round
  — the unit of the per-round barrier (an *empty* train is still sent:
  "I finished this round and emitted nothing for you");
* a train travels as one length-prefixed record
  (:func:`repro.net.trains.split_records`): a header naming the link and
  the round, then the body;
* every train header carries a **halted** byte: "every target party in
  my shard has halted".  All workers read the same flags after the same
  round, so all of them stop at the same round with no coordinator;
* a train body is the repo's one frame wire format,
  :mod:`repro.net.trains` (shared with the runtime's TCP transport).

A link is one ordered stream and its sender ships rounds in order, so a
receiver accepts exactly the train of the next round it owes
(:func:`decode_train`).  Decoders are strict: truncated or corrupted
records raise :class:`~repro.errors.SerializationError` (a member of
:data:`~repro.errors.MALFORMED_INPUT_ERRORS`) — never hang, never
silently mis-frame.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import SerializationError
from repro.net.party import Frame
from repro.net.trains import decode_train_body

#: Train record magic + format version (bump on layout changes).
MESH_MAGIC = b"RPMW"
MESH_VERSION = 4

#: magic, version, halted, src_worker, dst_worker, round
_HEADER = struct.Struct(">4sBBHHI")


def encode_header(src_worker: int, dst_worker: int, round_index: int,
                  halted: bool = False) -> bytes:
    """The header a train record's body follows."""
    return _HEADER.pack(MESH_MAGIC, MESH_VERSION, int(halted), src_worker,
                        dst_worker, round_index)


def decode_train(record: bytes, src_worker: int, dst_worker: int,
                 round_index: int) -> Tuple[List[Frame], bool]:
    """The frames and halted flag of one train record, which must be the
    train the link from ``src_worker`` to ``dst_worker`` owes for
    ``round_index``.

    Raises :class:`~repro.errors.SerializationError` — a member of
    ``MALFORMED_INPUT_ERRORS`` — on any truncation, corruption or other
    train.
    """
    if len(record) < _HEADER.size:
        raise SerializationError(
            f"short mesh record ({len(record)} bytes, "
            f"header is {_HEADER.size})"
        )
    magic, version, halted, src, dst, train_round = _HEADER.unpack_from(record)
    if magic != MESH_MAGIC:
        raise SerializationError(
            f"bad mesh magic {magic!r} (want {MESH_MAGIC!r})"
        )
    if version != MESH_VERSION:
        raise SerializationError(
            f"mesh format version {version}, this build speaks "
            f"{MESH_VERSION}"
        )
    if halted > 1:
        raise SerializationError(f"mesh halted flag {halted} is not 0 or 1")
    if (src, dst) != (src_worker, dst_worker):
        raise SerializationError(
            f"train from worker {src} to {dst} arrived on the link from "
            f"worker {src_worker} at worker {dst_worker}"
        )
    if train_round != round_index:
        raise SerializationError(
            f"train for round {train_round} from worker {src}; the link "
            f"owes round {round_index}"
        )
    return decode_train_body(record[_HEADER.size:]), bool(halted)


__all__ = [
    "MESH_MAGIC",
    "MESH_VERSION",
    "decode_train",
    "encode_header",
]
