"""The one frame wire format: a *train* of frames behind a phase table.

A train is one batch of :class:`~repro.net.party.Frame` objects crossing
one link in one round — a party's frames for one recipient on the
runtime's :class:`~repro.runtime.transport.TcpTransport`, a worker's
frames for one peer on the cluster mesh (:mod:`repro.cluster.mesh`),
a shard's staged frames inside a checkpoint.  All three speak this
body; what wraps it (who stamps the sender, the record header) belongs
to the link.

Layout: ``u32 num_phases | (u16 len, utf8)* | u32 num_frames |
(frame_header, payload)*`` — struct-packed, no pickle; the phase string
table keeps repeated obs phases to two bytes per frame.

The decoder is strict: truncation, trailing bytes, an out-of-table
phase id, a delivery round not after the send round or a charge below
the ``-1`` sentinel raise :class:`~repro.errors.SerializationError` (a
member of :data:`~repro.errors.MALFORMED_INPUT_ERRORS`) — never hang,
never silently mis-frame.  ``charge_bits`` survives exactly (signed:
``-1`` means "charge the payload size"), so a received frame is
field-for-field the frame its sender emitted.

Every socket in the repo — the TCP transport, the cluster's control
channel and its mesh — carries *records*: a u32 big-endian length, then
that many bytes.  :func:`length_prefix` writes the length and
:func:`split_records` is the one reader: it refuses a length past the
caller's cap as soon as the prefix is in, before the body is buffered,
and cuts the complete records off the front of a receive buffer.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence

from repro.errors import SerializationError
from repro.net.party import Frame

#: sender, recipient, sent_round, deliver_round, charge_bits (signed),
#: seq, phase_id, payload_len
_FRAME = struct.Struct(">IIIIqIHI")
#: The big-endian u32 every count below — and every link's record length
#: prefix — is packed with.
_LENGTH = struct.Struct(">I")
_U16 = struct.Struct(">H")

#: Bytes of a record's length prefix.
PREFIX_BYTES = _LENGTH.size
#: The largest record length a u32 prefix can state.
MAX_RECORD = (1 << 32) - 1

#: Sanity bound on one frame payload an encoder will pack.
_MAX_PAYLOAD = 1 << 31


def length_prefix(length: int) -> bytes:
    """The prefix of a record of ``length`` bytes."""
    if length > MAX_RECORD:
        raise SerializationError(
            f"record of {length} bytes exceeds {MAX_RECORD}"
        )
    return _LENGTH.pack(length)


def split_records(buffer: bytearray, max_length: int) -> List[bytes]:
    """Cut the complete length-prefixed records off ``buffer``'s front.

    A prefix stating more than ``max_length`` bytes raises
    :class:`~repro.errors.SerializationError` as soon as the prefix is
    in, however little of its body has arrived.
    """
    records: List[bytes] = []
    offset, size = 0, len(buffer)
    with memoryview(buffer) as view:  # one copy per record, not two
        while size - offset >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(view, offset)
            if length > max_length:
                raise SerializationError(
                    f"record length {length} exceeds {max_length}"
                )
            end = offset + _LENGTH.size + length
            if end > size:
                break
            records.append(bytes(view[offset + _LENGTH.size:end]))
            offset = end
    del buffer[:offset]
    return records


def encode_train_body(frames: Sequence[Frame]) -> bytes:
    """Encode one link's frames for one round (no header, no prefix)."""
    phase_ids: Dict[str, int] = {}
    for frame in frames:
        if frame.phase not in phase_ids:
            phase_ids[frame.phase] = len(phase_ids)
    if len(phase_ids) > 0xFFFF:
        raise SerializationError("train carries more than 65535 phases")
    parts = [_LENGTH.pack(len(phase_ids))]
    for phase in phase_ids:  # insertion order == id order
        blob = phase.encode("utf-8")
        if len(blob) > 0xFFFF:
            raise SerializationError("phase label exceeds 65535 bytes")
        parts.append(_U16.pack(len(blob)))
        parts.append(blob)
    parts.append(_LENGTH.pack(len(frames)))
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
    size = len(body)
    offset = 0
    frames: List[Frame] = []
    try:
        (num_phases,) = _LENGTH.unpack_from(body, offset)
        offset += _LENGTH.size
        phases: List[str] = []
        for _ in range(num_phases):
            (length,) = _U16.unpack_from(body, offset)
            offset += _U16.size
            if offset + length > size:
                raise SerializationError(
                    f"truncated train phase table at offset {offset}"
                )
            phases.append(body[offset:offset + length].decode("utf-8"))
            offset += length
        (num_frames,) = _LENGTH.unpack_from(body, offset)
        offset += _LENGTH.size
        for _ in range(num_frames):
            (sender, recipient, sent_round, deliver_round, charge_bits,
             seq, phase_id, payload_len) = _FRAME.unpack_from(body, offset)
            offset += _FRAME.size
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
            if payload_len > size - offset:
                raise SerializationError(
                    f"truncated train body at offset {offset} ({payload_len} "
                    f"payload bytes wanted, {size - offset} left)"
                )
            frames.append(
                Frame(
                    # The link that carried the train stamps or checks
                    # the sender (router identity on tcp, the staged
                    # routing table on the mesh) and checks the
                    # recipient against the receiving endpoint or that
                    # table, before any delivery or ledger charge.
                    sender=sender,
                    recipient=recipient,
                    payload=body[offset:offset + payload_len],
                    sent_round=sent_round,
                    deliver_round=deliver_round,
                    charge_bits=charge_bits,
                    # seq is only an ordering key (canonical inbox
                    # order, the fault plan's seeded draws, checkpoint
                    # sort): every unpacked value is a valid key.
                    seq=seq,
                    phase=phases[phase_id] if phase_id < num_phases else "",
                )
            )
            offset += payload_len
    except struct.error as exc:
        raise SerializationError(
            f"truncated train body at offset {offset}: {exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise SerializationError(
            f"train phase table is not UTF-8: {exc}"
        ) from exc
    if offset != size:
        raise SerializationError(
            f"{size - offset} trailing bytes after train body"
        )
    return frames
