"""Canonical byte encodings shared across the library.

Every object that crosses the simulated wire is encoded with the helpers in
this module so that (a) communication accounting measures a well-defined
number of bits, and (b) hashing of structured data (transcripts, Merkle
leaves, signed messages) is canonical and injective.

The format is deliberately simple: length-prefixed byte strings combined
with unsigned varints.  It is *not* meant to interoperate with any external
system; it is the repo's single source of truth for "how big is this
message".
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Sequence, Tuple, Type, TypeVar

from repro.errors import SerializationError

#: ``encode_uint`` of 0..127.  Lengths 32/64 and flags 0/1 dominate: one
#: byte, looked up.
ONE_BYTE_UINTS = tuple(bytes((value,)) for value in range(0x80))


def encode_uint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128-style varint."""
    if 0 <= value < 0x80:
        return ONE_BYTE_UINTS[value]
    if value < 0:
        raise SerializationError(f"cannot encode negative integer {value}")
    if value < 0x4000:
        # Two bytes: PRG block indices of a 128-bit Lamport key, field
        # lengths up to 16 KiB.
        return bytes((value & 0x7F | 0x80, value >> 7))
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise SerializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63 + 7 * 8:
            raise SerializationError("varint too long")


def encode_bytes(blob: bytes) -> bytes:
    """Length-prefix a byte string."""
    return encode_uint(len(blob)) + blob


def decode_bytes(data: bytes, offset: int = 0) -> Tuple[bytes, int]:
    """Decode a length-prefixed byte string; returns ``(blob, next_offset)``."""
    length, pos = decode_uint(data, offset)
    end = pos + length
    if end > len(data):
        raise SerializationError("truncated byte string")
    return data[pos:end], end


def encode_sequence(items: Sequence[bytes]) -> bytes:
    """Encode a sequence of byte strings (count-prefixed, each length-prefixed)."""
    parts = [encode_uint(len(items))]
    append = parts.append
    for item in items:
        size = len(item)
        append(ONE_BYTE_UINTS[size] if size < 0x80 else encode_uint(size))
        append(item)
    return b"".join(parts)


def decode_sequence(data: bytes, offset: int = 0) -> Tuple[List[bytes], int]:
    """Decode a sequence produced by :func:`encode_sequence`."""
    count, pos = decode_uint(data, offset)
    items: List[bytes] = []
    for _ in range(count):
        item, pos = decode_bytes(data, pos)
        items.append(item)
    return items, pos


def encode_str(text: str) -> bytes:
    """Encode a unicode string (UTF-8, length-prefixed)."""
    return encode_bytes(text.encode("utf-8"))


def decode_str(data: bytes, offset: int = 0) -> Tuple[str, int]:
    """Decode a string produced by :func:`encode_str`."""
    blob, pos = decode_bytes(data, offset)
    try:
        return blob.decode("utf-8"), pos
    except UnicodeDecodeError as exc:
        raise SerializationError("invalid UTF-8 in encoded string") from exc


def int_to_fixed_bytes(value: int, width: int) -> bytes:
    """Big-endian fixed-width encoding of a non-negative integer."""
    if value < 0:
        raise SerializationError(f"cannot encode negative integer {value}")
    try:
        return value.to_bytes(width, "big")
    except OverflowError as exc:
        raise SerializationError(
            f"integer {value} does not fit in {width} bytes"
        ) from exc


def fixed_bytes_to_int(data: bytes) -> int:
    """Inverse of :func:`int_to_fixed_bytes`."""
    return int.from_bytes(data, "big")


def canonical_tuple(*fields: bytes) -> bytes:
    """Injective encoding of a tuple of byte strings.

    Used wherever structured data is hashed or signed: the length prefixes
    make the encoding prefix-free per field, so distinct tuples never
    collide as byte strings.
    """
    return encode_sequence(fields)


@functools.lru_cache(maxsize=1024)
def tagged_head(tag: str, num_fields: int) -> bytes:
    """Everything of a tagged tuple that precedes its fields: the count
    and the domain tag's field.  Tags are a handful of constants, so each
    is encoded once (per arity) instead of once per hash."""
    return encode_uint(num_fields + 1) + encode_bytes(encode_str(tag))


def tagged_tuple(domain: str, fields: Sequence[bytes]) -> bytes:
    """:func:`canonical_tuple` of the :func:`encode_str`-ed domain and the
    fields, byte for byte.

    The definition of every domain-separated hash's preimage
    (:func:`repro.crypto.hashing.hash_domain` streams the same bytes
    into a cached midstate instead of building them) and the message of
    every PRF call — hence :func:`encode_sequence`'s loop repeated here
    rather than called: a call per MAC is measurable.
    """
    parts = [tagged_head(domain, len(fields))]
    append = parts.append
    for item in fields:
        size = len(item)
        append(ONE_BYTE_UINTS[size] if size < 0x80 else encode_uint(size))
        append(item)
    return b"".join(parts)


def bit_length(blob: bytes) -> int:
    """Size of an encoded object in bits (what the network meter charges)."""
    return 8 * len(blob)


_ENCODED = "_encoded_once"

_T = TypeVar("_T", bound=Type[Any])


def encode_once(cls: _T) -> _T:
    """Class decorator: a frozen wire value's ``encode()`` runs once.

    The same immutable signature is sent to every member of a committee
    and re-read by the dedup, the majority filter and the provers; its
    canonical bytes (and so the bit length the ledger charges) cannot
    change, so they are kept on the instance after the first call.

    The memo lives in the instance ``__dict__`` under a name that is not
    a dataclass field: ``==``, ``hash``, ``repr`` and
    ``dataclasses.replace`` never see it, and ``__getstate__`` leaves it
    out of pickles and copies.  Apply it only to frozen classes whose
    fields are themselves immutable — a value holding a mutable or
    adversary-writable field must keep encoding afresh.
    """
    compute = cls.encode

    @functools.wraps(compute)
    def encode(self: Any) -> bytes:
        state = self.__dict__
        try:
            return state[_ENCODED]
        except KeyError:
            encoded = state[_ENCODED] = compute(self)
            return encoded

    def __getstate__(self: Any) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop(_ENCODED, None)
        return state

    cls.encode = encode
    cls.__getstate__ = __getstate__
    return cls
