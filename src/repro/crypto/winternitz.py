"""Winternitz one-time signatures (W-OTS) with oblivious key generation.

A drop-in alternative to Lamport for the OWF-based SRDS: instead of one
preimage pair per message bit, W-OTS signs ``w``-bit chunks with hash
chains of length ``2^w``, shrinking signatures by a factor of ~``w`` at
the cost of ``2^w / 2`` extra hash evaluations per chunk.  With the
standard checksum chunks appended, revealing a deeper chain position for
any message chunk forces a *shallower* position in some checksum chunk,
which is what prevents forgery-by-chain-extension.

Like the Lamport module, key generation is deterministic from a seed and
an *oblivious* variant samples a verification key with no signing
capability — the property the sortition construction (Thm 2.7) needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.crypto.hashing import domain_walker, hash_domain
from repro.crypto.prg import PRG
from repro.errors import (
    MALFORMED_INPUT_ERRORS,
    ConfigurationError,
    KeyError_,
    SignatureError,
)
from repro.utils.serialization import encode_uint

_CHAIN_DOMAIN = "wots/chain"
_SECRET_DOMAIN = "wots/secret"
_OBLIVIOUS_DOMAIN = "wots/oblivious"
_MESSAGE_DOMAIN = "wots/message"

DEFAULT_MESSAGE_BITS = 128
DEFAULT_W = 4  # chunk width in bits; chains of length 16


# One chain step is ``hash_domain(_CHAIN_DOMAIN, encode_uint(chunk_index),
# value)``: everything but the value is constant per chunk position, and
# positions are a few dozen small integers shared by every key.
@functools.lru_cache(maxsize=512)
def _chain_walker(chunk_index: int) -> Callable[[bytes, int], bytes]:
    return domain_walker(_CHAIN_DOMAIN, encode_uint(chunk_index))


def _chain(start: bytes, steps: int, chunk_index: int) -> bytes:
    """Apply the hash chain ``steps`` times (domain-bound per chunk), in
    one loop over the chunk's absorbed state."""
    return _chain_walker(chunk_index)(start, steps)


@functools.lru_cache(maxsize=64)
def _parameters(message_bits: int, w: int) -> Tuple[int, int, int]:
    """Return (message_chunks, checksum_chunks, total_chunks)."""
    if w < 1 or w > 8:
        raise ConfigurationError("w must be in [1, 8]")
    if message_bits % w != 0:
        raise ConfigurationError("message_bits must be divisible by w")
    message_chunks = message_bits // w
    max_checksum = message_chunks * ((1 << w) - 1)
    checksum_chunks = 1
    while (1 << (w * checksum_chunks)) <= max_checksum:
        checksum_chunks += 1
    return message_chunks, checksum_chunks, message_chunks + checksum_chunks


def _message_chunks(message: bytes, message_bits: int, w: int) -> List[int]:
    """Digest the message and split it into w-bit chunks + checksum."""
    _, checksum_chunks, _ = _parameters(message_bits, w)
    needed = (message_bits + 7) // 8
    stream = b""
    counter = 0
    while len(stream) < needed:
        stream += hash_domain(_MESSAGE_DOMAIN, encode_uint(counter), message)
        counter += 1
    # The digest's leading message_bits bits, read w at a time from the top.
    value = int.from_bytes(stream[:needed], "big") >> (8 * needed - message_bits)
    top = (1 << w) - 1
    chunks = [
        (value >> shift) & top for shift in range(message_bits - w, -1, -w)
    ]
    checksum = sum(top - c for c in chunks)
    checksum_values = []
    for _ in range(checksum_chunks):
        checksum_values.append(checksum & top)
        checksum >>= w
    return chunks + checksum_values


@dataclass(frozen=True)
class WotsVerificationKey:
    """Chain endpoints, one per chunk."""

    message_bits: int
    w: int
    endpoints: Tuple[bytes, ...]

    def encode(self) -> bytes:
        return b"".join(self.endpoints)

    def size_bytes(self) -> int:
        """Wire size of the key."""
        return 32 * len(self.endpoints)


@dataclass(frozen=True)
class WotsSigningKey:
    """Chain starting points, one per chunk."""

    message_bits: int
    w: int
    starts: Tuple[bytes, ...]


@dataclass(frozen=True)
class WotsSignature:
    """One intermediate chain value per chunk."""

    values: Tuple[bytes, ...]

    def encode(self) -> bytes:
        return b"".join(self.values)

    def size_bytes(self) -> int:
        """Wire size of the signature."""
        return 32 * len(self.values)


def keygen_from_seed(
    seed: bytes,
    message_bits: int = DEFAULT_MESSAGE_BITS,
    w: int = DEFAULT_W,
) -> Tuple[WotsVerificationKey, WotsSigningKey]:
    """Deterministically expand a seed into a W-OTS key pair."""
    _, _, total = _parameters(message_bits, w)
    starts = tuple(PRG(seed, domain=_SECRET_DOMAIN).blocks(total))
    endpoints = tuple(
        _chain(start, (1 << w) - 1, index)
        for index, start in enumerate(starts)
    )
    return (
        WotsVerificationKey(message_bits=message_bits, w=w, endpoints=endpoints),
        WotsSigningKey(message_bits=message_bits, w=w, starts=starts),
    )


def oblivious_keygen(
    seed: bytes,
    message_bits: int = DEFAULT_MESSAGE_BITS,
    w: int = DEFAULT_W,
) -> WotsVerificationKey:
    """Sample endpoints directly — no signing capability exists.

    Honest endpoints are deep hash-chain outputs, i.e. uniform-looking
    32-byte strings; sampling them directly is indistinguishable without
    inverting the chain (the OWF).
    """
    _, _, total = _parameters(message_bits, w)
    endpoints = tuple(PRG(seed, domain=_OBLIVIOUS_DOMAIN).blocks(total))
    return WotsVerificationKey(
        message_bits=message_bits, w=w, endpoints=endpoints
    )


def sign(signing_key: WotsSigningKey, message: bytes) -> WotsSignature:
    """Reveal chain position ``chunk_value`` for each chunk."""
    chunks = _message_chunks(message, signing_key.message_bits, signing_key.w)
    if len(chunks) != len(signing_key.starts):
        raise KeyError_("signing key does not match parameterization")
    values = tuple(
        _chain(start, chunk, index)
        for index, (start, chunk) in enumerate(zip(signing_key.starts, chunks))
    )
    return WotsSignature(values=values)


def verify(
    verification_key: WotsVerificationKey,
    message: bytes,
    signature: WotsSignature,
) -> bool:
    """Walk each chain the remaining steps and compare endpoints.  False
    on any mismatch or malformed input, never an exception."""
    try:
        if len(signature.values) != len(verification_key.endpoints):
            return False
        chunks = _message_chunks(
            message, verification_key.message_bits, verification_key.w
        )
        if len(chunks) != len(signature.values):
            return False
        top = (1 << verification_key.w) - 1
        for index, (value, chunk, endpoint) in enumerate(
            zip(signature.values, chunks, verification_key.endpoints)
        ):
            if _chain(value, top - chunk, index) != endpoint:
                return False
        return True
    except MALFORMED_INPUT_ERRORS:
        return False


def decode_signature(
    data: bytes,
    message_bits: int = DEFAULT_MESSAGE_BITS,
    w: int = DEFAULT_W,
) -> WotsSignature:
    """Decode a flat signature encoding (32 bytes per chunk)."""
    _, _, total = _parameters(message_bits, w)
    if len(data) != 32 * total:
        raise SignatureError("malformed W-OTS signature encoding")
    return WotsSignature(
        values=tuple(data[32 * i: 32 * (i + 1)] for i in range(total))
    )


def decode_verification_key(
    data: bytes,
    message_bits: int = DEFAULT_MESSAGE_BITS,
    w: int = DEFAULT_W,
) -> WotsVerificationKey:
    """Decode a flat verification-key encoding (32 bytes per chunk)."""
    _, _, total = _parameters(message_bits, w)
    if len(data) != 32 * total:
        raise KeyError_("malformed W-OTS verification key encoding")
    return WotsVerificationKey(
        message_bits=message_bits,
        w=w,
        endpoints=tuple(data[32 * i: 32 * (i + 1)] for i in range(total)),
    )
