"""Lamport one-time signatures with oblivious key generation.

This is the substrate of the paper's OWF-based SRDS (Thm 2.7).  Two
properties matter beyond plain one-time unforgeability:

* **Oblivious key generation** — a verification key can be sampled
  *without* any corresponding signing key, and such keys are
  indistinguishable from honestly generated ones given only the public
  material.  The sortition-based SRDS gives most parties oblivious keys so
  that only a hidden polylog-size subset can sign.
* **Determinism from seeds** — keys expand from short seeds via the PRG,
  so the trusted-PKI dealer ships 32-byte seeds rather than kilobytes of
  hash preimages.

Messages of arbitrary length are first hashed to ``message_bits`` bits;
the scheme signs that digest bit-by-bit in the classic two-row Lamport
layout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from operator import getitem
from typing import Sequence, Tuple

from repro.crypto.hashing import hash_domain, hash_each
from repro.crypto.prg import PRG
from repro.errors import MALFORMED_INPUT_ERRORS, KeyError_, SignatureError
from repro.utils.serialization import encode_uint

_SECRET_DOMAIN = "lamport/secret"
_PUBLIC_DOMAIN = "lamport/public"
_MESSAGE_DOMAIN = "lamport/message"
_OBLIVIOUS_DOMAIN = "lamport/oblivious"

DEFAULT_MESSAGE_BITS = 128

#: ASCII binary digits to the bit values they spell.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _message_digest_bits(message: bytes, message_bits: int) -> bytes:
    """Hash a message down to ``message_bits`` bits: the leading bits of
    the counter-mode digest stream, most significant first, one 0/1
    value per byte (so they index a key's rows without a Python loop)."""
    needed_bytes = (message_bits + 7) // 8
    stream = b""
    counter = 0
    while len(stream) < needed_bytes:
        stream += hash_domain(_MESSAGE_DOMAIN, encode_uint(counter), message)
        counter += 1
    value = int.from_bytes(stream[:needed_bytes], "big")
    value >>= 8 * needed_bytes - message_bits
    return format(value, f"0{message_bits}b").encode().translate(_BIT_VALUES)


def _rows(flat: Sequence) -> Tuple[tuple, ...]:
    """Items ``2i`` and ``2i + 1`` as row ``i``'s (zero, one) pair."""
    return tuple(zip(flat[0::2], flat[1::2]))


@functools.lru_cache(maxsize=8)
def _layout(
    message_bits: int,
) -> Tuple[Tuple[slice, ...], Tuple[Tuple[slice, slice], ...]]:
    """Where the 32-byte cells of the flat encodings sit: a signature's
    preimages, and a key's rows as (zero, one) pairs of slices."""
    cells = tuple(
        slice(start, start + 32) for start in range(0, 64 * message_bits, 32)
    )
    return cells[:message_bits], _rows(cells)


@dataclass(frozen=True)
class LamportVerificationKey:
    """A Lamport verification key: two hash values per message bit."""

    message_bits: int
    rows: Tuple[Tuple[bytes, bytes], ...]

    def encode(self) -> bytes:
        """Flat concatenation (fixed width: 64 bytes per message bit)."""
        return b"".join(chain.from_iterable(self.rows))

    def size_bytes(self) -> int:
        """Wire size of the key."""
        return sum(len(zero) + len(one) for zero, one in self.rows)


@dataclass(frozen=True)
class LamportSigningKey:
    """A Lamport signing key: two secret preimages per message bit."""

    message_bits: int
    rows: Tuple[Tuple[bytes, bytes], ...]


@dataclass(frozen=True)
class LamportSignature:
    """A Lamport signature: one revealed preimage per message bit."""

    preimages: Tuple[bytes, ...]

    def encode(self) -> bytes:
        """Flat concatenation (32 bytes per message bit)."""
        return b"".join(self.preimages)

    def size_bytes(self) -> int:
        """Wire size of the signature."""
        return sum(len(p) for p in self.preimages)


def keygen_from_seed(
    seed: bytes, message_bits: int = DEFAULT_MESSAGE_BITS
) -> Tuple[LamportVerificationKey, LamportSigningKey]:
    """Deterministically expand a seed into a full Lamport key pair: two
    batches of ``2 * message_bits`` hashes, the secrets and their
    public values."""
    secrets = PRG(seed, domain=_SECRET_DOMAIN).blocks(2 * message_bits)
    publics = hash_each(_PUBLIC_DOMAIN, (), secrets)
    return (
        LamportVerificationKey(message_bits=message_bits, rows=_rows(publics)),
        LamportSigningKey(message_bits=message_bits, rows=_rows(secrets)),
    )


def oblivious_keygen(
    seed: bytes, message_bits: int = DEFAULT_MESSAGE_BITS
) -> LamportVerificationKey:
    """Sample a verification key with *no* corresponding signing key.

    The rows are PRG outputs used directly as "hash values"; since the
    honest rows are hashes of PRG outputs, both distributions are uniform
    256-bit strings to any observer without preimages.  Inverting a row
    back to a usable preimage is exactly inverting the OWF.
    """
    blocks = PRG(seed, domain=_OBLIVIOUS_DOMAIN).blocks(2 * message_bits)
    return LamportVerificationKey(message_bits=message_bits, rows=_rows(blocks))


def sign(
    signing_key: LamportSigningKey, message: bytes
) -> LamportSignature:
    """Sign a message by revealing one preimage per digest bit."""
    bits = _message_digest_bits(message, signing_key.message_bits)
    preimages = tuple(map(getitem, signing_key.rows, bits))
    if len(preimages) != signing_key.message_bits:
        raise KeyError_("signing key does not match parameterization")
    return LamportSignature(preimages=preimages)


def verify(
    verification_key: LamportVerificationKey,
    message: bytes,
    signature: LamportSignature,
) -> bool:
    """Verify a signature: :func:`verify_encoded` on the key's and the
    signature's flat encodings.  False on any mismatch or malformed
    input, never an exception."""
    try:
        return verify_encoded(
            verification_key.encode(),
            message,
            signature.encode(),
            verification_key.message_bits,
        )
    except MALFORMED_INPUT_ERRORS:
        return False


def verify_encoded(
    verification_key: bytes,
    message: bytes,
    signature: bytes,
    message_bits: int = DEFAULT_MESSAGE_BITS,
) -> bool:
    """Verify a signature given as flat encodings, without decoding
    either (the OTS adapter's keys and signatures are bytes).  The
    preimages are hashed in one batch and their concatenation is
    compared with the key halves the digest bits select, read straight
    from the key bytes.  False on any mismatch or malformed input."""
    try:
        if (
            len(verification_key) != 64 * message_bits
            or len(signature) != 32 * message_bits
        ):
            return False
        bits = _message_digest_bits(message, message_bits)
        preimage_cells, row_cells = _layout(message_bits)
        preimages = map(signature.__getitem__, preimage_cells)
        halves = map(getitem, row_cells, bits)
        return b"".join(hash_each(_PUBLIC_DOMAIN, (), preimages)) == b"".join(
            map(verification_key.__getitem__, halves)
        )
    except MALFORMED_INPUT_ERRORS:
        return False


def decode_signature(
    data: bytes, message_bits: int = DEFAULT_MESSAGE_BITS
) -> LamportSignature:
    """Decode a flat signature encoding (32 bytes per bit)."""
    if len(data) != 32 * message_bits:
        raise SignatureError("malformed Lamport signature encoding")
    preimages = tuple(
        data[32 * i: 32 * (i + 1)] for i in range(message_bits)
    )
    return LamportSignature(preimages=preimages)


def decode_verification_key(
    data: bytes, message_bits: int = DEFAULT_MESSAGE_BITS
) -> LamportVerificationKey:
    """Decode a flat verification-key encoding (64 bytes per bit)."""
    if len(data) != 64 * message_bits:
        raise KeyError_("malformed Lamport verification key encoding")
    rows = tuple(
        (data[64 * i: 64 * i + 32], data[64 * i + 32: 64 * (i + 1)])
        for i in range(message_bits)
    )
    return LamportVerificationKey(message_bits=message_bits, rows=rows)
