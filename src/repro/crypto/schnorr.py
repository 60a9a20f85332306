"""Schnorr signatures over secp256k1.

These serve as the per-party "base" signatures in the SNARK-based SRDS
construction (Thm 2.8): every party locally generates a key pair (bare
PKI) and signs the agreed pair ``(y, s)``.  The scheme is the standard
Fiat-Shamir Schnorr with RFC-6979-style deterministic nonces (derived by
hashing the secret key and message) so signing is reproducible and never
reuses a nonce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto import ec
from repro.crypto.hashing import hash_domain, hash_to_int
from repro.errors import KeyError_
from repro.utils.serialization import (
    encode_uint,
    fixed_bytes_to_int,
    int_to_fixed_bytes,
)


@dataclass(frozen=True)
class SchnorrKeyPair:
    """A Schnorr key pair: secret scalar and public point."""

    secret: int
    public: ec.Point

    @property
    def public_bytes(self) -> bytes:
        """Compressed public key (33 bytes)."""
        return self.public.encode()


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature (R, s); 65 bytes on the wire."""

    nonce_point: ec.Point
    response: int

    def encode(self) -> bytes:
        """Canonical 65-byte encoding."""
        return self.nonce_point.encode() + int_to_fixed_bytes(self.response, 32)

    @classmethod
    def decode(cls, data: bytes) -> "SchnorrSignature":
        """Inverse of :meth:`encode`."""
        if len(data) != 65:
            raise KeyError_("malformed Schnorr signature encoding")
        return cls(
            nonce_point=ec.decode_point(data[:33]),
            response=fixed_bytes_to_int(data[33:]),
        )


def keygen(rng) -> SchnorrKeyPair:
    """Generate a key pair from a :class:`Randomness` source."""
    secret = 1 + rng.random_int(ec.N - 1)
    return SchnorrKeyPair(secret=secret, public=ec.commit(secret))


def _challenge(nonce_point: ec.Point, public: ec.Point, message: bytes) -> int:
    return hash_to_int(
        "schnorr/challenge", nonce_point.encode(), public.encode(), message
    ) % ec.N


def sign(keypair: SchnorrKeyPair, message: bytes) -> SchnorrSignature:
    """Sign a message (deterministic nonce derivation)."""
    nonce = hash_to_int(
        "schnorr/nonce", int_to_fixed_bytes(keypair.secret, 32), message
    ) % ec.N
    if nonce == 0:
        nonce = 1
    nonce_point = ec.commit(nonce)
    challenge = _challenge(nonce_point, keypair.public, message)
    response = (nonce + challenge * keypair.secret) % ec.N
    return SchnorrSignature(nonce_point=nonce_point, response=response)


def _is_group_element(point: ec.Point) -> bool:
    """A usable key or nonce point: on the curve and not the identity."""
    return not point.is_identity() and ec.is_on_curve(point)


def _well_formed(public: ec.Point, signature: SchnorrSignature) -> bool:
    # Hand-built points bypass ``decode_point``, so the group law must
    # never see an identity or off-curve ``public`` or ``R``.
    return (
        _is_group_element(public)
        and _is_group_element(signature.nonce_point)
        and 0 <= signature.response < ec.N
    )


def verify(public: ec.Point, message: bytes, signature: SchnorrSignature) -> bool:
    """Verify a Schnorr signature; returns False on any failure.

    Checks ``s*G - e*P == R`` with one two-term multiplication.
    """
    if not _well_formed(public, signature):
        return False
    challenge = _challenge(signature.nonce_point, public, message)
    return signature.nonce_point == ec.multi_scalar_mult(
        ((signature.response, ec.GENERATOR), (-challenge, public))
    )


BatchItem = Tuple[ec.Point, bytes, SchnorrSignature]


def verify_batch(items: Sequence[BatchItem]) -> bool:
    """Whether *every* ``(public, message, signature)`` in ``items`` verifies.

    The random-linear-combination check: with 128-bit coefficients
    ``a_i``, one multiplication tests
    ``(sum a_i*s_i)*G - sum (a_i*e_i)*P_i - sum a_i*R_i == 0``, which a
    batch containing a forgery passes with probability 2^-128.  The
    coefficients are hashed from the whole batch rather than sampled, so
    a run stays a function of its seed.  ``False`` says only that *some*
    item fails; callers fall back to :func:`verify` to learn which.
    """
    if not all(_well_formed(public, signature) for public, _, signature in items):
        return False
    batch_tag = hash_domain(
        "schnorr/batch",
        *[
            field
            for public, message, signature in items
            for field in (public.encode(), message, signature.encode())
        ],
    )
    generator_scalar = 0
    terms: List[Tuple[int, ec.Point]] = []
    for position, (public, message, signature) in enumerate(items):
        coefficient = 1 + (
            hash_to_int("schnorr/batch-coefficient", batch_tag, encode_uint(position))
            >> 128
        )
        challenge = _challenge(signature.nonce_point, public, message)
        generator_scalar += coefficient * signature.response
        terms.append((-coefficient * challenge, public))
        # Negate the point, not the scalar, so R's scalar stays 128-bit.
        terms.append((coefficient, -signature.nonce_point))
    terms.append((generator_scalar, ec.GENERATOR))
    return ec.multi_scalar_mult(terms).is_identity()
