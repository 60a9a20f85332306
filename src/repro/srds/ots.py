"""One-time-signature adapters for the OWF-based SRDS.

Thm 2.7 needs any OWF-based signature scheme with *oblivious key
generation*; the paper instantiates it with Lamport.  This adapter layer
makes the choice pluggable so the W-OTS optimization (≈8x smaller
signatures at w=4) slots into the same construction, with the E8-style
size ablation comparing them.

The adapter speaks bytes at the boundary (keys and signatures are opaque
byte strings to the SRDS layer), keeping :mod:`repro.srds.owf` scheme
agnostic.
"""

from __future__ import annotations

import abc
from typing import Tuple

from repro.crypto import lamport, winternitz
from repro.errors import MALFORMED_INPUT_ERRORS


class OneTimeSignatureScheme(abc.ABC):
    """The surface the sortition SRDS needs from its OTS."""

    name: str = "abstract-ots"

    @abc.abstractmethod
    def keygen_from_seed(self, seed: bytes) -> Tuple[bytes, object]:
        """Deterministic key pair: (verification-key bytes, signing handle)."""

    @abc.abstractmethod
    def oblivious_keygen(self, seed: bytes) -> bytes:
        """A verification key with no corresponding signing key."""

    @abc.abstractmethod
    def sign(self, signing_key: object, message: bytes) -> bytes:
        """Sign; returns signature bytes."""

    @abc.abstractmethod
    def verify(self, verification_key: bytes, message: bytes,
               signature: bytes) -> bool:
        """Verify; False on any failure."""

    @abc.abstractmethod
    def signature_bytes(self) -> int:
        """Fixed wire size of one signature."""

    @abc.abstractmethod
    def verification_key_bytes(self) -> int:
        """Fixed wire size of one verification key."""


class LamportOts(OneTimeSignatureScheme):
    """The paper's instantiation: Lamport over SHA-256."""

    name = "lamport"

    def __init__(self, message_bits: int = lamport.DEFAULT_MESSAGE_BITS) -> None:
        self.message_bits = message_bits

    def keygen_from_seed(self, seed: bytes) -> Tuple[bytes, object]:
        vk, sk = lamport.keygen_from_seed(seed, self.message_bits)
        return vk.encode(), sk

    def oblivious_keygen(self, seed: bytes) -> bytes:
        return lamport.oblivious_keygen(seed, self.message_bits).encode()

    def sign(self, signing_key: object, message: bytes) -> bytes:
        return lamport.sign(signing_key, message).encode()

    def verify(self, verification_key: bytes, message: bytes,
               signature: bytes) -> bool:
        return lamport.verify_encoded(
            verification_key, message, signature, self.message_bits
        )

    def signature_bytes(self) -> int:
        return 32 * self.message_bits

    def verification_key_bytes(self) -> int:
        return 64 * self.message_bits


class WinternitzOts(OneTimeSignatureScheme):
    """W-OTS: ~w-fold smaller signatures, more hashing per operation."""

    name = "winternitz"

    def __init__(
        self,
        message_bits: int = winternitz.DEFAULT_MESSAGE_BITS,
        w: int = winternitz.DEFAULT_W,
    ) -> None:
        self.message_bits = message_bits
        self.w = w
        _, _, self._total_chunks = winternitz._parameters(message_bits, w)

    def keygen_from_seed(self, seed: bytes) -> Tuple[bytes, object]:
        vk, sk = winternitz.keygen_from_seed(seed, self.message_bits, self.w)
        return vk.encode(), sk

    def oblivious_keygen(self, seed: bytes) -> bytes:
        return winternitz.oblivious_keygen(
            seed, self.message_bits, self.w
        ).encode()

    def sign(self, signing_key: object, message: bytes) -> bytes:
        return winternitz.sign(signing_key, message).encode()

    def verify(self, verification_key: bytes, message: bytes,
               signature: bytes) -> bool:
        try:
            vk = winternitz.decode_verification_key(
                verification_key, self.message_bits, self.w
            )
            sig = winternitz.decode_signature(
                signature, self.message_bits, self.w
            )
        except MALFORMED_INPUT_ERRORS:
            return False
        return winternitz.verify(vk, message, sig)

    def signature_bytes(self) -> int:
        return 32 * self._total_chunks

    def verification_key_bytes(self) -> int:
        return 32 * self._total_chunks
