"""Pluggable base-signature schemes for the SNARK-based SRDS.

Thm 2.8 only needs an EUF-CMA signature scheme for the per-party "base"
signatures; the construction is black-box in it.  Two implementations:

* :class:`SchnorrBase` — real Schnorr over secp256k1 (the default; used
  by tests, examples, and moderate-n benchmarks).
* :class:`HashRegistryBase` — a *simulated* designated-verifier scheme
  (HMAC tags checked via a registry held by the scheme object).  It is
  sound against the modeled adversaries, runs three orders of magnitude
  faster, and is offered **only** so large-n benchmark sweeps stay
  tractable; DESIGN.md records the substitution.  Communication sizes are
  realistic (32-byte keys/signatures, like BLS).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import ec, schnorr
from repro.crypto.prf import prf
from repro.errors import MALFORMED_INPUT_ERRORS, KeyError_


class BaseSignatureScheme(abc.ABC):
    """An ordinary signature scheme: keygen / sign / verify over bytes."""

    name: str = "abstract"

    @abc.abstractmethod
    def keygen(self, rng) -> Tuple[bytes, object]:
        """Generate ``(verification_key_bytes, signing_handle)``."""

    @abc.abstractmethod
    def sign(self, signing_key: object, message: bytes) -> bytes:
        """Sign; returns signature bytes."""

    @abc.abstractmethod
    def verify(self, verification_key: bytes, message: bytes,
               signature: bytes) -> bool:
        """Verify; False on any failure, never raises for bad inputs."""

    def verify_many(
        self, items: Sequence[Tuple[bytes, bytes, bytes]]
    ) -> List[bool]:
        """``[verify(key, message, signature) for ... in items]``; schemes
        with a cheaper batch check override this, never the verdicts."""
        return [
            self.verify(key, message, signature)
            for key, message, signature in items
        ]


class SchnorrBase(BaseSignatureScheme):
    """Schnorr over secp256k1 (real public-key cryptography).

    Verification results are memoized: pi_ba re-checks each base
    signature once per committee member on its aggregation path, and
    Schnorr verification (a two-term multi-scalar multiplication in pure
    Python) is by far the most expensive operation in a run.
    """

    name = "schnorr-secp256k1"

    def __init__(self) -> None:
        self._verify_cache: Dict[Tuple[bytes, bytes, bytes], bool] = {}

    def keygen(self, rng) -> Tuple[bytes, object]:
        keypair = schnorr.keygen(rng)
        return keypair.public_bytes, keypair

    def sign(self, signing_key: object, message: bytes) -> bytes:
        if not isinstance(signing_key, schnorr.SchnorrKeyPair):
            raise KeyError_("wrong signing-key type for SchnorrBase")
        return schnorr.sign(signing_key, message).encode()

    def verify(self, verification_key: bytes, message: bytes,
               signature: bytes) -> bool:
        return self.verify_many([(verification_key, message, signature)])[0]

    def verify_many(
        self, items: Sequence[Tuple[bytes, bytes, bytes]]
    ) -> List[bool]:
        """Batch verification: the items no earlier call settled share one
        random-linear-combination check (:func:`schnorr.verify_batch`);
        only if it fails is each of them verified on its own."""
        cache = self._verify_cache
        keys = [tuple(item) for item in items]
        pending: Dict[Tuple[bytes, bytes, bytes], schnorr.BatchItem] = {}
        for item in keys:
            if item in cache or item in pending:
                continue
            decoded = self._decode(*item)
            if decoded is None:
                cache[item] = False
            else:
                pending[item] = decoded
        if len(pending) > 1 and schnorr.verify_batch(list(pending.values())):
            cache.update(dict.fromkeys(pending, True))
        else:
            for item, decoded in pending.items():
                cache[item] = schnorr.verify(*decoded)
        return [cache[item] for item in keys]

    @staticmethod
    def _decode(verification_key: bytes, message: bytes,
                signature: bytes) -> Optional[schnorr.BatchItem]:
        try:
            return (
                ec.decode_point(verification_key),
                message,
                schnorr.SchnorrSignature.decode(signature),
            )
        except MALFORMED_INPUT_ERRORS:
            return None


class HashRegistryBase(BaseSignatureScheme):
    """Simulated designated-verifier signatures (benchmark accelerator).

    ``keygen`` returns ``vk = PRF(sk, "vk")`` and records ``vk -> sk`` in
    a registry held by this object; ``verify`` recomputes the HMAC tag
    using the registered secret.  A modeled adversary without a party's
    ``sk`` cannot produce a valid tag (HMAC unforgeability), and key
    replacement in the bare-PKI game works naturally — the adversary
    registers its own (vk, sk).
    """

    name = "hash-registry (simulated)"

    def __init__(self) -> None:
        self._registry: Dict[bytes, bytes] = {}

    def keygen(self, rng) -> Tuple[bytes, object]:
        secret = rng.random_bytes(32)
        verification_key = prf(secret, "hash-registry/vk")
        self._registry[verification_key] = secret
        return verification_key, secret

    def sign(self, signing_key: object, message: bytes) -> bytes:
        if not isinstance(signing_key, bytes):
            raise KeyError_("wrong signing-key type for HashRegistryBase")
        return prf(signing_key, "hash-registry/sig", message)

    def verify(self, verification_key: bytes, message: bytes,
               signature: bytes) -> bool:
        secret = self._registry.get(verification_key)
        if secret is None:
            return False
        return prf(secret, "hash-registry/sig", message) == signature
