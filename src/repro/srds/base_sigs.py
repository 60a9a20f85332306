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

A scheme object settles each ``(key, message, signature)`` once: a
node's Aggregate₁ checks its base signatures in one batch, and the leaf
circuit that proves them re-asks about each — a lookup in the verdicts
the batch left behind.  Verdicts (a bounded number of them) and the
hash scheme's key schedules are per-instance scratch: a copy or a pickle
of a scheme starts without them, and no verdict outlives its scheme
object.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto import ec, schnorr
from repro.crypto.prf import KeyedPrf, prf
from repro.errors import MALFORMED_INPUT_ERRORS, KeyError_

Item = Tuple[bytes, bytes, bytes]

#: How many verdicts one scheme object keeps; past this it starts over.
#: A verdict is re-asked only between a node's Aggregate₁ and its leaf
#: proof, so the bound costs at most one node's lookups, and a scheme
#: that a long-lived process reuses (a gateway's cached setup) does not
#: grow with every decision it signs.
_VERDICT_MEMO = 1 << 14


class BaseSignatureScheme(abc.ABC):
    """An ordinary signature scheme: keygen / sign / verify over bytes.

    ``verify`` and ``verify_many`` answer from the instance's verdicts
    where they can and hand the rest to :meth:`_check_many`, the one
    method a scheme implements for verification.
    """

    name: str = "abstract"

    #: Attributes that are scratch: left out of copies and pickles, and
    #: rebuilt empty by ``__init__``.
    _SCRATCH: Tuple[str, ...] = ("_verdicts",)

    def __init__(self) -> None:
        self._verdicts: Dict[Item, bool] = {}

    def __getstate__(self) -> Dict[str, Any]:
        return {
            name: value for name, value in self.__dict__.items()
            if name not in self._SCRATCH
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__()  # type: ignore[misc]
        self.__dict__.update(state)

    @abc.abstractmethod
    def keygen(self, rng) -> Tuple[bytes, object]:
        """Generate ``(verification_key_bytes, signing_handle)``."""

    @abc.abstractmethod
    def sign(self, signing_key: object, message: bytes) -> bytes:
        """Sign; returns signature bytes."""

    @abc.abstractmethod
    def _check_many(self, items: Sequence[Item]) -> List[bool]:
        """The uncached verdicts of distinct, all-``bytes`` items."""

    def _settled(self, verification_key: bytes) -> bool:
        """Whether a verdict under this key can never change (and so may
        be kept)."""
        return True

    def verify(self, verification_key: bytes, message: bytes,
               signature: bytes) -> bool:
        """Verify; False on any failure, never raises for bad inputs."""
        try:
            return self._verdicts[(verification_key, message, signature)]
        except (KeyError, TypeError):
            return self.verify_many(
                [(verification_key, message, signature)]
            )[0]

    def verify_many(self, items: Sequence[Item]) -> List[bool]:
        """``[verify(key, message, signature) for ... in items]``: each
        item no earlier call settled is checked once, whatever the batch
        (:meth:`_check_many` sees each distinct item once)."""
        verdicts = self._verdicts
        try:
            return [verdicts[item] for item in items]
        except (KeyError, TypeError):
            pass
        found: Dict[Item, bool] = {}
        pending: List[Item] = []
        for item in items:
            try:
                if item in found:
                    continue
                verdict = verdicts.get(item)
            except TypeError:  # an unhashable field (a bytearray): no match
                continue
            if verdict is None:
                verdict = False
                if all(isinstance(field, bytes) for field in item):
                    pending.append(item)
            found[item] = verdict
        for item, valid in zip(pending, self._check_many(pending)):
            found[item] = valid
            if valid or self._settled(item[0]):
                if len(verdicts) >= _VERDICT_MEMO:
                    verdicts.clear()
                verdicts[item] = valid
        settled = []
        for item in items:
            try:
                settled.append(found.get(item, False))
            except TypeError:
                settled.append(False)
        return settled


class SchnorrBase(BaseSignatureScheme):
    """Schnorr over secp256k1 (real public-key cryptography).

    A verdict never changes, so every one is kept: Schnorr verification
    (a two-term multi-scalar multiplication in pure Python) is by far the
    most expensive operation in a run, and the leaf circuit re-asks about
    every signature its node's Aggregate₁ admitted.
    """

    name = "schnorr-secp256k1"

    def keygen(self, rng) -> Tuple[bytes, object]:
        keypair = schnorr.keygen(rng)
        return keypair.public_bytes, keypair

    def sign(self, signing_key: object, message: bytes) -> bytes:
        if not isinstance(signing_key, schnorr.SchnorrKeyPair):
            raise KeyError_("wrong signing-key type for SchnorrBase")
        return schnorr.sign(signing_key, message).encode()

    def _check_many(self, items: Sequence[Item]) -> List[bool]:
        """Batch verification: the well-formed items share one
        random-linear-combination check (:func:`schnorr.verify_batch`);
        only if it fails is each of them verified on its own."""
        decoded = [self._decode(*item) for item in items]
        batch = [entry for entry in decoded if entry is not None]
        if len(batch) > 1 and schnorr.verify_batch(batch):
            return [entry is not None for entry in decoded]
        return [
            entry is not None and schnorr.verify(*entry) for entry in decoded
        ]

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

    Each registered secret's HMAC key schedule is computed once, at
    keygen, and kept (as scratch) for its signs and verifies — up to as
    many schedules as verdicts (``_VERDICT_MEMO``: every key of a π_ba
    run to n ≈ 800; n=512 has 9 216 virtual ids, n=1 024 has 20 480).
    Past that the scheme starts over, and a key whose schedule was
    dropped is keyed again where it is used.  A verdict is kept only
    under a registered key: a key nobody has registered yet reads False
    until it is.
    """

    name = "hash-registry (simulated)"

    _SCRATCH = BaseSignatureScheme._SCRATCH + ("_macs",)

    def __init__(self) -> None:
        super().__init__()
        self._registry: Dict[bytes, bytes] = {}
        self._macs: Dict[bytes, KeyedPrf] = {}

    def _keyed(self, secret: bytes) -> KeyedPrf:
        """A new handle for ``secret``, kept within the bound."""
        macs = self._macs
        if len(macs) >= _VERDICT_MEMO:
            macs.clear()
        mac = macs[secret] = KeyedPrf(secret)
        return mac

    def keygen(self, rng) -> Tuple[bytes, object]:
        secret = rng.random_bytes(32)
        verification_key = self._keyed(secret)("hash-registry/vk")
        self._registry[verification_key] = secret
        return verification_key, secret

    def sign(self, signing_key: object, message: bytes) -> bytes:
        if not isinstance(signing_key, bytes):
            raise KeyError_("wrong signing-key type for HashRegistryBase")
        mac = self._macs.get(signing_key)
        if mac is None:
            return prf(signing_key, "hash-registry/sig", message)
        return mac("hash-registry/sig", message)

    def _settled(self, verification_key: bytes) -> bool:
        return verification_key in self._registry

    def _check_many(self, items: Sequence[Item]) -> List[bool]:
        registry, macs = self._registry, self._macs
        verdicts = []
        for verification_key, message, signature in items:
            secret = registry.get(verification_key)
            if secret is None:
                verdicts.append(False)
                continue
            mac = macs.get(secret)
            if mac is None:  # dropped, or a copy or an unpickled registry
                mac = self._keyed(secret)
            verdicts.append(mac("hash-registry/sig", message) == signature)
        return verdicts
