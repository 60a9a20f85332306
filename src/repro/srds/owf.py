"""SRDS from one-way functions in the trusted-PKI model (Thm 2.7).

The "sortition" construction: during trusted key generation each virtual
party tosses a biased coin.  With probability ``rho ~ polylog(n)/n`` it
receives a *real* one-time signing key and can sign; otherwise it
receives an *obliviously sampled* verification key with no signing key.
Because oblivious keys are indistinguishable from real ones, an
adversary that corrupts after seeing the bulletin board still hits
signers only at its proportional rate — so among the hidden signer set,
the honest fraction is preserved.

Aggregation is concatenation (with deduplication by index);
verification counts how many distinct, index-valid one-time signatures
on the message the aggregate contains and accepts at half the *expected*
signer count.  Everything is polylog-sized because only ~polylog parties
can sign at all.

The one-time signature scheme is pluggable through
:class:`repro.srds.ots.OneTimeSignatureScheme`: the paper's Lamport
instantiation is the default; Winternitz (w = 4) shrinks aggregates
about eightfold (the E8-adjacent size ablation measures this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    MALFORMED_INPUT_ERRORS,
    ConfigurationError,
    SignatureError,
)
from repro.obs.spans import span
from repro.params import ceil_log2
from repro.pki.registry import PKIMode
from repro.srds.base import (
    PublicParameters,
    SRDSScheme,
    SRDSSignature,
    ensure_same_message_space,
)
from repro.srds.ots import LamportOts, OneTimeSignatureScheme
from repro.utils.serialization import (
    decode_bytes,
    decode_uint,
    encode_bytes,
    encode_once,
    encode_uint,
)


@encode_once
@dataclass(frozen=True)
class OwfBaseSignature(SRDSSignature):
    """A base signature: one virtual index plus its OTS signature bytes."""

    index: int
    ots_signature: bytes

    @property
    def min_index(self) -> int:
        return self.index

    @property
    def max_index(self) -> int:
        return self.index

    def _base_marker(self) -> bool:
        return True

    def encode(self) -> bytes:
        return encode_uint(self.index) + encode_bytes(self.ots_signature)


@encode_once
@dataclass(frozen=True)
class OwfAggregateSignature(SRDSSignature):
    """An aggregated signature: the sorted multiset of base signatures.

    Size is ``O(signers * |ots sig|) = polylog(n) * poly(kappa)`` —
    succinct in the paper's Õ(1) sense because the signer set itself is
    polylog.
    """

    contributions: Tuple[OwfBaseSignature, ...]

    @property
    def min_index(self) -> int:
        if not self.contributions:
            raise SignatureError("empty aggregate has no index range")
        return self.contributions[0].index

    @property
    def max_index(self) -> int:
        if not self.contributions:
            raise SignatureError("empty aggregate has no index range")
        return self.contributions[-1].index

    def encode(self) -> bytes:
        body = b"".join(c.encode() for c in self.contributions)
        return encode_uint(len(self.contributions)) + body


class OwfSRDS(SRDSScheme):
    """The OWF + trusted-PKI SRDS construction (Thm 2.7)."""

    name = "srds-owf-sortition"
    pki_mode = PKIMode.TRUSTED
    assumptions = "owf"
    needs_crs = False

    def __init__(
        self,
        sortition_factor: int = 4,
        message_bits: Optional[int] = None,
        ots: Optional[OneTimeSignatureScheme] = None,
    ) -> None:
        if sortition_factor < 1:
            raise ConfigurationError("sortition_factor must be positive")
        if ots is not None and message_bits is not None:
            raise ConfigurationError(
                "pass either an OTS instance or message_bits, not both"
            )
        if ots is None:
            ots = LamportOts(
                message_bits if message_bits is not None else 128
            )
        self.sortition_factor = sortition_factor
        self.ots = ots
        # Base-signature verification is deterministic, and in pi_ba the
        # same signature is re-checked by every committee member on its
        # path; memoizing is purely an optimization.
        self._verify_cache: Dict[Tuple[int, bytes, bytes], bool] = {}

    # -- Def. 2.1 algorithms ---------------------------------------------------

    def setup(self, num_parties: int, rng) -> PublicParameters:
        """Fix the sortition rate and acceptance threshold.

        The expected signer count is ``sortition_factor * log^2 n``
        (the paper's polylog(n)); the acceptance threshold is half of it,
        which separates the honest floor (> 2/3 of signers, minus
        concentration slack) from the adversarial ceiling (< 1/3 plus
        slack) for any beta < 1/3 with large enough committees.
        """
        if num_parties < 2:
            raise ConfigurationError("need at least 2 parties")
        log_n = ceil_log2(num_parties)
        expected_signers = min(num_parties, self.sortition_factor * log_n * log_n)
        signer_probability = expected_signers / num_parties
        return PublicParameters(
            num_parties=num_parties,
            security_bits=self.ots.signature_bytes() * 8,
            acceptance_threshold=max(1, expected_signers // 2),
            extra={
                "signer_probability": signer_probability,
                "expected_signers": expected_signers,
                "ots_name": self.ots.name,
            },
        )

    def keygen(self, pp: PublicParameters, rng) -> Tuple[bytes, object]:
        """Trusted keygen: biased coin decides real vs oblivious key.

        This runs inside the trusted setup (public-coin in the weak sense
        of §1.2 — each party learns its own sampling coins).  The
        bulletin-board entry is an OTS verification key either way, so
        the board leaks nothing about who can sign.
        """
        probability = float(pp.extra["signer_probability"])
        seed = rng.random_bytes(32)
        if rng.bernoulli(probability):
            return self.ots.keygen_from_seed(seed)
        return self.ots.oblivious_keygen(seed), None

    def sign(
        self,
        pp: PublicParameters,
        index: int,
        signing_key: object,
        message: bytes,
    ) -> Optional[OwfBaseSignature]:
        """Sign if this virtual identity holds a real signing key."""
        message = ensure_same_message_space(message)
        if signing_key is None:
            return None
        return OwfBaseSignature(
            index=index,
            ots_signature=self.ots.sign(signing_key, message),
        )

    def aggregate1(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signatures: Sequence[SRDSSignature],
    ) -> List[SRDSSignature]:
        """Deterministic filter: flatten, verify each base signature
        against its published key, and dedupe by index (the anti-replay
        rule — the same base signature must not count twice)."""
        with span("srds-aggregate1", scheme="owf"):
            message = ensure_same_message_space(message)
            seen: Dict[int, OwfBaseSignature] = {}
            for signature in signatures:
                for base in _flatten(signature):
                    if base.index in seen:
                        continue
                    key_bytes = verification_keys.get(base.index)
                    if key_bytes is None:
                        continue
                    cache_key = (base.index, message, base.ots_signature)
                    valid = self._verify_cache.get(cache_key)
                    if valid is None:
                        valid = self.ots.verify(
                            key_bytes, message, base.ots_signature
                        )
                        self._verify_cache[cache_key] = valid
                    if valid:
                        seen[base.index] = base
            return [seen[index] for index in sorted(seen)]

    def aggregate2(
        self,
        pp: PublicParameters,
        message: bytes,
        filtered: Sequence[SRDSSignature],
    ) -> Optional[OwfAggregateSignature]:
        """Succinct combiner: sorted concatenation (no keys consulted)."""
        with span("srds-aggregate2", scheme="owf"):
            bases: Dict[int, OwfBaseSignature] = {}
            for signature in filtered:
                for base in _flatten(signature):
                    bases.setdefault(base.index, base)
            if not bases:
                return None
            ordered = tuple(bases[index] for index in sorted(bases))
            return OwfAggregateSignature(contributions=ordered)

    def verify(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signature: SRDSSignature,
    ) -> bool:
        """Count distinct valid base signatures; accept at threshold."""
        message = ensure_same_message_space(message)
        valid = self.aggregate1(pp, verification_keys, message, [signature])
        return len(valid) >= pp.acceptance_threshold


def _flatten(signature: SRDSSignature) -> List[OwfBaseSignature]:
    """Expand base/aggregate signatures into their base contributions."""
    if isinstance(signature, OwfBaseSignature):
        return [signature]
    if isinstance(signature, OwfAggregateSignature):
        return list(signature.contributions)
    raise SignatureError(
        f"foreign signature type {type(signature).__name__} in OWF SRDS"
    )


def decode_signature(data: bytes) -> SRDSSignature:
    """Decode either a base or aggregate OWF-SRDS signature.

    Aggregates are encoded as a count followed by base records; a base
    signature alone is (index, ots-sig bytes).  The two are
    distinguished by attempting the aggregate framing first (its count
    prefix must be followed by exactly that many base records).
    """
    try:
        count, pos = decode_uint(data, 0)
        bases: List[OwfBaseSignature] = []
        for _ in range(count):
            index, pos = decode_uint(data, pos)
            sig_bytes, pos = decode_bytes(data, pos)
            bases.append(
                OwfBaseSignature(index=index, ots_signature=sig_bytes)
            )
        if pos == len(data) and bases:
            return OwfAggregateSignature(contributions=tuple(bases))
    except MALFORMED_INPUT_ERRORS:
        pass
    index, pos = decode_uint(data, 0)
    sig_bytes, pos = decode_bytes(data, pos)
    if pos != len(data):
        raise SignatureError("trailing bytes in OWF-SRDS signature")
    return OwfBaseSignature(index=index, ots_signature=sig_bytes)
