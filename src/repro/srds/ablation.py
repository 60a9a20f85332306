"""Deliberately weakened SRDS variants for the ablation experiments.

DESIGN.md (§5) calls out two load-bearing design choices and this module
removes each so the ablation benchmarks can demonstrate the attacks they
prevent actually working:

* :class:`NoRangeCheckSnarkSRDS` — the anti-double-counting discipline
  (index dedup, disjoint ranges, planar min/max checks of §2.2/Fig. 3)
  stripped from the SNARK construction (E7);
* :class:`RevealingOwfSRDS` — *oblivious key generation* stripped from
  the sortition construction: verification keys carry a visible signer
  flag, so a setup-adaptive adversary (the paper's corruption model!)
  simply corrupts the signers and starves the threshold (E12).

**These schemes are insecure by construction.  Never use them outside
the ablation experiments.**
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.crypto.hashing import hash_chain, hash_domain
from repro.crypto.snark import SnarkSystem
from repro.errors import MALFORMED_INPUT_ERRORS
from repro.srds.base import PublicParameters, SRDSSignature
from repro.srds.snark_based import (
    SnarkAggregateSignature,
    SnarkSRDS,
    _CHAIN_DOMAIN,
    _INTERNAL_RELATION,
    _LEAF_RELATION,
    _cached_vk_tree,
    _leaf_and_child_parts,
)
from repro.utils.serialization import canonical_tuple, encode_sequence


class NoRangeCheckSnarkSRDS(SnarkSRDS):
    """The SNARK-based SRDS with the disjoint-range discipline removed.

    ``aggregate1`` keeps *all* valid child aggregates (no greedy
    disjoint-range filter, no containment dropping), and ``aggregate2``
    combines them with an internal relation that does not check range
    disjointness.  The replay-forgery adversary then double-counts its
    coalition at every aggregation level and sails past the majority
    threshold — E7 measures exactly that.
    """

    name = "srds-snark-pcd (ranges DISABLED — ablation only)"

    def setup(self, num_parties: int, rng) -> PublicParameters:
        pp = super().setup(num_parties, rng)
        snark_system: SnarkSystem = pp.extra["snark"]

        def lax_internal(statement: bytes, witness: bytes) -> bool:
            return _check_internal_no_ranges(statement, witness, snark_system)

        snark_system.register_relation(_LAX_INTERNAL, lax_internal)
        return pp

    def aggregate1(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signatures: Sequence[SRDSSignature],
    ) -> List[object]:
        """Filter validity only; keep overlapping aggregates (the bug)."""
        snark_system: SnarkSystem = pp.extra["snark"]
        tree = _cached_vk_tree(pp, verification_keys)
        message_tag = hash_domain("srds/message-tag", message)
        bases: List[SRDSSignature] = []
        aggregates: List[SnarkAggregateSignature] = []
        for signature in signatures:
            if isinstance(signature, SnarkAggregateSignature):
                if signature.vk_root != tree.root:
                    continue
                if signature.message_tag != message_tag:
                    continue
                statement = signature.statement(message)
                if (
                    snark_system.verify(_LEAF_RELATION, statement, signature.proof)
                    or snark_system.verify(_INTERNAL_RELATION, statement,
                                           signature.proof)
                    or snark_system.verify(_LAX_INTERNAL, statement,
                                           signature.proof)
                ):
                    aggregates.append(signature)
            else:
                bases.append(signature)
        # Base signatures still go through the honest path, on their own
        # (beside an aggregate they would be dropped for containment):
        # certified survivors and the one opening over their indices.
        return (
            super().aggregate1(pp, verification_keys, message, bases)
            + aggregates
        )

    def aggregate2(
        self,
        pp: PublicParameters,
        message: bytes,
        filtered: Sequence[object],
    ) -> Optional[SnarkAggregateSignature]:
        snark_system: SnarkSystem = pp.extra["snark"]
        message_tag = hash_domain("srds/message-tag", message)
        parts = _leaf_and_child_parts(
            snark_system, message, message_tag, filtered
        )
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        # Combine WITHOUT sorting-by-disjoint-range requirements.
        digest = hash_chain(_CHAIN_DOMAIN, (part.digest for part in parts))
        count = sum(part.count for part in parts)  # double-counting allowed!
        lo = min(part.lo for part in parts)
        hi = max(part.hi for part in parts)
        from repro.srds.snark_based import _statement

        statement = _statement(message, count, lo, hi, digest, parts[0].vk_root)
        witness = encode_sequence(
            [canonical_tuple(part.encode(), message) for part in parts]
        )
        proof = snark_system.prove(_LAX_INTERNAL, statement, witness)
        return SnarkAggregateSignature(
            count=count,
            lo=lo,
            hi=hi,
            digest=digest,
            vk_root=parts[0].vk_root,
            message_tag=message_tag,
            proof=proof,
        )

    def verify(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signature: SRDSSignature,
    ) -> bool:
        if not isinstance(signature, SnarkAggregateSignature):
            return False
        snark_system: SnarkSystem = pp.extra["snark"]
        tree = _cached_vk_tree(pp, verification_keys)
        if signature.vk_root != tree.root:
            return False
        if signature.message_tag != hash_domain("srds/message-tag", message):
            return False
        statement = signature.statement(message)
        proof_ok = (
            snark_system.verify(_LEAF_RELATION, statement, signature.proof)
            or snark_system.verify(_INTERNAL_RELATION, statement, signature.proof)
            or snark_system.verify(_LAX_INTERNAL, statement, signature.proof)
        )
        return proof_ok and signature.count >= pp.acceptance_threshold


_LAX_INTERNAL = "srds/internal-sum-NO-RANGES"


def _check_internal_no_ranges(
    statement: bytes, witness: bytes, snark_system: SnarkSystem
) -> bool:
    """The internal relation minus the disjointness check (the ablation)."""
    from repro.srds.snark_based import _decode_statement, decode_aggregate
    from repro.utils.serialization import decode_sequence

    try:
        message, count, lo, hi, digest, vk_root = _decode_statement(statement)
        encoded_children, _ = decode_sequence(witness, 0)
    except MALFORMED_INPUT_ERRORS:
        return False
    if not encoded_children:
        return False
    children = []
    for blob in encoded_children:
        try:
            fields, _ = decode_sequence(blob, 0)
            child_blob, child_message = fields
            child = decode_aggregate(child_blob)
        except MALFORMED_INPUT_ERRORS:
            return False
        if child_message != message or child.vk_root != vk_root:
            return False
        child_statement = child.statement(message)
        if not (
            snark_system.verify(_LEAF_RELATION, child_statement, child.proof)
            or snark_system.verify(_INTERNAL_RELATION, child_statement,
                                   child.proof)
            or snark_system.verify(_LAX_INTERNAL, child_statement, child.proof)
        ):
            return False
        children.append(child)
    # NOTE: no pairwise-disjointness check — the whole point.
    if sum(child.count for child in children) != count:
        return False
    return hash_chain(_CHAIN_DOMAIN, (c.digest for c in children)) == digest


class RevealingOwfSRDS:
    """The sortition SRDS with oblivious keygen removed (E12 ablation).

    Identical to :class:`repro.srds.owf.OwfSRDS` except that every
    published verification key is prefixed with a flag byte announcing
    whether a signing key exists behind it.  Everything still *works*
    when corruption is random — but the paper's model lets the adversary
    corrupt **after seeing the bulletin board**, and against that
    adversary the scheme collapses: corrupting the flagged signers (well
    within the beta*n budget, since there are only polylog of them)
    removes every honest signature and robustness dies.

    Implemented by delegation rather than inheritance so the flag byte
    handling stays in one visible place.
    """

    name = "srds-owf-sortition (signer flag LEAKED — ablation only)"

    def __init__(self, **owf_kwargs) -> None:
        from repro.srds.owf import OwfSRDS

        self._inner = OwfSRDS(**owf_kwargs)
        self.pki_mode = self._inner.pki_mode
        self.assumptions = self._inner.assumptions
        self.needs_crs = self._inner.needs_crs

    def setup(self, num_parties, rng):
        return self._inner.setup(num_parties, rng)

    def keygen(self, pp, rng):
        vk, sk = self._inner.keygen(pp, rng)
        flag = b"\x01" if sk is not None else b"\x00"
        return flag + vk, sk

    @staticmethod
    def is_flagged_signer(verification_key: bytes) -> bool:
        """What the setup-adaptive adversary reads off the board."""
        return bool(verification_key) and verification_key[0] == 1

    def _strip(self, verification_keys):
        return {
            index: key[1:] for index, key in verification_keys.items()
        }

    def sign(self, pp, index, signing_key, message):
        return self._inner.sign(pp, index, signing_key, message)

    def aggregate1(self, pp, verification_keys, message, signatures):
        return self._inner.aggregate1(
            pp, self._strip(verification_keys), message, signatures
        )

    def aggregate2(self, pp, message, filtered):
        return self._inner.aggregate2(pp, message, filtered)

    def aggregate(self, pp, verification_keys, message, signatures):
        return self._inner.aggregate(
            pp, self._strip(verification_keys), message, signatures
        )

    def verify(self, pp, verification_keys, message, signature):
        return self._inner.verify(
            pp, self._strip(verification_keys), message, signature
        )

    def describe(self):
        return {
            "scheme": self.name,
            "setup": self.pki_mode.value,
            "assumptions": self.assumptions,
        }
