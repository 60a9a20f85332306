"""SRDS from CRH + SNARKs in the bare-PKI + CRS model (Thm 2.8).

The recursive-counting construction: every party signs with an ordinary
signature; leaf committees count the distinct valid base signatures in
their index range and emit ``(count, min, max, chain-digest)`` together
with a succinct PCD proof that the count is honest; internal nodes verify
their children's proofs, check the children's index ranges are pairwise
disjoint (the CRH-backed anti-double-counting device of §2.2), add the
counts, and emit a new proof.  The final aggregate is constant-size and
verification is count >= majority.

Two circuits are registered with the (simulated) SNARK system; each
outputs the statement it proves about the message:

* ``leaf``: "I know ``count`` base signatures with distinct indices in
  ``[min, max]``, each valid under the verification key committed at its
  index in the vk Merkle root carried by the statement, chaining to the
  statement's digest."  The keys are authenticated by *one* batch
  opening of the commitment for the whole batch, not a path per
  signature: the paths of one leaf's contiguous virtual ids share almost
  every node, and the opening carries each node once.
* ``internal``: "I know child aggregates with verifying proofs, the same
  message and vk root, pairwise-disjoint index ranges, whose counts sum
  to ``count`` and whose digests chain to the statement's digest" —
  the counting skeleton's relation (:mod:`repro.srds.pcd`), shared with
  the registered-PKI scheme; its accumulator here is the CRH chain.

The proofs compose recursively (PCD); soundness is inherited from the
argument system, and the disjoint-range discipline makes the total count
an upper bound on the number of *distinct* base contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashing import domain_hasher, hash_chain, hash_domain
from repro.crypto.merkle import (
    MerkleMultiProof,
    MerkleTree,
    root_from_multiproof,
)
from repro.crypto.snark import Proof, SnarkSystem
from repro.errors import (
    MALFORMED_INPUT_ERRORS,
    ConfigurationError,
    CryptoError,
    SignatureError,
)
from repro.obs.spans import span
from repro.pki.registry import PKIMode
from repro.srds import pcd
from repro.srds.base import (
    PublicParameters,
    SRDSScheme,
    SRDSSignature,
    ensure_same_message_space,
)
from repro.srds.base_sigs import BaseSignatureScheme, SchnorrBase
from repro.utils.serialization import (
    canonical_tuple,
    decode_bytes,
    decode_sequence,
    decode_uint,
    encode_bytes,
    encode_once,
    encode_sequence,
    encode_uint,
)

_LEAF_RELATION = "srds/leaf-count"
_INTERNAL_RELATION = "srds/internal-sum"
_VK_LEAF_DOMAIN = "srds/vk-leaf"
_CHAIN_DOMAIN = "srds/contribution-chain"

#: (encoded index, verification key) -> leaf of the vk commitment.
_vk_leaf_hash = domain_hasher(_VK_LEAF_DOMAIN, trailing=2)
#: (encoded index, signature bytes) -> the digest chained into a leaf
#: aggregate; the signer's method and the Aggregate2 circuit share it.
_contribution_hash = domain_hasher(_CHAIN_DOMAIN, trailing=2)


@encode_once
@dataclass(frozen=True)
class SnarkBaseSignature(SRDSSignature):
    """A base signature: (virtual index, base-scheme signature bytes)."""

    index: int
    signature_bytes: bytes

    @property
    def min_index(self) -> int:
        return self.index

    @property
    def max_index(self) -> int:
        return self.index

    def _base_marker(self) -> bool:
        return True

    def encode(self) -> bytes:
        return encode_uint(self.index) + encode_bytes(self.signature_bytes)

    def contribution_digest(self) -> bytes:
        """The per-contribution digest chained into leaf aggregates."""
        return _contribution_hash(encode_uint(self.index), self.signature_bytes)


@encode_once
@dataclass(frozen=True)
class CertifiedBaseSignature:
    """A base signature enriched by Aggregate1 with its verification key.

    Together with the batch opening Aggregate1 emits beside its
    survivors (one :class:`~repro.crypto.merkle.MerkleMultiProof` over
    exactly their indices), this lets the (polylog-sized) Aggregate2
    circuit check every key against the vk-vector commitment without
    touching all n keys — exactly why Def. 2.2 splits aggregation in two.
    """

    base: SnarkBaseSignature
    verification_key: bytes

    def encode(self) -> bytes:
        return canonical_tuple(self.base.encode(), self.verification_key)


@encode_once
@dataclass(frozen=True)
class SnarkAggregateSignature(pcd.CountAggregate):
    """A constant-size aggregate: statement fields plus one PCD proof."""

    count: int
    lo: int
    hi: int
    digest: bytes    # CRH chain over contributions / child digests
    vk_root: bytes   # Merkle root of the verification-key vector
    message_tag: bytes
    proof: Proof

    accumulator = property(attrgetter("digest"))
    board = property(attrgetter("vk_root"))
    message_binding = property(attrgetter("message_tag"))

    def encode(self) -> bytes:
        return canonical_tuple(
            encode_uint(self.count),
            encode_uint(self.lo),
            encode_uint(self.hi),
            self.digest,
            self.vk_root,
            self.message_tag,
            self.proof.encode(),
        )


def _vk_leaf(index: int, verification_key: bytes) -> bytes:
    """Leaf ``index`` of the vk commitment: binds the key to its index."""
    return _vk_leaf_hash(encode_uint(index), verification_key)


def vk_merkle_tree(verification_keys: Dict[int, bytes],
                   num_parties: int) -> MerkleTree:
    """The commitment to the full vk vector, ordered by virtual index.

    Unregistered indices commit to an empty key, so the root is defined
    for any bulletin-board state.
    """
    return MerkleTree([
        _vk_leaf(index, verification_keys.get(index, b""))
        for index in range(num_parties)
    ])


#: The accumulator: a CRH chain over contributions / child digests.
_chain = partial(hash_chain, _CHAIN_DOMAIN)


def decode_aggregate(data: bytes) -> SnarkAggregateSignature:
    """Decode a :class:`SnarkAggregateSignature` from its wire form."""
    return SnarkAggregateSignature(
        *pcd.decode_wire_fields(data, _LEAF_RELATION)
    )


def _vk_tree(
    pp: PublicParameters, verification_keys: Dict[int, bytes]
) -> MerkleTree:
    """The vk commitment of the run's bulletin board (cached on ``pp``)."""
    return pcd.board_binding(
        pp, verification_keys,
        lambda keys: vk_merkle_tree(keys, pp.num_parties),
    )


class SnarkSRDS(SRDSScheme):
    """The CRH + SNARK + bare-PKI SRDS construction (Thm 2.8)."""

    name = "srds-snark-pcd"
    pki_mode = PKIMode.BARE
    assumptions = "snarks*+crh"
    needs_crs = True

    #: What this scheme plugs into the counting skeleton.
    certificate = pcd.Certificate(
        leaf=_LEAF_RELATION,
        internal=_INTERNAL_RELATION,
        aggregate=SnarkAggregateSignature,
        decode=decode_aggregate,
        fold=_chain,
    )

    def __init__(self, base_scheme: Optional[BaseSignatureScheme] = None) -> None:
        self.base_scheme = base_scheme if base_scheme is not None else SchnorrBase()

    # -- Def. 2.1 algorithms ---------------------------------------------------

    def setup(self, num_parties: int, rng) -> PublicParameters:
        """Sample the CRS and register the two PCD circuits."""
        if num_parties < 2:
            raise ConfigurationError("need at least 2 parties")
        snark_system = SnarkSystem(crs_seed=rng.random_bytes(32))
        certificate = self.certificate
        snark_system.register_circuit(certificate.leaf, partial(
            _leaf_circuit,
            base_scheme=self.base_scheme, num_parties=num_parties,
        ))
        snark_system.register_circuit(certificate.internal, partial(
            pcd.internal_circuit, snark_system, certificate
        ))
        return PublicParameters(
            num_parties=num_parties,
            security_bits=256,
            acceptance_threshold=num_parties // 2 + 1,
            extra={"snark": snark_system, "base_scheme": self.base_scheme},
        )

    def keygen(self, pp: PublicParameters, rng) -> Tuple[bytes, object]:
        """Local key generation (bare PKI: each party runs this itself)."""
        return self.base_scheme.keygen(rng)

    def sign(
        self,
        pp: PublicParameters,
        index: int,
        signing_key: object,
        message: bytes,
    ) -> Optional[SnarkBaseSignature]:
        """Every party can sign in this construction."""
        message = ensure_same_message_space(message)
        if signing_key is None:
            return None
        return SnarkBaseSignature(
            index=index,
            signature_bytes=self.base_scheme.sign(signing_key, message),
        )

    def aggregate1(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signatures: Sequence[SRDSSignature],
    ) -> List[object]:
        """Deterministic filter.

        Base signatures are verified against the bulletin board, deduped
        by index, and enriched with their keys; child aggregates are
        checked (proof, vk root, message tag) and kept if their ranges
        can coexist disjointly.  Returns the surviving base signatures,
        then — if there are any — the one batch opening of the vk
        commitment that covers exactly their indices, then the chosen
        aggregates.
        """
        with span("srds-aggregate1", scheme="snark"):
            message = ensure_same_message_space(message)
            snark_system: SnarkSystem = pp.extra["snark"]
            tree = _vk_tree(pp, verification_keys)
            message_tag = hash_domain("srds/message-tag", message)

            candidates: List[Tuple[SnarkBaseSignature, bytes]] = []
            aggregates: List[SnarkAggregateSignature] = []
            for signature in signatures:
                if isinstance(signature, SnarkBaseSignature):
                    if not 0 <= signature.index < pp.num_parties:
                        continue
                    key = verification_keys.get(signature.index)
                    if key is None:
                        continue
                    candidates.append((signature, key))
                elif isinstance(signature, SnarkAggregateSignature):
                    if pcd.admits(snark_system, self.certificate, signature,
                                  message, message_tag, tree.root):
                        aggregates.append(signature)
                else:
                    raise SignatureError(
                        f"foreign signature type {type(signature).__name__}"
                    )

            # One batched base-signature check per node, then the first valid
            # signature per index in arrival order.
            verdicts = self.base_scheme.verify_many(
                [
                    (key, message, signature.signature_bytes)
                    for signature, key in candidates
                ]
            )
            certified: Dict[int, CertifiedBaseSignature] = {}
            for (signature, key), valid in zip(candidates, verdicts):
                if valid and signature.index not in certified:
                    certified[signature.index] = CertifiedBaseSignature(
                        base=signature, verification_key=key
                    )

            uncovered, chosen = pcd.select_disjoint(
                aggregates, certified, self.certificate.precedes
            )
            # The surviving keys are authenticated together: one opening of
            # the vk commitment over exactly their indices.
            opening = [tree.prove_many(uncovered)] if uncovered else []
            return [certified[index] for index in uncovered] + opening + chosen

    def aggregate2(
        self,
        pp: PublicParameters,
        message: bytes,
        filtered: Sequence[object],
    ) -> Optional[SnarkAggregateSignature]:
        """Succinct combiner: prove the leaf and/or internal circuit.

        Never consults the verification-key vector — key validity rides
        on the batch opening that accompanies the certified inputs.
        """
        with span("srds-aggregate2", scheme="snark"):
            message = ensure_same_message_space(message)
            snark_system: SnarkSystem = pp.extra["snark"]
            parts = _leaf_and_child_parts(
                snark_system, self.certificate, message, filtered
            )
            return pcd.combine(snark_system, self.certificate, message, parts)

    def verify(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signature: SRDSSignature,
    ) -> bool:
        """Check the PCD proof, the vk-vector binding, and the threshold."""
        message = ensure_same_message_space(message)
        return pcd.verify(
            pp, self.certificate, signature, message,
            hash_domain("srds/message-tag", message),
            _vk_tree(pp, verification_keys).root,
        )


# -- the leaf circuit and its prover ------------------------------------------


def _leaf_and_child_parts(
    snark_system: SnarkSystem,
    certificate: pcd.Certificate,
    message: bytes,
    filtered: Sequence[object],
) -> List[SnarkAggregateSignature]:
    """What Aggregate2 combines: the child aggregates of an Aggregate1
    output, plus one leaf aggregate proven over its base signatures.

    Base signatures that arrive without the opening of exactly their
    index set are not an Aggregate1 output and cannot be proven:
    :class:`SignatureError`, rather than an aggregate that quietly
    counts fewer signatures than it was handed.
    """
    parts = [f for f in filtered if isinstance(f, SnarkAggregateSignature)]
    ordered = sorted(
        (f for f in filtered if isinstance(f, CertifiedBaseSignature)),
        key=lambda c: c.base.index,
    )
    if not ordered:
        return parts
    indices = tuple(c.base.index for c in ordered)
    opening = next(
        (
            f for f in filtered
            if isinstance(f, MerkleMultiProof) and f.indices == indices
        ),
        None,
    )
    if opening is None:
        raise SignatureError(
            f"{len(ordered)} certified base signatures without the "
            "opening of exactly their indices"
        )
    # The leaf prover: base signatures in index order and the batch
    # opening of exactly their indices; the circuit derives the count,
    # the range, the chain and the opened vk root.
    parts.append(pcd.seal(
        snark_system, certificate, _LEAF_RELATION, message,
        hash_domain("srds/message-tag", message),
        encode_sequence([opening.encode()] + [c.encode() for c in ordered]),
    ))
    return parts


def _leaf_circuit(
    message: bytes,
    witness: bytes,
    base_scheme: BaseSignatureScheme,
    num_parties: int,
) -> Optional[bytes]:
    """The leaf circuit: the statement the witness proves about
    ``message``, or ``None``.  The witness is the batch opening of the
    vk commitment followed by the certified base signatures it opens, in
    index order."""
    try:
        (opening_blob, *encoded_certified), _ = decode_sequence(witness, 0)
        opening, end = MerkleMultiProof.decode(opening_blob, 0)
    except MALFORMED_INPUT_ERRORS:
        return None
    if end != len(opening_blob) or opening.leaf_count != num_parties:
        return None
    if not encoded_certified:
        return None
    indices = []
    vk_leaves = []
    contribution_digests = []
    for blob in encoded_certified:
        try:
            (base_blob, key), _ = decode_sequence(blob, 0)
            index, pos = decode_uint(base_blob, 0)
            sig_bytes, _ = decode_bytes(base_blob, pos)
        except MALFORMED_INPUT_ERRORS:
            return None
        if not base_scheme.verify(key, message, sig_bytes):
            return None
        indices.append(index)
        # Key binding: the vk must sit at `index` in the committed vector.
        vk_leaves.append(_vk_leaf(index, key))
        contribution_digests.append(
            _contribution_hash(encode_uint(index), sig_bytes)
        )
    # The opening's indices ascend strictly (its decoder refuses anything
    # else), so equality also rules out duplicates and disorder, and the
    # two endpoints bound every index.
    if tuple(indices) != opening.indices:
        return None
    try:
        opened_root = root_from_multiproof(vk_leaves, opening)
    except CryptoError:
        return None
    return pcd.encode_statement(
        message, len(indices), indices[0], indices[-1],
        _chain(contribution_digests), opened_root,
    )
