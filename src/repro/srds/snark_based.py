"""SRDS from CRH + SNARKs in the bare-PKI + CRS model (Thm 2.8).

The recursive-counting construction: every party signs with an ordinary
signature; leaf committees count the distinct valid base signatures in
their index range and emit ``(count, min, max, chain-digest)`` together
with a succinct PCD proof that the count is honest; internal nodes verify
their children's proofs, check the children's index ranges are pairwise
disjoint (the CRH-backed anti-double-counting device of §2.2), add the
counts, and emit a new proof.  The final aggregate is constant-size and
verification is count >= majority.

Two relations are registered with the (simulated) SNARK system:

* ``leaf``: "I know ``count`` base signatures with distinct indices in
  ``[min, max]``, each valid under the verification key committed at its
  index in the vk Merkle root carried by the statement, chaining to the
  statement's digest."  The keys are authenticated by *one* batch
  opening of the commitment for the whole batch, not a path per
  signature: the paths of one leaf's contiguous virtual ids share almost
  every node, and the opening carries each node once.
* ``internal``: "I know child aggregates with verifying proofs, the same
  message and vk root, pairwise-disjoint index ranges, whose counts sum
  to ``count`` and whose digests chain to the statement's digest."

The proofs compose recursively (PCD); soundness is inherited from the
argument system, and the disjoint-range discipline makes the total count
an upper bound on the number of *distinct* base contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashing import hash_chain, hash_domain
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
    ProofError,
    SignatureError,
)
from repro.obs.spans import span
from repro.pki.registry import PKIMode
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
        return hash_domain(
            _CHAIN_DOMAIN, encode_uint(self.index), self.signature_bytes
        )


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
class SnarkAggregateSignature(SRDSSignature):
    """A constant-size aggregate: statement fields plus one PCD proof."""

    count: int
    lo: int          # smallest contributing virtual index
    hi: int          # largest contributing virtual index
    digest: bytes    # CRH chain over contributions / child digests
    vk_root: bytes   # Merkle root of the verification-key vector
    message_tag: bytes
    proof: Proof

    @property
    def min_index(self) -> int:
        return self.lo

    @property
    def max_index(self) -> int:
        return self.hi

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

    def statement(self, message: bytes) -> bytes:
        """The PCD statement this aggregate's proof attests to."""
        return _statement(
            message, self.count, self.lo, self.hi, self.digest, self.vk_root
        )


def _statement(message: bytes, count: int, lo: int, hi: int,
               digest: bytes, vk_root: bytes) -> bytes:
    return canonical_tuple(
        message,
        encode_uint(count),
        encode_uint(lo),
        encode_uint(hi),
        digest,
        vk_root,
    )


def _vk_leaf(index: int, verification_key: bytes) -> bytes:
    """Leaf ``index`` of the vk commitment: binds the key to its index."""
    return hash_domain(_VK_LEAF_DOMAIN, encode_uint(index), verification_key)


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


def _cached_vk_tree(
    pp: PublicParameters, verification_keys: Dict[int, bytes]
) -> MerkleTree:
    """Per-run cache of the vk Merkle tree.

    Building the tree is Theta(n) hashing, and pi_ba calls Aggregate1 at
    every tree node; the bulletin board is fixed for the duration of a
    run, so the tree of the last board seen is kept on ``pp``.  The
    cache holds a snapshot of that board's contents and compares it on
    every lookup, so a *different* board — another dict, or the same
    dict after an in-place key replacement (the bare-PKI experiments do
    both) — rebuilds, whatever address it happens to live at.
    """
    cached = pp.extra.get("_vk_tree_cache")
    if cached is not None and cached[0] == verification_keys:
        return cached[1]
    tree = vk_merkle_tree(verification_keys, pp.num_parties)
    pp.extra["_vk_tree_cache"] = (dict(verification_keys), tree)
    return tree


class SnarkSRDS(SRDSScheme):
    """The CRH + SNARK + bare-PKI SRDS construction (Thm 2.8)."""

    name = "srds-snark-pcd"
    pki_mode = PKIMode.BARE
    assumptions = "snarks*+crh"
    needs_crs = True

    def __init__(self, base_scheme: Optional[BaseSignatureScheme] = None) -> None:
        self.base_scheme = base_scheme if base_scheme is not None else SchnorrBase()

    # -- Def. 2.1 algorithms ---------------------------------------------------

    def setup(self, num_parties: int, rng) -> PublicParameters:
        """Sample the CRS and register the two PCD relations."""
        if num_parties < 2:
            raise ConfigurationError("need at least 2 parties")
        snark_system = SnarkSystem(crs_seed=rng.random_bytes(32))
        base_scheme = self.base_scheme

        def leaf_relation(statement: bytes, witness: bytes) -> bool:
            return _check_leaf_relation(
                statement, witness, base_scheme, num_parties
            )

        def internal_relation(statement: bytes, witness: bytes) -> bool:
            return _check_internal_relation(statement, witness, snark_system)

        snark_system.register_relation(_LEAF_RELATION, leaf_relation)
        snark_system.register_relation(_INTERNAL_RELATION, internal_relation)
        return PublicParameters(
            num_parties=num_parties,
            security_bits=256,
            acceptance_threshold=num_parties // 2 + 1,
            extra={"snark": snark_system, "base_scheme": base_scheme},
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
        can coexist disjointly (greedy by range, which is exactly the
        planar order of the tree).  Returns the surviving base
        signatures, then — if there are any — the one batch opening of
        the vk commitment that covers exactly their indices, then the
        chosen aggregates.
        """
        with span("srds-aggregate1", scheme="snark"):
            return self._aggregate1_impl(
                pp, verification_keys, message, signatures
            )

    def _aggregate1_impl(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signatures: Sequence[SRDSSignature],
    ) -> List[object]:
        message = ensure_same_message_space(message)
        snark_system: SnarkSystem = pp.extra["snark"]
        tree = _cached_vk_tree(pp, verification_keys)
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
                if signature.vk_root != tree.root:
                    continue
                if signature.message_tag != message_tag:
                    continue
                # An aggregate may carry either relation's proof; accept
                # whichever verifies (the tag binds the relation).
                statement = signature.statement(message)
                if not (
                    snark_system.verify(_LEAF_RELATION, statement, signature.proof)
                    or snark_system.verify(
                        _INTERNAL_RELATION, statement, signature.proof
                    )
                ):
                    continue
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

        # Greedy disjoint-range selection for aggregates, largest count
        # first (deterministic tie-break by range), so overlapping
        # adversarial duplicates are filtered here rather than failing
        # Aggregate2.
        aggregates.sort(key=lambda a: (-a.count, a.lo, a.hi))
        chosen: List[SnarkAggregateSignature] = []
        for aggregate in aggregates:
            if all(
                aggregate.hi < other.lo or other.hi < aggregate.lo
                for other in chosen
            ):
                chosen.append(aggregate)
        chosen.sort(key=lambda a: a.lo)

        # Base signatures whose index collides with a chosen aggregate's
        # range are dropped (they may already be counted inside it).
        survivors = [
            certified[index]
            for index in sorted(certified)
            if all(not (agg.lo <= index <= agg.hi) for agg in chosen)
        ]
        # Their keys are authenticated together: one opening of the vk
        # commitment over exactly the surviving indices.
        opening = (
            [tree.prove_many([c.base.index for c in survivors])]
            if survivors else []
        )
        return survivors + opening + chosen

    def aggregate2(
        self,
        pp: PublicParameters,
        message: bytes,
        filtered: Sequence[object],
    ) -> Optional[SnarkAggregateSignature]:
        """Succinct combiner: prove the leaf and/or internal relation.

        Never consults the verification-key vector — key validity rides
        on the batch opening that accompanies the certified inputs.
        """
        with span("srds-aggregate2", scheme="snark"):
            return self._aggregate2_impl(pp, message, filtered)

    def _aggregate2_impl(
        self,
        pp: PublicParameters,
        message: bytes,
        filtered: Sequence[object],
    ) -> Optional[SnarkAggregateSignature]:
        message = ensure_same_message_space(message)
        snark_system: SnarkSystem = pp.extra["snark"]
        message_tag = hash_domain("srds/message-tag", message)

        parts = _leaf_and_child_parts(
            snark_system, message, message_tag, filtered
        )
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return _prove_internal(snark_system, message, message_tag, parts)

    def verify(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signature: SRDSSignature,
    ) -> bool:
        """Check the PCD proof, the vk-vector binding, and the threshold."""
        message = ensure_same_message_space(message)
        if not isinstance(signature, SnarkAggregateSignature):
            return False
        snark_system: SnarkSystem = pp.extra["snark"]
        tree = _cached_vk_tree(pp, verification_keys)
        if signature.vk_root != tree.root:
            return False
        if signature.message_tag != hash_domain("srds/message-tag", message):
            return False
        statement = signature.statement(message)
        proof_ok = snark_system.verify(
            _LEAF_RELATION, statement, signature.proof
        ) or snark_system.verify(_INTERNAL_RELATION, statement, signature.proof)
        return proof_ok and signature.count >= pp.acceptance_threshold


# -- relation implementations and provers -------------------------------------


def _leaf_and_child_parts(
    snark_system: SnarkSystem,
    message: bytes,
    message_tag: bytes,
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
    parts.append(
        _prove_leaf(snark_system, message, message_tag, ordered, opening)
    )
    return parts


def _prove_leaf(
    snark_system: SnarkSystem,
    message: bytes,
    message_tag: bytes,
    ordered: Sequence[CertifiedBaseSignature],
    opening: MerkleMultiProof,
) -> SnarkAggregateSignature:
    """Prove the leaf relation over base signatures in index order and
    the batch opening of exactly their indices."""
    vk_root = root_from_multiproof(
        [_vk_leaf(c.base.index, c.verification_key) for c in ordered], opening
    )
    digest = hash_chain(
        _CHAIN_DOMAIN, (c.base.contribution_digest() for c in ordered)
    )
    lo = ordered[0].base.index
    hi = ordered[-1].base.index
    statement = _statement(message, len(ordered), lo, hi, digest, vk_root)
    witness = encode_sequence(
        [opening.encode()] + [c.encode() for c in ordered]
    )
    proof = snark_system.prove(_LEAF_RELATION, statement, witness)
    return SnarkAggregateSignature(
        count=len(ordered),
        lo=lo,
        hi=hi,
        digest=digest,
        vk_root=vk_root,
        message_tag=message_tag,
        proof=proof,
    )


def _prove_internal(
    snark_system: SnarkSystem,
    message: bytes,
    message_tag: bytes,
    parts: Sequence[SnarkAggregateSignature],
) -> SnarkAggregateSignature:
    ordered = sorted(parts, key=lambda a: a.lo)
    vk_root = ordered[0].vk_root
    digest = hash_chain(_CHAIN_DOMAIN, (part.digest for part in ordered))
    count = sum(part.count for part in ordered)
    lo = ordered[0].lo
    hi = ordered[-1].hi
    statement = _statement(message, count, lo, hi, digest, vk_root)
    witness = encode_sequence(
        [canonical_tuple(part.encode(), message) for part in ordered]
    )
    proof = snark_system.prove(_INTERNAL_RELATION, statement, witness)
    return SnarkAggregateSignature(
        count=count,
        lo=lo,
        hi=hi,
        digest=digest,
        vk_root=vk_root,
        message_tag=message_tag,
        proof=proof,
    )


def _decode_statement(statement: bytes):
    fields, _ = decode_sequence(statement, 0)
    if len(fields) != 6:
        raise ProofError("malformed SRDS statement")
    message = fields[0]
    count, _ = decode_uint(fields[1], 0)
    lo, _ = decode_uint(fields[2], 0)
    hi, _ = decode_uint(fields[3], 0)
    digest = fields[4]
    vk_root = fields[5]
    return message, count, lo, hi, digest, vk_root


def _check_leaf_relation(
    statement: bytes,
    witness: bytes,
    base_scheme: BaseSignatureScheme,
    num_parties: int,
) -> bool:
    """The leaf relation.  The witness is the batch opening of the vk
    commitment followed by the ``count`` certified base signatures it
    opens, in index order."""
    try:
        message, count, lo, hi, digest, vk_root = _decode_statement(statement)
        (opening_blob, *encoded_certified), _ = decode_sequence(witness, 0)
        opening, end = MerkleMultiProof.decode(opening_blob, 0)
    except MALFORMED_INPUT_ERRORS:
        return False
    if end != len(opening_blob) or opening.leaf_count != num_parties:
        return False
    if count != len(encoded_certified) or count == 0:
        return False
    indices = []
    vk_leaves = []
    contribution_digests = []
    for blob in encoded_certified:
        try:
            (base_blob, key), _ = decode_sequence(blob, 0)
            index, pos = decode_uint(base_blob, 0)
            sig_bytes, _ = decode_bytes(base_blob, pos)
        except MALFORMED_INPUT_ERRORS:
            return False
        if not base_scheme.verify(key, message, sig_bytes):
            return False
        indices.append(index)
        # Key binding: the vk must sit at `index` in the committed vector.
        vk_leaves.append(_vk_leaf(index, key))
        contribution_digests.append(
            hash_domain(_CHAIN_DOMAIN, encode_uint(index), sig_bytes)
        )
    # The opening's indices ascend strictly (its decoder refuses anything
    # else), so equality also rules out duplicates and disorder, and with
    # the two endpoints every index lies in [lo, hi].
    if tuple(indices) != opening.indices:
        return False
    if indices[0] != lo or indices[-1] != hi:
        return False
    try:
        opened_root = root_from_multiproof(vk_leaves, opening)
    except CryptoError:
        return False
    return (
        opened_root == vk_root
        and hash_chain(_CHAIN_DOMAIN, contribution_digests) == digest
    )


def _check_internal_relation(
    statement: bytes, witness: bytes, snark_system: SnarkSystem
) -> bool:
    try:
        message, count, lo, hi, digest, vk_root = _decode_statement(statement)
        encoded_children, _ = decode_sequence(witness, 0)
    except MALFORMED_INPUT_ERRORS:
        return False
    if not encoded_children:
        return False
    children: List[SnarkAggregateSignature] = []
    for blob in encoded_children:
        try:
            fields, _ = decode_sequence(blob, 0)
            child_blob, child_message = fields
            child = decode_aggregate(child_blob)
        except MALFORMED_INPUT_ERRORS:
            return False
        if child_message != message:
            return False
        child_statement = child.statement(message)
        if not (
            snark_system.verify(_LEAF_RELATION, child_statement, child.proof)
            or snark_system.verify(
                _INTERNAL_RELATION, child_statement, child.proof
            )
        ):
            return False
        if child.vk_root != vk_root:
            return False
        children.append(child)
    # Pairwise-disjoint, sorted ranges — the anti-double-counting rule.
    for first, second in zip(children, children[1:]):
        if first.hi >= second.lo:
            return False
    if sum(child.count for child in children) != count:
        return False
    if children[0].lo != lo or children[-1].hi != hi:
        return False
    return hash_chain(_CHAIN_DOMAIN, (c.digest for c in children)) == digest


def decode_aggregate(data: bytes) -> SnarkAggregateSignature:
    """Decode a :class:`SnarkAggregateSignature` from its wire form."""
    fields, _ = decode_sequence(data, 0)
    if len(fields) != 7:
        raise SignatureError("malformed SNARK-SRDS aggregate encoding")
    count, _ = decode_uint(fields[0], 0)
    lo, _ = decode_uint(fields[1], 0)
    hi, _ = decode_uint(fields[2], 0)
    proof_tag = fields[6]
    # The relation name is not carried on the wire; reconstruct both
    # candidates and let verification pick (tags are relation-bound).
    return SnarkAggregateSignature(
        count=count,
        lo=lo,
        hi=hi,
        digest=fields[3],
        vk_root=fields[4],
        message_tag=fields[5],
        proof=Proof(relation_name=_LEAF_RELATION, tag=proof_tag),
    )
