"""SRDS in the registered-PKI model: the "natural approach" of §1.2.

The paper discusses an intermediate setup model — *registered PKI*,
where parties choose their own keys but must prove knowledge of the
secret key to publish (footnote 13) — and the natural SRDS candidate in
it: take a multi-signature (constructible from falsifiable assumptions
in registered PKI, e.g. LOSSW'13) and augment it "with some method of
succinctly convincing the verifier that a given multi-signature is
composed of signatures from sufficiently many parties".  The full
version then shows this method *necessitates* SNARG-like tools.

This module is that candidate, built and plugged into the same SRDS
interface pi_ba consumes.  Base signatures are XOR-homomorphic
designated-verifier tags (the HashRegistry substitution recorded in
DESIGN.md); aggregation combines tags and certifies the contributor
*count* with two SNARG relations in the PCD pattern of Thm 2.8:

* **leaf**: "I know ``count`` distinct valid per-party tags with indices
  in ``[lo, hi]`` XOR-ing to the combined tag" — validity of a tag is
  checked against the party's registered key;
* **internal**: "I know child certificates with verifying proofs and
  pairwise-disjoint index ranges whose counts sum to ``count`` and whose
  tags XOR to the combined tag."

The visible moral of the construction (= the paper's barrier): strip the
SNARG out and the only ways left to convince a verifier of the count are
shipping the Theta(n) contributor list (the multisig bitmap baseline) or
having it solve an average-case Subset-XOR instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.prf import prf
from repro.crypto.snark import Proof, SnarkSystem
from repro.errors import (
    MALFORMED_INPUT_ERRORS,
    ConfigurationError,
    SignatureError,
)
from repro.pki.registry import PKIMode
from repro.srds.base import (
    PublicParameters,
    SRDSScheme,
    SRDSSignature,
    ensure_same_message_space,
)
from repro.utils.serialization import (
    canonical_tuple,
    decode_sequence,
    decode_uint,
    encode_once,
    encode_sequence,
    encode_uint,
)

_LEAF_RELATION = "registered-srds/leaf"
_INTERNAL_RELATION = "registered-srds/internal"
TAG_BYTES = 32


def _xor(left: bytes, right: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(left, right))


def proof_of_possession(secret: bytes, verification_key: bytes) -> bytes:
    """The registered-PKI PoP: a tag only the secret holder can form."""
    return prf(secret, "registered-srds/pop", verification_key)


@encode_once
@dataclass(frozen=True)
class RegisteredBaseSignature(SRDSSignature):
    """A base contribution: index + message-bound multisig tag."""

    index: int
    tag: bytes

    @property
    def min_index(self) -> int:
        return self.index

    @property
    def max_index(self) -> int:
        return self.index

    def _base_marker(self) -> bool:
        return True

    def encode(self) -> bytes:
        return encode_uint(self.index) + self.tag


@encode_once
@dataclass(frozen=True)
class RegisteredAggregateSignature(SRDSSignature):
    """A constant-size aggregate: combined tag, count, range, proof.

    ``board_digest`` binds the aggregate to the exact bulletin-board
    snapshot it was formed against (the public input of the relation):
    a tag is only valid if the secret behind it belongs to the key
    registered at that index on *that* board.
    """

    combined_tag: bytes
    count: int
    lo: int
    hi: int
    message_digest: bytes
    board_digest: bytes
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
            self.combined_tag,
            self.message_digest,
            self.board_digest,
            self.proof.encode(),
        )

    def statement(self) -> bytes:
        """The statement both relations attest to."""
        return canonical_tuple(
            self.message_digest,
            encode_uint(self.count),
            encode_uint(self.lo),
            encode_uint(self.hi),
            self.combined_tag,
            self.board_digest,
        )


@dataclass(frozen=True)
class FilteredItem:
    """Aggregate1 output item: a validated contribution plus context.

    Carries the message and board fingerprint Aggregate2 needs (keeping
    its circuit free of the n-key board, per Def. 2.2) while exposing the
    ``encode``/``min_index``/``max_index`` surface the committee
    functionality (f_aggr-sig majority filter) and the Fig. 3 range
    checks consume.
    """

    kind: str                     # "base" | "agg"
    payload: object
    message: bytes
    board_digest: bytes

    def encode(self) -> bytes:
        return self.payload.encode()

    @property
    def min_index(self) -> int:
        return self.payload.min_index

    @property
    def max_index(self) -> int:
        return self.payload.max_index


class RegisteredSRDS(SRDSScheme):
    """SRDS from multisig tags + subset-SNARG, registered PKI + CRS."""

    name = "srds-registered-multisig-snarg"
    pki_mode = PKIMode.REGISTERED
    assumptions = "multisig+subset-snarg"
    needs_crs = True

    def __init__(self) -> None:
        self._secrets_by_vk: Dict[bytes, bytes] = {}
        # O(1) lookup path for tags produced by this deployment's sign();
        # the relation falls back to a registry scan for foreign tags.
        self._tag_origins: Dict[Tuple[int, bytes], bytes] = {}
        # Bulletin-board snapshots by digest: the relations' public input.
        self._boards: Dict[bytes, Dict[int, bytes]] = {}
        self._board_digest_memo: Dict[Tuple[int, int], bytes] = {}

    def _register_board(self, verification_keys: Dict[int, bytes]) -> bytes:
        """Fingerprint (and cache) a bulletin-board snapshot.

        Fingerprinting is Theta(n); pi_ba consults the board at every
        tree node, so the digest is memoized on the dict identity (the
        board is immutable within a run — mutations arrive as new dicts,
        e.g. in the key-replacement experiments).
        """
        identity = (id(verification_keys), len(verification_keys))
        cached = self._board_digest_memo.get(identity)
        if cached is not None:
            return cached
        items = sorted(verification_keys.items())
        digest = prf(
            b"", "registered-srds/board",
            *[encode_uint(index) + key for index, key in items],
        )
        self._boards.setdefault(digest, dict(verification_keys))
        self._board_digest_memo[identity] = digest
        return digest

    # -- Def. 2.1 algorithms ---------------------------------------------------

    def setup(self, num_parties: int, rng) -> PublicParameters:
        if num_parties < 2:
            raise ConfigurationError("need at least 2 parties")
        snark_system = SnarkSystem(crs_seed=rng.random_bytes(32))
        scheme = self

        def leaf_relation(statement: bytes, witness: bytes) -> bool:
            return scheme._check_leaf(statement, witness)

        def internal_relation(statement: bytes, witness: bytes) -> bool:
            return scheme._check_internal(statement, witness, snark_system)

        snark_system.register_relation(_LEAF_RELATION, leaf_relation)
        snark_system.register_relation(_INTERNAL_RELATION, internal_relation)
        return PublicParameters(
            num_parties=num_parties,
            security_bits=256,
            acceptance_threshold=num_parties // 2 + 1,
            extra={"snark": snark_system},
        )

    def keygen(self, pp: PublicParameters, rng) -> Tuple[bytes, object]:
        """Local keygen; registration carries a proof of possession."""
        secret = rng.random_bytes(32)
        verification_key = prf(secret, "registered-srds/vk")
        self._secrets_by_vk[verification_key] = secret
        return verification_key, secret

    def pop_check(self, verification_key: bytes, pop: bytes) -> bool:
        """The knowledge check a registered-PKI bulletin board runs."""
        secret = self._secrets_by_vk.get(verification_key)
        if secret is None:
            return False
        return proof_of_possession(secret, verification_key) == pop

    def sign(
        self,
        pp: PublicParameters,
        index: int,
        signing_key: object,
        message: bytes,
    ) -> Optional[RegisteredBaseSignature]:
        message = ensure_same_message_space(message)
        if signing_key is None:
            return None
        if not isinstance(signing_key, bytes):
            raise SignatureError("wrong signing-key type for RegisteredSRDS")
        tag = prf(signing_key, "registered-srds/tag",
                  encode_uint(index), message)
        self._tag_origins[(index, tag)] = signing_key
        return RegisteredBaseSignature(index=index, tag=tag)

    def _tag_valid(self, verification_key: Optional[bytes], index: int,
                   message: bytes, tag: bytes) -> bool:
        if verification_key is None:
            return False
        secret = self._secrets_by_vk.get(verification_key)
        if secret is None:
            return False
        expected = prf(
            secret, "registered-srds/tag", encode_uint(index), message
        )
        return expected == tag

    def aggregate1(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signatures: Sequence[SRDSSignature],
    ) -> List[object]:
        """Validate base tags against the board; keep disjoint aggregates.

        Each surviving base signature is wrapped with (index, message) so
        Aggregate2's circuit never touches the n-key board (Def. 2.2) —
        validity travels as the SNARG witness.
        """
        message = ensure_same_message_space(message)
        snark_system: SnarkSystem = pp.extra["snark"]
        digest = prf(b"", "registered-srds/msg", message)
        board_digest = self._register_board(verification_keys)
        bases: Dict[int, RegisteredBaseSignature] = {}
        aggregates: List[RegisteredAggregateSignature] = []
        for signature in signatures:
            if isinstance(signature, RegisteredBaseSignature):
                if not 0 <= signature.index < pp.num_parties:
                    continue
                if signature.index in bases:
                    continue
                if self._tag_valid(
                    verification_keys.get(signature.index),
                    signature.index, message, signature.tag,
                ):
                    bases[signature.index] = signature
            elif isinstance(signature, RegisteredAggregateSignature):
                if signature.message_digest != digest:
                    continue
                if signature.board_digest != board_digest:
                    continue
                statement = signature.statement()
                if (
                    snark_system.verify(_LEAF_RELATION, statement,
                                        signature.proof)
                    or snark_system.verify(_INTERNAL_RELATION, statement,
                                           signature.proof)
                ):
                    aggregates.append(signature)
            else:
                raise SignatureError(
                    f"foreign signature type {type(signature).__name__}"
                )
        aggregates.sort(key=lambda a: (-a.count, a.lo, a.hi))
        chosen: List[RegisteredAggregateSignature] = []
        for aggregate in aggregates:
            if all(
                aggregate.hi < other.lo or other.hi < aggregate.lo
                for other in chosen
            ):
                chosen.append(aggregate)
        survivors = [
            FilteredItem("base", bases[index], message, board_digest)
            for index in sorted(bases)
            if all(not (agg.lo <= index <= agg.hi) for agg in chosen)
        ]
        return survivors + [
            FilteredItem("agg", aggregate, message, board_digest)
            for aggregate in chosen
        ]

    def aggregate2(
        self,
        pp: PublicParameters,
        message: bytes,
        filtered: Sequence[object],
    ) -> Optional[RegisteredAggregateSignature]:
        message = ensure_same_message_space(message)
        snark_system: SnarkSystem = pp.extra["snark"]
        digest = prf(b"", "registered-srds/msg", message)
        bases: List[RegisteredBaseSignature] = []
        aggregates: List[RegisteredAggregateSignature] = []
        board_digest = None
        for item in filtered:
            if not isinstance(item, FilteredItem):
                continue
            board_digest = item.board_digest
            if item.kind == "base":
                bases.append(item.payload)
            else:
                aggregates.append(item.payload)
        if board_digest is None:
            return None
        parts = list(aggregates)
        if bases:
            parts.append(self._prove_leaf(snark_system, digest, message,
                                          bases, board_digest))
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return self._prove_internal(snark_system, digest, parts,
                                    board_digest)

    def _prove_leaf(
        self,
        snark_system: SnarkSystem,
        digest: bytes,
        message: bytes,
        bases: List[RegisteredBaseSignature],
        board_digest: bytes,
    ) -> RegisteredAggregateSignature:
        ordered = sorted(bases, key=lambda b: b.index)
        combined = bytes(TAG_BYTES)
        for base in ordered:
            combined = _xor(combined, base.tag)
        aggregate = RegisteredAggregateSignature(
            combined_tag=combined,
            count=len(ordered),
            lo=ordered[0].index,
            hi=ordered[-1].index,
            message_digest=digest,
            board_digest=board_digest,
            proof=Proof(relation_name=_LEAF_RELATION, tag=b""),
        )
        witness = canonical_tuple(
            message,
            encode_sequence([base.encode() for base in ordered]),
        )
        proof = snark_system.prove(
            _LEAF_RELATION, aggregate.statement(), witness
        )
        return RegisteredAggregateSignature(
            combined_tag=aggregate.combined_tag,
            count=aggregate.count,
            lo=aggregate.lo,
            hi=aggregate.hi,
            message_digest=digest,
            board_digest=board_digest,
            proof=proof,
        )

    def _prove_internal(
        self,
        snark_system: SnarkSystem,
        digest: bytes,
        parts: List[RegisteredAggregateSignature],
        board_digest: bytes,
    ) -> RegisteredAggregateSignature:
        ordered = sorted(parts, key=lambda a: a.lo)
        combined = bytes(TAG_BYTES)
        for part in ordered:
            combined = _xor(combined, part.combined_tag)
        aggregate = RegisteredAggregateSignature(
            combined_tag=combined,
            count=sum(part.count for part in ordered),
            lo=ordered[0].lo,
            hi=ordered[-1].hi,
            message_digest=digest,
            board_digest=board_digest,
            proof=Proof(relation_name=_INTERNAL_RELATION, tag=b""),
        )
        witness = encode_sequence([part.encode() for part in ordered])
        proof = snark_system.prove(
            _INTERNAL_RELATION, aggregate.statement(), witness
        )
        return RegisteredAggregateSignature(
            combined_tag=aggregate.combined_tag,
            count=aggregate.count,
            lo=aggregate.lo,
            hi=aggregate.hi,
            message_digest=digest,
            board_digest=board_digest,
            proof=proof,
        )

    def verify(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signature: SRDSSignature,
    ) -> bool:
        message = ensure_same_message_space(message)
        if not isinstance(signature, RegisteredAggregateSignature):
            return False
        snark_system: SnarkSystem = pp.extra["snark"]
        if signature.message_digest != prf(
            b"", "registered-srds/msg", message
        ):
            return False
        if signature.board_digest != self._register_board(verification_keys):
            return False
        statement = signature.statement()
        proof_ok = snark_system.verify(
            _LEAF_RELATION, statement, signature.proof
        ) or snark_system.verify(_INTERNAL_RELATION, statement,
                                 signature.proof)
        return proof_ok and signature.count >= pp.acceptance_threshold

    # -- SNARG relations ----------------------------------------------------------

    def _check_leaf(self, statement: bytes, witness: bytes) -> bool:
        decoded = _decode_statement(statement)
        if decoded is None:
            return False
        digest, count, lo, hi, combined, board_digest = decoded
        board = self._boards.get(board_digest)
        if board is None:
            return False
        try:
            fields, _ = decode_sequence(witness, 0)
            message, encoded_bases_blob = fields
            encoded_bases, _ = decode_sequence(encoded_bases_blob, 0)
        except MALFORMED_INPUT_ERRORS:
            return False
        if prf(b"", "registered-srds/msg", message) != digest:
            return False
        if len(encoded_bases) != count or count == 0:
            return False
        seen = set()
        running = bytes(TAG_BYTES)
        indices = []
        for blob in encoded_bases:
            try:
                index, pos = decode_uint(blob, 0)
                tag = blob[pos:]
            except MALFORMED_INPUT_ERRORS:
                return False
            if len(tag) != TAG_BYTES or index in seen:
                return False
            seen.add(index)
            if not lo <= index <= hi:
                return False
            # Tag validity against the key registered at this index on
            # the statement's board: the relation plays the multisig
            # verification circuit, with the board as public input.
            if not self._tag_valid(board.get(index), index, message, tag):
                return False
            running = _xor(running, tag)
            indices.append(index)
        if min(indices) != lo or max(indices) != hi:
            return False
        return running == combined

    def _check_internal(self, statement: bytes, witness: bytes,
                        snark_system: SnarkSystem) -> bool:
        decoded = _decode_statement(statement)
        if decoded is None:
            return False
        digest, count, lo, hi, combined, board_digest = decoded
        try:
            encoded_children, _ = decode_sequence(witness, 0)
        except MALFORMED_INPUT_ERRORS:
            return False
        if not encoded_children:
            return False
        children = []
        for blob in encoded_children:
            child = decode_aggregate(blob)
            if child is None or child.message_digest != digest:
                return False
            if child.board_digest != board_digest:
                return False
            child_statement = child.statement()
            if not (
                snark_system.verify(_LEAF_RELATION, child_statement,
                                    child.proof)
                or snark_system.verify(_INTERNAL_RELATION, child_statement,
                                       child.proof)
            ):
                return False
            children.append(child)
        for first, second in zip(children, children[1:]):
            if first.hi >= second.lo:
                return False
        if sum(child.count for child in children) != count:
            return False
        if children[0].lo != lo or children[-1].hi != hi:
            return False
        running = bytes(TAG_BYTES)
        for child in children:
            running = _xor(running, child.combined_tag)
        return running == combined


def _decode_statement(statement: bytes):
    try:
        fields, _ = decode_sequence(statement, 0)
        if len(fields) != 6:
            return None
        digest = fields[0]
        count, _ = decode_uint(fields[1], 0)
        lo, _ = decode_uint(fields[2], 0)
        hi, _ = decode_uint(fields[3], 0)
        combined = fields[4]
        board_digest = fields[5]
        if len(combined) != TAG_BYTES:
            return None
    except MALFORMED_INPUT_ERRORS:
        return None
    return digest, count, lo, hi, combined, board_digest


def decode_aggregate(data: bytes) -> Optional[RegisteredAggregateSignature]:
    """Decode an aggregate from its wire form (None on malformed)."""
    try:
        fields, _ = decode_sequence(data, 0)
        if len(fields) != 7:
            return None
        count, _ = decode_uint(fields[0], 0)
        lo, _ = decode_uint(fields[1], 0)
        hi, _ = decode_uint(fields[2], 0)
        combined = fields[3]
        digest = fields[4]
        board_digest = fields[5]
        proof_tag = fields[6]
    except MALFORMED_INPUT_ERRORS:
        return None
    return RegisteredAggregateSignature(
        combined_tag=combined,
        count=count,
        lo=lo,
        hi=hi,
        message_digest=digest,
        board_digest=board_digest,
        proof=Proof(relation_name=_LEAF_RELATION, tag=proof_tag),
    )
